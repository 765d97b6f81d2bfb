"""Incremental on-disk cache for the static analyses.

Every cached result is keyed by the **content digests** of the source
files it was computed from, so the cache never needs an invalidation
protocol: edit a file, its digest flips, and exactly the results that
read it recompute.  The results are kernel-wide (access maps joined
into race-pair candidates): they depend on every kernel source file at
once, so each entry is keyed by the digest set of the whole kernel tree
plus a label for the bug configuration.

Entries are JSON files under the cache root (default
``.kit-analysis-cache/`` at the repo root, ignored by git).  Corrupt
or stale entries read as misses; writes are atomic (rename), so a
killed run can only lose cache, never corrupt results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence

from .accessmap import AccessMap, SyscallSummary
from .locations import Access, StateLocation
from .races import RaceCandidate


def _default_root() -> str:
    from .sources import _repo_src_dir
    return os.path.join(os.path.dirname(_repo_src_dir()),
                        ".kit-analysis-cache")


def kernel_paths(src_dir: Optional[str] = None) -> List[str]:
    """Every kernel source file, without parsing any of them.

    The digest set a kernel-wide cache entry is keyed by; mirrors the
    walk in :class:`~repro.analysis.sources.KernelSourceIndex` so a
    warm run never has to build the index at all.
    """
    if src_dir is None:
        from .sources import _repo_src_dir
        src_dir = _repo_src_dir()
    kernel_dir = os.path.join(src_dir, "repro", "kernel")
    paths: List[str] = []
    for root, __, files in os.walk(kernel_dir):
        for name in sorted(files):
            if name.endswith(".py"):
                paths.append(os.path.join(root, name))
    return sorted(paths)


def file_digest(path: str) -> str:
    """sha256 of a file's bytes ('' for a missing file)."""
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return ""


class AnalysisCache:
    """Digest-validated result store for the static analyses."""

    def __init__(self, root: Optional[str] = None):
        self.root = root or _default_root()
        self.hits = 0
        self.misses = 0

    # -- generic digest-keyed entries --------------------------------------

    def _entry_path(self, key: str) -> str:
        safe = hashlib.sha256(key.encode()).hexdigest()[:24]
        slug = "".join(c if c.isalnum() or c in "-_" else "-"
                       for c in key)[:48]
        return os.path.join(self.root, f"{slug}-{safe}.json")

    def get(self, key: str, digests: Dict[str, str]) -> Optional[Any]:
        """The stored payload, or None if missing or any digest flipped."""
        try:
            with open(self._entry_path(key)) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if entry.get("digests") != digests:
            self.misses += 1
            return None
        self.hits += 1
        return entry.get("payload")

    def put(self, key: str, digests: Dict[str, str], payload: Any) -> None:
        os.makedirs(self.root, exist_ok=True)
        path = self._entry_path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump({"digests": digests, "payload": payload}, handle)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- kernel-wide access maps -------------------------------------------

    def get_access_map(self, label: str,
                       paths: Sequence[str]) -> Optional[AccessMap]:
        """Cached access map for one bug configuration, or None."""
        digests = {p: file_digest(p) for p in sorted(paths)}
        payload = self.get(f"map:{label}", digests)
        if payload is None:
            return None
        try:
            return _access_map_from_dict(payload)
        except (TypeError, KeyError):
            return None

    def put_access_map(self, label: str, paths: Sequence[str],
                       access_map: AccessMap) -> None:
        digests = {p: file_digest(p) for p in sorted(paths)}
        self.put(f"map:{label}", digests, _access_map_to_dict(access_map))

    # -- kernel-wide race candidates ---------------------------------------

    def get_races(self, label: str,
                  paths: Sequence[str]) -> Optional[List[RaceCandidate]]:
        """Cached candidates for one bug configuration, or None."""
        digests = {p: file_digest(p) for p in sorted(paths)}
        payload = self.get(f"races:{label}", digests)
        if payload is None:
            return None
        try:
            return [_candidate_from_dict(c) for c in payload]
        except (TypeError, KeyError):
            return None

    def put_races(self, label: str, paths: Sequence[str],
                  candidates: Sequence[RaceCandidate]) -> None:
        digests = {p: file_digest(p) for p in sorted(paths)}
        self.put(f"races:{label}", digests,
                 [asdict(c) for c in candidates])


def _access_from_dict(entry: Dict[str, Any]) -> Access:
    entry = dict(entry)
    entry["location"] = StateLocation(**entry["location"])
    entry["locks"] = tuple(entry.get("locks") or ())
    return Access(**entry)


def _candidate_from_dict(data: Dict[str, Any]) -> RaceCandidate:
    data = dict(data)
    data["access_a"] = _access_from_dict(data["access_a"])
    data["access_b"] = _access_from_dict(data["access_b"])
    return RaceCandidate(**data)


def _summary_to_dict(summary: SyscallSummary) -> Dict[str, Any]:
    return {"name": summary.name,
            "proc_wildcard": summary.proc_wildcard,
            "accesses": [asdict(a) for a in summary.accesses]}


def _summary_from_dict(data: Dict[str, Any]) -> SyscallSummary:
    return SyscallSummary(
        name=data["name"],
        proc_wildcard=data["proc_wildcard"],
        accesses=tuple(_access_from_dict(a) for a in data["accesses"]))


def _access_map_to_dict(access_map: AccessMap) -> Dict[str, Any]:
    return {
        "syscalls": {k: _summary_to_dict(v)
                     for k, v in access_map.syscalls.items()},
        "proc_reads": {k: _summary_to_dict(v)
                       for k, v in access_map.proc_reads.items()},
        "proc_writes": {k: _summary_to_dict(v)
                        for k, v in access_map.proc_writes.items()},
        "dispatch": (_summary_to_dict(access_map.dispatch)
                     if access_map.dispatch is not None else None),
    }


def _access_map_from_dict(data: Dict[str, Any]) -> AccessMap:
    return AccessMap(
        syscalls={k: _summary_from_dict(v)
                  for k, v in data["syscalls"].items()},
        proc_reads={k: _summary_from_dict(v)
                    for k, v in data["proc_reads"].items()},
        proc_writes={k: _summary_from_dict(v)
                     for k, v in data["proc_writes"].items()},
        dispatch=(_summary_from_dict(data["dispatch"])
                  if data["dispatch"] is not None else None),
    )
