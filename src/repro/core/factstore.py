"""Per-program fact store: profiles and non-det marks on disk (§4.3.2).

KIT saves each program's non-determinism information "to disk … to
reduce the need to rerun the test program in future testing campaigns";
this repo saves profiles the same way.  Both are pure functions of
(program, kernel build, container setup), so each fact is keyed by the
machine fingerprint, the program hash and its kind, at
``<dir>/<fingerprint>/<ab>/<hash>.<kind>``: the SHA-256 of a JSON
payload, then the payload.  A missing entry, a digest mismatch or a
payload that does not decode is a miss, recomputed and rewritten; so
are entries in older layouts (pickled profiles, flat ``.json`` marks).
No entry can run code, but a cache directory is still trusted for
verdicts, like a corpus directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Any, Callable, Optional, TypeVar

from ..vm.machine import MachineConfig

T = TypeVar("T")

#: Bytes of the SHA-256 digest that precedes each entry's payload.
_DIGEST_SIZE = hashlib.sha256().digest_size


def machine_fingerprint(config: MachineConfig) -> str:
    """A stable digest of everything that shapes a per-program fact."""
    parts = [
        config.kernel.version,
        f"jump_label={config.kernel.jump_label}",
        ",".join(config.bugs.enabled()),
        f"sender={config.sender.unshare_flags:#x}"
        f":{config.sender.pivot_root}:{config.sender.uid}",
        f"receiver={config.receiver.unshare_flags:#x}"
        f":{config.receiver.pivot_root}:{config.receiver.uid}",
    ]
    return hashlib.sha1("|".join(parts).encode()).hexdigest()[:16]


class FactStore:
    """One machine fingerprint's facts under a cache directory.

    The first two hex digits of the program hash fan entries out into
    256 subdirectories.  A handle counts its own hits, misses and
    writes, so each user holds a handle of its own.
    """

    def __init__(self, directory: str, fingerprint: str):
        self._directory = os.path.join(directory, fingerprint)
        os.makedirs(self._directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Entries/bytes this handle wrote (CampaignStats telemetry).
        self.entries_written = 0
        self.bytes_written = 0

    def _path(self, program_hash: str, kind: str) -> str:
        return os.path.join(self._directory, program_hash[:2],
                            f"{program_hash}.{kind}")

    def get(self, program_hash: str, kind: str,
            decode: Callable[[Any], T]) -> Optional[T]:
        """The decoded fact, or None when it is missing or damaged."""
        try:
            with open(self._path(program_hash, kind), "rb") as handle:
                data = handle.read()
            payload = data[_DIGEST_SIZE:]
            if hashlib.sha256(payload).digest() != data[:_DIGEST_SIZE]:
                raise ValueError("digest mismatch")
            fact = decode(json.loads(payload))
        except (OSError, ValueError, TypeError, KeyError, IndexError,
                RecursionError):
            # Missing, damaged, or a payload of the wrong shape or depth.
            self.misses += 1
            return None
        self.hits += 1
        return fact

    def put(self, program_hash: str, kind: str, value: Any) -> None:
        # Atomic publish: profiling threads, forked shards and campaigns
        # running side by side share the directory, and a reader must
        # never see a torn entry.  The temp name carries the pid, since
        # thread idents repeat across processes.
        path = self._path(program_hash, kind)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp_path = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        payload = json.dumps(value, separators=(",", ":")).encode()
        data = hashlib.sha256(payload).digest() + payload
        with open(tmp_path, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
        self.entries_written += 1
        self.bytes_written += len(data)
