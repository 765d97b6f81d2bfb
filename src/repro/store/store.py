"""The durable campaign store: one directory per campaign fingerprint.

Layout under a ``--store DIR`` root::

    DIR/
      <campaign-id>/            # first 12 hex chars of the fingerprint
        campaign.json           # fingerprint + config summary
        journal.jsonl           # the write-ahead journal (repro.store.journal)
        journal.jsonl.1 ...     # archived journals of earlier runs
        result.json             # full campaign result, written at completion

:func:`publish_document` writes both JSON files (and ``run --save``
files) atomically, and :func:`read_document` decodes them.

The campaign id is derived from the **config fingerprint** — a SHA-256
over every result-affecting knob (kernel preset, corpus identity,
strategy and seeds, spec, offsets, chaos plan signature).  Resume
verifies the stored fingerprint against the live config before trusting
a single journal record: a campaign journal only ever replays into the
exact campaign that wrote it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..faults.plan import FaultPlan
from .journal import (
    RECORD_ATTEMPT,
    RECORD_BEGIN,
    RECORD_CASE,
    RECORD_END,
    RECORD_POISONED,
    CampaignJournal,
    scan,
)

CAMPAIGN_FILE = "campaign.json"
JOURNAL_FILE = "journal.jsonl"
RESULT_FILE = "result.json"


class StoreError(RuntimeError):
    """A store operation that cannot proceed (bad root, bad campaign)."""


class ResumeMismatchError(StoreError):
    """--resume pointed at a journal written by a different config."""


def publish_document(path: str, document: Dict[str, Any]) -> str:
    """Atomically write *document* as JSON to *path*; returns *path*.

    The one writer of ``campaign.json``, ``result.json`` and ``run
    --save`` files: a temp file, an fsync, then a rename, so a reader
    sees the old document or the new one, never a torn one.
    """
    staging = path + ".tmp"
    with open(staging, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(staging, path)
    return path


def read_document(path: str) -> Dict[str, Any]:
    """Decode a JSON document written by :func:`publish_document`.

    Raises ``ValueError`` for a file that is not valid JSON, is nested
    deeper than the decoder can follow, or does not hold a JSON object,
    and ``OSError`` for one that cannot be read.
    """
    with open(path) as handle:
        try:
            document = json.load(handle)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    if not isinstance(document, dict):
        raise ValueError("not a JSON object")
    return document


def case_key(sender_hash: str, receiver_hash: str) -> str:
    """The journal key of one (sender, receiver) pair.

    The kernel is part of the campaign fingerprint, so (key, campaign)
    uniquely names a (sender, receiver, kernel) execution.
    """
    return f"{sender_hash}:{receiver_hash}"


def summarize_config(config: Any) -> Dict[str, Any]:
    """The result-affecting identity of a CampaignConfig, as plain JSON.

    Duck-typed (no import of the pipeline module — it imports us).
    Performance knobs proven result-neutral elsewhere in the test suite
    (worker counts, shard mode, sender cache, fact-store cache directory)
    are deliberately excluded so a campaign can resume under a different
    pool shape.
    """
    # Imported here: the core package imports this module.
    from ..core.nondet import DEFAULT_OFFSET_SECONDS

    machine = config.machine
    corpus = None
    if config.corpus is not None:
        corpus = [program.hash_hex for program in config.corpus]
    faults: Optional[FaultPlan] = config.faults
    summary = {
        "kernel_version": machine.kernel.version,
        "jump_label": machine.kernel.jump_label,
        "bugs_enabled": sorted(machine.bugs.enabled()),
        "spec": config.spec.describe(),
        "corpus_size": config.corpus_size,
        "corpus_seed": config.corpus_seed,
        "corpus_hashes": corpus,
        "strategy": config.strategy,
        "rand_budget": config.rand_budget,
        "rand_seed": config.rand_seed,
        "rep_seed": config.rep_seed,
        "max_test_cases": config.max_test_cases,
        # Campaigns always run the default offsets; the key stays so
        # existing fingerprints (and journals) keep their ids.
        "nondet_offsets": list(DEFAULT_OFFSET_SECONDS),
        # Retired option, kept constant so existing journals resume.
        "static_prefilter": False,
        "diagnose": config.diagnose,
        "faults": faults.signature() if faults is not None else None,
    }
    if getattr(config, "interleave", False):
        # Present only for interleaved campaigns, so every sequential
        # fingerprint (including pre-scheduling journals) is unchanged.
        summary["schedule"] = {
            "strategy": config.schedule_strategy,
            "budget": config.schedule_budget,
            "seed": config.schedule_seed,
            "depth": config.schedule_depth,
            "points": config.schedule_points,
            "pairs": config.schedule_pairs,
        }
    return summary


def campaign_fingerprint(summary: Dict[str, Any]) -> str:
    canonical = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class ResumeState:
    """Everything journal replay recovered about a prior run."""

    #: case key -> terminal case record (outcome + optional report).
    cases: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: case key -> worker deaths attributed across all prior runs.
    deaths: Dict[str, int] = field(default_factory=dict)
    #: case keys quarantined as poison pairs.
    poisoned: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Bytes of torn tail truncated away on open.
    torn_bytes: int = 0
    #: Total valid records replayed.
    records: int = 0
    #: The prior run completed (an end record landed).
    completed: bool = False
    #: The end record's accounting, when one landed.
    accounting: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]],
                     torn_bytes: int = 0) -> "ResumeState":
        state = cls(torn_bytes=torn_bytes, records=len(records))
        for record in records:
            kind = record.get("t")
            key = record.get("k")
            if kind == RECORD_CASE and key is not None:
                state.cases.setdefault(key, record)
            elif kind == RECORD_ATTEMPT and key is not None:
                state.deaths[key] = state.deaths.get(key, 0) + 1
            elif kind == RECORD_POISONED and key is not None:
                state.poisoned.setdefault(key, record)
            elif kind == RECORD_END:
                state.completed = True
                state.accounting = record.get("accounting", {})
        return state


@dataclass
class CampaignEntry:
    """One campaign directory, as ``store ls`` sees it."""

    campaign_id: str
    path: str
    summary: Dict[str, Any]
    fingerprint: str
    cases_done: int = 0
    poisoned: int = 0
    attempts: int = 0
    completed: bool = False
    accounting: Dict[str, Any] = field(default_factory=dict)

    def status(self) -> str:
        return "completed" if self.completed else "interrupted"


class CampaignHandle:
    """An open campaign: its journal plus its replayed prior state."""

    def __init__(self, campaign_id: str, path: str, fingerprint: str,
                 resume_state: ResumeState, journal: CampaignJournal):
        self.campaign_id = campaign_id
        self.path = path
        self.fingerprint = fingerprint
        self.resume_state = resume_state
        self.journal = journal

    def write_result(self, document: Dict[str, Any]) -> str:
        """Publish the final result document."""
        return publish_document(os.path.join(self.path, RESULT_FILE),
                                document)

    def close(self) -> None:
        self.journal.close()


class CampaignStore:
    """The ``--store DIR`` root: open, resume, list, and load campaigns."""

    def __init__(self, root: str):
        self.root = root

    # -- opening ---------------------------------------------------------------

    def open_campaign(self, summary: Dict[str, Any], resume: bool = False,
                      faults: Optional[FaultPlan] = None) -> CampaignHandle:
        fingerprint = campaign_fingerprint(summary)
        campaign_id = fingerprint[:12]
        path = os.path.join(self.root, campaign_id)
        meta_path = os.path.join(path, CAMPAIGN_FILE)
        journal_path = os.path.join(path, JOURNAL_FILE)

        if resume:
            if not os.path.exists(meta_path):
                raise ResumeMismatchError(
                    f"nothing to resume: campaign {campaign_id} has no "
                    f"journal under {self.root}")
            try:
                stored = read_document(meta_path)
            except (OSError, ValueError) as error:
                raise ResumeMismatchError(
                    f"campaign {campaign_id}: cannot read {meta_path}: "
                    f"{error}")
            if stored.get("fingerprint") != fingerprint:
                raise ResumeMismatchError(
                    f"campaign {campaign_id}: stored fingerprint "
                    f"{stored.get('fingerprint', '?')[:12]} does not match "
                    f"this configuration ({fingerprint[:12]}); refusing to "
                    "replay a journal written by a different campaign")
        else:
            try:
                os.makedirs(path, exist_ok=True)
            except OSError as error:
                raise StoreError(f"campaign {campaign_id}: cannot create "
                                 f"{path}: {error.strerror}")
            self._archive_journal(path)
            stale_result = os.path.join(path, RESULT_FILE)
            if os.path.exists(stale_result):
                os.replace(stale_result, stale_result + ".old")
            publish_document(meta_path, {"fingerprint": fingerprint,
                                         "summary": summary})

        journal = CampaignJournal(journal_path, faults=faults)
        if resume:
            state = ResumeState.from_records(
                journal.replayed.records,
                torn_bytes=journal.replayed.torn_bytes)
        else:
            state = ResumeState()
            journal.append({"t": RECORD_BEGIN, "fingerprint": fingerprint,
                            "summary": summary})
        return CampaignHandle(campaign_id, path, fingerprint, state, journal)

    @staticmethod
    def _archive_journal(path: str) -> None:
        journal_path = os.path.join(path, JOURNAL_FILE)
        if not os.path.exists(journal_path):
            return
        suffix = 1
        while os.path.exists(f"{journal_path}.{suffix}"):
            suffix += 1
        os.replace(journal_path, f"{journal_path}.{suffix}")

    # -- inspection ------------------------------------------------------------

    def list_campaigns(self) -> List[CampaignEntry]:
        entries: List[CampaignEntry] = []
        if not os.path.isdir(self.root):
            return entries
        for name in sorted(os.listdir(self.root)):
            entry = self._load_entry(name)
            if entry is not None:
                entries.append(entry)
        return entries

    def _load_entry(self, campaign_id: str) -> Optional[CampaignEntry]:
        path = os.path.join(self.root, campaign_id)
        meta_path = os.path.join(path, CAMPAIGN_FILE)
        if not os.path.isfile(meta_path):
            return None
        try:
            stored = read_document(meta_path)
        except (OSError, ValueError):
            return None
        state = ResumeState.from_records(
            scan(os.path.join(path, JOURNAL_FILE)).records)
        return CampaignEntry(campaign_id=campaign_id, path=path,
                             summary=stored.get("summary", {}),
                             fingerprint=stored.get("fingerprint", ""),
                             cases_done=len(state.cases),
                             poisoned=len(state.poisoned),
                             attempts=sum(state.deaths.values()),
                             completed=state.completed,
                             accounting=state.accounting)

    def entry(self, campaign_id: str) -> CampaignEntry:
        entry = self._load_entry(campaign_id)
        if entry is None:
            raise StoreError(f"no campaign {campaign_id!r} under {self.root}")
        return entry

    def result_path(self, campaign_id: str) -> Optional[str]:
        path = os.path.join(self.root, campaign_id, RESULT_FILE)
        return path if os.path.exists(path) else None
