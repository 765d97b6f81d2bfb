"""The append-only campaign journal: checksummed JSONL with tail repair.

One campaign writes one journal.  Every record is a single line::

    {"c": <crc32 of the payload json>, "r": {<payload>}}\\n

The payload checksum is computed over the canonical (sorted-keys,
compact-separators) JSON encoding of the record body, so a record
re-encoded by any writer produces the same line and a torn or corrupted
line can never masquerade as a valid record.

Crash model
-----------

The journal is designed around SIGKILL-anywhere semantics:

* **Torn tail** — a crash between ``write`` and the trailing newline
  leaves a partial line at the end of the file.  Opening the journal
  (for replay or append) scans it and truncates everything from the
  first invalid line onward, so the journal always re-converges to its
  longest valid prefix.  Records after a mid-file corruption (a bad
  checksum, or bytes that are not UTF-8) are discarded too: a journal
  is an ordered log, and trusting records that follow bytes we cannot
  parse would re-order history.
* **At-least-once commits** — the same logical record may be appended
  twice (a result recomputed after a dropped transfer, a resumed run
  re-executing an in-flight pair).  Appends deduplicate by the record's
  ``key`` when one is present — first write wins — and replay applies
  the same rule, so duplicated commits are harmless.
* **Durability** — every append writes and flushes its line, so a
  record survives a SIGKILL of the writer as soon as ``append``
  returns.  ``fsync`` runs per *batch*: ``append(record)`` syncs at
  once, while ``append(record, sync=False)`` leaves the record pending
  until the next :meth:`CampaignJournal.sync` (or ``close``), which
  fsyncs every pending record with one call.  A power loss can thus
  drop at most the unsynced tail, which the at-least-once resume
  re-executes.  Each sync runs through the
  :data:`~repro.faults.plan.SITE_STORE_FSYNC_FAIL` chaos site under
  :func:`~repro.faults.plan.call_with_fault_retries` and degrades to
  flushed-only durability (charged to the infra column) when its
  retries are exhausted.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set

from ..faults.plan import (
    SITE_STORE_FSYNC_FAIL,
    FaultInjectedError,
    FaultPlan,
    FaultRetriesExhausted,
    call_with_fault_retries,
)

#: Record types understood by the campaign pipeline.
RECORD_BEGIN = "begin"        # campaign config fingerprint + summary
RECORD_CASE = "case"          # one pair's terminal outcome (maybe report)
RECORD_ATTEMPT = "attempt"    # a worker really died holding the pair
RECORD_POISONED = "poisoned"  # pair quarantined after repeated deaths
RECORD_END = "end"            # campaign completed; final accounting


def _dedup_key(record: Dict[str, Any]) -> Optional[str]:
    """The ``(type, key)`` identity under which *record* commits once.

    ``case`` and ``poisoned`` records carrying a ``k`` key are
    first-write-wins; every other record (None here) is always kept.
    """
    key = record.get("k")
    kind = record.get("t")
    if key is None or kind not in (RECORD_CASE, RECORD_POISONED):
        return None
    return f"{kind}:{key}"


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def encode_line(record: Dict[str, Any]) -> str:
    payload = _canonical(record)
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return json.dumps({"c": crc, "r": json.loads(payload)},
                      sort_keys=True, separators=(",", ":")) + "\n"


def decode_line(line: str) -> Optional[Dict[str, Any]]:
    """The record carried by one journal line, or None if invalid."""
    if not line.endswith("\n"):
        return None  # torn: the newline is the commit marker
    try:
        envelope = json.loads(line)
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        return None
    if not isinstance(envelope, dict) or "c" not in envelope \
            or "r" not in envelope:
        return None
    record = envelope["r"]
    if not isinstance(record, dict):
        return None
    crc = zlib.crc32(_canonical(record).encode("utf-8")) & 0xFFFFFFFF
    if crc != envelope["c"]:
        return None
    return record


@dataclass
class JournalReplay:
    """Everything a journal scan recovered."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Byte offset of the end of the longest valid prefix.
    valid_bytes: int = 0
    #: Bytes discarded past the valid prefix (torn tail, corruption).
    torn_bytes: int = 0
    #: Duplicate keyed records dropped by first-write-wins dedup.
    duplicates: int = 0

    def by_type(self, record_type: str) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("t") == record_type]


def scan(path: str) -> JournalReplay:
    """Replay a journal file: longest valid prefix, first-wins dedup."""
    replay = JournalReplay()
    if not os.path.exists(path):
        return replay
    seen: Set[str] = set()
    offset = 0
    with open(path, "rb") as handle:
        for line in handle:
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError:
                break  # a flipped high bit: as invalid as a bad crc
            record = decode_line(text)
            if record is None:
                break
            offset += len(line)
            identity = _dedup_key(record)
            if identity is not None:
                if identity in seen:
                    replay.duplicates += 1
                    continue
                seen.add(identity)
            replay.records.append(record)
    replay.valid_bytes = offset
    replay.torn_bytes = os.path.getsize(path) - offset
    return replay


class CampaignJournal:
    """Append-only write-ahead journal for one campaign.

    Each process shard inherits a forked copy but never appends to it:
    the supervisor, in the campaign process, commits every result as it
    lands and group-commits the fsyncs (``sync=False`` appends, one
    :meth:`sync` before it waits for more results).  Opening an existing
    journal repairs its tail (truncating torn bytes) before the first
    append, so a journal is always in its longest-valid-prefix state
    while a writer owns it.  Only the campaign's main thread writes, so
    the journal takes no lock.
    """

    def __init__(self, path: str, faults: Optional[FaultPlan] = None):
        self.path = path
        self.faults = faults
        #: Records written and flushed since the last fsync.
        self._unsynced = 0
        self.appended = 0
        self.fsync_degraded = 0
        #: The file's valid records when this writer opened it (a
        #: resumed campaign rebuilds its state from them) and the torn
        #: bytes truncated away.
        self.replayed = self.repair_tail()
        self._seen_keys: Set[str] = {
            identity for identity in map(_dedup_key, self.replayed.records)
            if identity is not None}
        self._handle = open(self.path, "a", encoding="utf-8", newline="\n")

    # -- tail repair ---------------------------------------------------------

    def repair_tail(self) -> JournalReplay:
        """Truncate the file back to its longest valid prefix."""
        replay = scan(self.path)
        if replay.torn_bytes:
            with open(self.path, "r+b") as handle:
                handle.truncate(replay.valid_bytes)
        return replay

    # -- appending -----------------------------------------------------------

    def append(self, record: Dict[str, Any], sync: bool = True) -> bool:
        """Append one record; False if deduplicated away.

        The line is written and flushed before this returns.  With
        *sync* it is also fsynced; without, it stays pending until the
        next :meth:`sync`.  Records carrying a ``k`` key commit at most
        once per (type, key) — the at-least-once execution layer may
        offer the same result twice (re-run after a dropped transfer, a
        resumed in-flight pair) and the first commit wins.
        """
        identity = _dedup_key(record)
        if identity in self._seen_keys:
            return False
        self._handle.write(encode_line(record))
        self._handle.flush()
        if identity is not None:
            self._seen_keys.add(identity)
        self.appended += 1
        self._unsynced += 1
        if sync:
            self.sync()
        return True

    def sync(self) -> None:
        """Fsync every record appended since the last sync, if any."""
        if not self._unsynced:
            return
        self._unsynced = 0
        try:
            call_with_fault_retries(self.faults, self._fsync)
        except FaultRetriesExhausted:
            # Durability degrades to flushed-only for this batch; the
            # campaign continues and the books charge the failed syncs
            # to infra.
            self.fsync_degraded += 1

    def _fsync(self) -> None:
        faults = self.faults
        if faults is not None and faults.should_inject(SITE_STORE_FSYNC_FAIL):
            raise FaultInjectedError(SITE_STORE_FSYNC_FAIL)
        os.fsync(self._handle.fileno())

    # -- record constructors ---------------------------------------------------

    def append_case(self, key: str, outcome: str, raw_diff_count: int,
                    report: Optional[Dict[str, Any]],
                    sync: bool = True) -> bool:
        return self.append({
            "t": RECORD_CASE, "k": key, "outcome": outcome,
            "raw": raw_diff_count, "report": report,
        }, sync=sync)

    def append_attempt(self, key: str, sites: List[str]) -> bool:
        return self.append({"t": RECORD_ATTEMPT, "k": key, "sites": sites})

    def append_poisoned(self, key: str, deaths: int, error: str) -> bool:
        return self.append({"t": RECORD_POISONED, "k": key,
                            "deaths": deaths, "error": error})

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Sync pending records, then close the file."""
        if not self._handle.closed:
            self._handle.flush()
            self.sync()
            self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def iter_records(path: str) -> Iterator[Dict[str, Any]]:
    """Valid records of a journal file, deduplicated, in order."""
    return iter(scan(path).records)
