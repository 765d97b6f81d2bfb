"""Test case execution (paper §4.2).

"KIT executes a test case twice… in one execution, it first executes the
sender program in the sender container, and then executes the receiver
program, during which it collects the system call trace of the receiver.
In another execution, KIT skips the sender program execution and only
executes the receiver program."

Every execution starts from the VM snapshot.  The receiver-alone trace
depends only on the receiver program and the snapshot, so it is cached
per program — many test cases share receiver programs, and the cache is
the execution-side counterpart of the paper's per-program
non-determinism cache.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..corpus.program import TestProgram
from ..faults.plan import (
    SITE_CACHE_EVICT,
    SITE_CACHE_STALE_OWNER,
    SITE_SENDER_CACHE_EVICT,
    SITE_SENDER_CACHE_STALE_OWNER,
    STALE_OWNER,
    FaultPlan,
)
from ..vm.executor import ExecutionResult, SyscallRecord
from ..vm.machine import RECEIVER, SENDER, Machine
from ..vm.segments import StateDelta

#: Default byte budget for memoized post-sender state deltas.  Deltas in
#: this model are a few KiB each, so the default never evicts in normal
#: campaigns; it exists so a runaway corpus degrades to re-execution
#: instead of unbounded growth.
DEFAULT_SENDER_CACHE_BYTES = 64 * 1024 * 1024


class BaselineCache:
    """Thread-safe receiver-alone result cache, shareable across workers.

    Execution results are immutable once produced, so one baseline
    serves every test case with the same receiver program, on any
    machine, since all machines restore the same snapshot (each process
    shard works on its forked copy).  The lock only guards the dict;
    two workers may still race to compute the same baseline (both miss,
    both run), which is wasteful but harmless: ``put`` keeps the first.
    """

    def __init__(self, faults: Optional[FaultPlan] = None) -> None:
        # Reentrant so _remove can take it lexically under get/purge
        # (the lock-discipline checker reasons purely lexically).
        self._lock = threading.RLock()
        self._results: Dict[str, ExecutionResult] = {}
        #: receiver hash -> owner tag of the worker that computed it
        #: (None for entries from the in-process runner).
        self._owners: Dict[str, Optional[int]] = {}
        #: Chaos plan; registers the ``cache.evict`` and
        #: ``cache.stale_owner`` injection sites on this cache.
        self._faults = faults
        self.hits = 0
        self.misses = 0

    def get(self, receiver_hash: str) -> Optional[ExecutionResult]:
        faults = self._faults
        with self._lock:
            result = self._results.get(receiver_hash)
            if result is not None and faults is not None \
                    and faults.should_inject(SITE_CACHE_EVICT):
                # Spurious eviction: the caller recomputes from the same
                # snapshot, so the fault is absorbed by construction.
                self._remove(receiver_hash)
                faults.record_recovered([SITE_CACHE_EVICT])
                result = None
            if result is None:
                self.misses += 1
            else:
                self.hits += 1
            return result

    def put(self, receiver_hash: str, result: ExecutionResult,
            owner: Optional[int] = None) -> None:
        faults = self._faults
        with self._lock:
            if faults is not None \
                    and faults.should_inject(SITE_CACHE_STALE_OWNER):
                if receiver_hash in self._results:
                    # Lost the first-put race: the stale tag was never
                    # stored, the injection is a no-op.
                    faults.record_recovered([SITE_CACHE_STALE_OWNER])
                    return
                # Mis-tagged insert: owner-based invalidation can no
                # longer find this entry; only the end-of-campaign
                # sweep (purge_stale) repairs it.
                owner = STALE_OWNER
            if receiver_hash not in self._results:
                self._results[receiver_hash] = result
                self._owners[receiver_hash] = owner

    def _remove(self, key: str) -> None:
        """Drop one entry, resolving a stale tag if it carried one."""
        with self._lock:
            owner = self._owners.pop(key, None)
            del self._results[key]
        if owner == STALE_OWNER and self._faults is not None:
            self._faults.record_recovered([SITE_CACHE_STALE_OWNER])

    def owner_tags(self) -> List[Optional[int]]:
        """The owner tag of every live entry (invariant auditing)."""
        with self._lock:
            return list(self._owners.values())

    def purge_stale(self) -> int:
        """Sweep entries whose owner tag a stale-owner fault corrupted.

        The repair half of the owner invariant: a mis-tagged entry can
        never be released by ``invalidate_owner``, so the pipeline
        sweeps the caches after every campaign stage that could have
        planted one.  Each purge resolves its injection as recovered.
        """
        with self._lock:
            stale = [key for key, tag in self._owners.items()
                     if tag == STALE_OWNER]
            for key in stale:
                self._remove(key)
            return len(stale)

    def invalidate_owner(self, owner: int) -> int:
        """Drop every entry computed by *owner* (a dead shard
        may have published results from a corrupted machine)."""
        with self._lock:
            stale = [key for key, tag in self._owners.items()
                     if tag == owner]
            for key in stale:
                del self._results[key]
                del self._owners[key]
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._results.clear()
            self._owners.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0


@dataclass
class SenderState:
    """One memoized post-sender machine state.

    The delta re-materializes the kernel state the sender left behind;
    the execution result is the sender's own trace, needed verbatim by
    reports.  Both are pure functions of (base snapshot, sender
    program), which is exactly the cache key.
    """

    delta: StateDelta
    result: ExecutionResult

    @property
    def size_bytes(self) -> int:
        return self.delta.size_bytes


@dataclass
class PreparedSenderState:
    """A sender-side machine state prepared outside the cache.

    Diagnosis (Algorithm 2) builds one of these per live sender call
    in a single stepped pass: *delta* is a machine state checkpoint at
    or before that call, *records* the full-length record list of the
    corresponding cumulative-removal sender variant (executed prefix
    plus hole padding).  Deltas are captured every few live calls, not
    at every one — when *replay* is set to ``(program, start, stop)``,
    the variant's state is the checkpoint plus a deterministic
    re-execution of slots ``[start, stop)``, which is far cheaper than
    capturing a delta per call.  ``TestCaseRunner.run_prepared`` turns
    one into the (sender result, receiver result) pair
    ``run_with_sender`` would have produced for that variant.
    """

    delta: StateDelta
    records: List[Optional[SyscallRecord]]
    replay: Optional[Tuple[TestProgram, int, int]] = None


class SenderStateCache:
    """Thread-safe post-sender state cache, shareable across workers.

    After a sender runs once from the base snapshot, its post-execution
    machine state is kept as a segmented :class:`StateDelta` keyed by
    ``(snapshot content id, sender hash)``.  Every later test case
    sharing that sender restores *base + delta* instead of re-executing
    the sender — valid on any machine with the same snapshot id, since
    identical configs build identical snapshots and group layouts.

    Entries are LRU-ordered under a byte budget (``max_bytes``); an
    eviction only costs the next user one sender re-execution, so the
    ``sender_cache.evict`` chaos site is absorbed by construction.
    Owner tags mirror :class:`BaselineCache`: entries published by a
    worker that later dies are dropped (``invalidate_owner``), and a
    ``sender_cache.stale_owner`` injection mis-tags an insert so only
    the end-of-campaign ``purge_stale`` sweep can reclaim it.
    """

    def __init__(self, max_bytes: int = DEFAULT_SENDER_CACHE_BYTES,
                 faults: Optional[FaultPlan] = None) -> None:
        # Reentrant for the same reason as BaselineCache: _remove is
        # called lexically under get/put/purge, and the lock-discipline
        # checker reasons purely lexically.
        self._lock = threading.RLock()
        #: (snapshot id, sender hash) -> entry, LRU order (oldest first).
        self._entries: "OrderedDict[Tuple[str, str], SenderState]" \
            = OrderedDict()
        self._owners: Dict[Tuple[str, str], Optional[int]] = {}
        self._faults = faults
        self.max_bytes = max_bytes
        #: Optional shared tier (a :class:`~repro.vm.shm.DeltaStore`-like
        #: object with ``fetch(key) -> bytes | None`` and
        #: ``publish(key, payload)``).  When set, the cache becomes a
        #: two-tier read-through: a local miss consults the shared tier
        #: and admits the deserialized entry; a fresh local insert is
        #: written through so sibling shard processes can hit it.
        self.backing: Optional[Any] = None
        self.hits = 0
        self.misses = 0
        #: Hits served by deserializing a shared-tier blob (a subset of
        #: ``hits``): another shard executed this sender first.
        self.shared_hits = 0
        #: Entries dropped by the byte budget (not by faults or owners).
        self.evictions = 0
        self._bytes = 0

    def get(self, snapshot_id: str,
            sender_hash: str) -> Optional[SenderState]:
        faults = self._faults
        key = (snapshot_id, sender_hash)
        with self._lock:
            entry = self._entries.get(key)
            evicted = False
            if entry is not None and faults is not None \
                    and faults.should_inject(SITE_SENDER_CACHE_EVICT):
                # Spurious eviction: the caller re-executes the sender
                # from the base snapshot, absorbing the fault.  The
                # shared tier is deliberately not consulted on this
                # path, so the injected eviction keeps its real cost.
                self._remove(key)
                faults.record_recovered([SITE_SENDER_CACHE_EVICT])
                entry = None
                evicted = True
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            if self.backing is not None and not evicted:
                payload = self.backing.fetch(key)
                if payload is not None:
                    entry = pickle.loads(payload)
                    # Admitted ownerless: the publishing shard's death
                    # is handled by the supervisor unlinking its shared
                    # blobs, not by local owner invalidation.
                    self._admit(key, entry, None)
                    self.hits += 1
                    self.shared_hits += 1
                    return entry
            self.misses += 1
            return None

    def put(self, snapshot_id: str, sender_hash: str, entry: SenderState,
            owner: Optional[int] = None) -> None:
        faults = self._faults
        key = (snapshot_id, sender_hash)
        with self._lock:
            if entry.size_bytes > self.max_bytes:
                # Never admitted: callers keep re-executing this sender,
                # which is correct (just slower) by construction.
                return
            if faults is not None \
                    and faults.should_inject(SITE_SENDER_CACHE_STALE_OWNER):
                if key in self._entries:
                    # Lost the first-put race: the stale tag was never
                    # stored, the injection is a no-op.
                    faults.record_recovered([SITE_SENDER_CACHE_STALE_OWNER])
                    return
                # Mis-tagged insert: owner-based invalidation can no
                # longer find this entry; only purge_stale repairs it.
                owner = STALE_OWNER
            if not self._admit(key, entry, owner):
                return
            if self.backing is not None:
                # Write-through on fresh inserts only; the shared tier
                # deduplicates by deterministic name, so a racing
                # sibling's publish simply wins.
                self.backing.publish(
                    key, pickle.dumps(entry,
                                      protocol=pickle.HIGHEST_PROTOCOL))

    def _admit(self, key: Tuple[str, str], entry: SenderState,
               owner: Optional[int]) -> bool:
        """Insert under the byte budget; False if present or oversized."""
        with self._lock:
            if entry.size_bytes > self.max_bytes or key in self._entries:
                return False
            self._entries[key] = entry
            self._owners[key] = owner
            self._bytes += entry.size_bytes
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                oldest = next(iter(self._entries))
                self._remove(oldest)
                self.evictions += 1
            return True

    def _remove(self, key: Tuple[str, str]) -> None:
        """Drop one entry, resolving a stale tag if it carried one."""
        with self._lock:
            owner = self._owners.pop(key, None)
            entry = self._entries.pop(key)
            self._bytes -= entry.size_bytes
        if owner == STALE_OWNER and self._faults is not None:
            self._faults.record_recovered([SITE_SENDER_CACHE_STALE_OWNER])

    def owner_tags(self) -> List[Optional[int]]:
        """The owner tag of every live entry (invariant auditing)."""
        with self._lock:
            return list(self._owners.values())

    def purge_stale(self) -> int:
        """Sweep entries whose owner tag a stale-owner fault corrupted.

        Same repair contract as ``BaselineCache.purge_stale``: each
        purge resolves its injection as recovered, and the pipeline
        sweeps after every stage that could have planted a stale tag.
        """
        with self._lock:
            stale = [key for key, tag in self._owners.items()
                     if tag == STALE_OWNER]
            for key in stale:
                self._remove(key)
            return len(stale)

    def invalidate_owner(self, owner: int) -> int:
        """Drop every entry published by *owner* (a dead shard
        may have captured a delta from a corrupted machine)."""
        with self._lock:
            stale = [key for key, tag in self._owners.items()
                     if tag == owner]
            for key in stale:
                self._remove(key)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._owners.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_held(self) -> int:
        with self._lock:
            return self._bytes

    def bytes_by_owner(self) -> Dict[Optional[int], int]:
        """Bytes held per publishing owner (the --cache-report view)."""
        with self._lock:
            held: Dict[Optional[int], int] = {}
            for key, entry in self._entries.items():
                owner = self._owners[key]
                held[owner] = held.get(owner, 0) + entry.size_bytes
            return held

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0


class TestCaseRunner:
    """Runs sender/receiver pairs from the snapshot."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, machine: Machine,
                 baselines: Optional[BaselineCache] = None,
                 sender_states: Optional[SenderStateCache] = None):
        self._machine = machine
        self._baselines = baselines if baselines is not None else BaselineCache()
        # Post-sender state memoization needs segmented dirty tracking;
        # a full-restore machine silently falls back to re-execution.
        self._sender_states = sender_states \
            if machine.supports_state_deltas else None
        #: Test-case executions performed (the §6.5 throughput unit).
        self.cases_executed = 0

    def run_with_sender(self, sender: TestProgram,
                        receiver: TestProgram) -> Tuple[ExecutionResult,
                                                        ExecutionResult]:
        """Execution A: sender then receiver; returns both results.

        With a sender-state cache attached, the sender executes from
        the base snapshot at most once per (snapshot, sender program);
        every later case sharing the sender restores the memoized
        post-sender delta instead — state-equivalent by the segmented
        image's construction, and verified end-to-end by the
        cached-vs-uncached equivalence property test.
        """
        machine = self._machine
        cache = self._sender_states
        if cache is not None:
            entry = cache.get(machine.snapshot_id, sender.hash_hex)
            if entry is not None:
                machine.restore_state_delta(entry.delta)
                receiver_result = machine.run(RECEIVER, receiver)
                self.cases_executed += 1
                return entry.result, receiver_result
        machine.reset()
        sender_result = machine.run(SENDER, sender)
        if cache is not None:
            cache.put(machine.snapshot_id, sender.hash_hex,
                      SenderState(machine.capture_state_delta(),
                                  sender_result),
                      owner=machine.cluster_worker_id)
        receiver_result = machine.run(RECEIVER, receiver)
        self.cases_executed += 1
        return sender_result, receiver_result

    def run_prepared(self, prepared: PreparedSenderState,
                     receiver: TestProgram) -> Tuple[ExecutionResult,
                                                     ExecutionResult]:
        """Execution A from a pre-captured sender state (diagnosis memo).

        Equivalent to ``run_with_sender`` on the sender variant the
        prepared state was captured for: holes execute as no-ops, so
        the checkpoint delta — plus the deterministic replay of the few
        slots past it, when the checkpoint is strided — reproduces the
        variant's post-sender machine state exactly.
        """
        machine = self._machine
        machine.restore_state_delta(prepared.delta)
        if prepared.replay is not None:
            program, start, stop = prepared.replay
            machine.replay_slots(SENDER, program, start, stop,
                                 prior=prepared.records)
        receiver_result = machine.run(RECEIVER, receiver)
        self.cases_executed += 1
        return ExecutionResult(list(prepared.records)), receiver_result

    def receiver_alone(self, receiver: TestProgram) -> ExecutionResult:
        """Execution B: receiver only, from the same snapshot (cached)."""
        cached = self._baselines.get(receiver.hash_hex)
        if cached is not None:
            return cached
        machine = self._machine
        machine.reset()
        result = machine.run(RECEIVER, receiver)
        self._baselines.put(receiver.hash_hex, result,
                            owner=machine.cluster_worker_id)
        return result

    @property
    def baselines(self) -> BaselineCache:
        return self._baselines

    @property
    def sender_states(self) -> Optional[SenderStateCache]:
        return self._sender_states

    def clear_caches(self) -> None:
        self._baselines.clear()
        if self._sender_states is not None:
            self._sender_states.clear()
