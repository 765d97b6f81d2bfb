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

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..corpus.program import TestProgram
from ..vm.executor import ExecutionResult, SyscallRecord
from ..vm.machine import RECEIVER, SENDER, Machine
from ..vm.segments import StateDelta

#: Default byte budget for memoized post-sender state deltas.  Deltas in
#: this model are a few KiB each, so the default never evicts in normal
#: campaigns; it exists so a runaway corpus degrades to re-execution
#: instead of unbounded growth.
DEFAULT_SENDER_CACHE_BYTES = 64 * 1024 * 1024


class BaselineCache:
    """Receiver-alone result cache, shared by a campaign's detectors.

    Execution results are immutable once produced, so one baseline
    serves every test case with the same receiver program, on any
    machine, since all machines restore the same snapshot.  Each
    process shard works on its own forked copy, whose entries die with
    the shard.  ``put`` keeps the first result stored for a receiver.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._results: Dict[str, ExecutionResult] = {}
        self.hits = 0
        self.misses = 0

    def get(self, receiver_hash: str) -> Optional[ExecutionResult]:
        with self._lock:
            result = self._results.get(receiver_hash)
            if result is None:
                self.misses += 1
            else:
                self.hits += 1
            return result

    def put(self, receiver_hash: str, result: ExecutionResult) -> None:
        with self._lock:
            self._results.setdefault(receiver_hash, result)

    def clear(self) -> None:
        with self._lock:
            self._results.clear()

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
    """Post-sender state cache, shared by a campaign's detectors.

    After a sender runs once from the base snapshot, its post-execution
    machine state is kept as a segmented :class:`StateDelta` keyed by
    ``(snapshot content id, sender hash)``.  Every later test case
    sharing that sender restores *base + delta* instead of re-executing
    the sender — valid on any machine with the same snapshot id, since
    identical configs build identical snapshots and group layouts.

    Entries are LRU-ordered under a byte budget (``max_bytes``); an
    eviction only costs the next user one sender re-execution.
    Each process shard works on its own forked copy, whose entries die
    with the shard.
    """

    def __init__(self, max_bytes: int = DEFAULT_SENDER_CACHE_BYTES) -> None:
        # Reentrant because _remove is called lexically under put, and
        # the lock-discipline checker reasons purely lexically.
        self._lock = threading.RLock()
        #: (snapshot id, sender hash) -> entry, LRU order (oldest first).
        self._entries: "OrderedDict[Tuple[str, str], SenderState]" \
            = OrderedDict()
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        #: Entries dropped by the byte budget.
        self.evictions = 0
        self._bytes = 0

    def get(self, snapshot_id: str,
            sender_hash: str) -> Optional[SenderState]:
        key = (snapshot_id, sender_hash)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, snapshot_id: str, sender_hash: str,
            entry: SenderState) -> None:
        """Insert under the byte budget; the first put of a key wins.

        An oversized entry is never admitted: callers keep re-executing
        this sender, which is correct (just slower) by construction.
        """
        key = (snapshot_id, sender_hash)
        with self._lock:
            if entry.size_bytes > self.max_bytes or key in self._entries:
                return
            self._entries[key] = entry
            self._bytes += entry.size_bytes
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                oldest = next(iter(self._entries))
                self._remove(oldest)
                self.evictions += 1

    def _remove(self, key: Tuple[str, str]) -> None:
        with self._lock:
            entry = self._entries.pop(key)
            self._bytes -= entry.size_bytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_held(self) -> int:
        with self._lock:
            return self._bytes

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
        self._sender_states = sender_states
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
                                  sender_result))
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
        self._baselines.put(receiver.hash_hex, result)
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
