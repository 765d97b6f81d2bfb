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

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..corpus.program import TestProgram
from ..vm.executor import ExecutionResult
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
    Only one thread ever touches a cache (the campaign's main thread,
    or a single-threaded shard), so it takes no lock.
    """

    def __init__(self) -> None:
        self._results: Dict[str, ExecutionResult] = {}
        self.hits = 0
        self.misses = 0

    def get(self, receiver_hash: str) -> Optional[ExecutionResult]:
        result = self._results.get(receiver_hash)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, receiver_hash: str, result: ExecutionResult) -> None:
        self._results.setdefault(receiver_hash, result)

    def __len__(self) -> int:
        return len(self._results)


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
    with the shard.  Like :class:`BaselineCache`, it takes no lock.
    """

    def __init__(self, max_bytes: int = DEFAULT_SENDER_CACHE_BYTES) -> None:
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
        if entry.size_bytes > self.max_bytes or key in self._entries:
            return
        self._entries[key] = entry
        self._bytes += entry.size_bytes
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _oldest, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.size_bytes
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes_held(self) -> int:
        return self._bytes


class TestCaseRunner:
    """Runs sender/receiver pairs from the snapshot."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, machine: Machine,
                 baselines: Optional[BaselineCache] = None,
                 sender_states: Optional[SenderStateCache] = None):
        self._machine = machine
        self._baselines = baselines if baselines is not None else BaselineCache()
        self._sender_states = sender_states

    def run_with_sender(self, sender: TestProgram,
                        receiver: TestProgram) -> Tuple[ExecutionResult,
                                                        ExecutionResult]:
        """Execution A: sender then receiver; returns both results.

        With a sender-state cache attached, the sender executes from
        the base snapshot at most once per (snapshot, sender program);
        every later run sharing the sender — a test case, or an
        Algorithm-2 variant several reports share — restores the
        memoized post-sender delta instead: state-equivalent by the
        segmented image's construction, and verified end-to-end by the
        cached-vs-uncached equivalence property test.
        """
        machine = self._machine
        cache = self._sender_states
        if cache is not None:
            entry = cache.get(machine.snapshot_id, sender.hash_hex)
            if entry is not None:
                return self.run_prepared(entry, receiver)
        machine.reset()
        sender_result = machine.run(SENDER, sender)
        if cache is not None:
            cache.put(machine.snapshot_id, sender.hash_hex,
                      SenderState(machine.capture_state_delta(),
                                  sender_result))
        return sender_result, machine.run(RECEIVER, receiver)

    def run_prepared(self, state: SenderState,
                     receiver: TestProgram) -> Tuple[ExecutionResult,
                                                     ExecutionResult]:
        """Execution A from a memoized sender state.

        Restores *state*'s post-sender delta over the base snapshot and
        runs the receiver; the sender's result is the memoized one.
        """
        self._machine.restore_state_delta(state.delta)
        return state.result, self._machine.run(RECEIVER, receiver)

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
