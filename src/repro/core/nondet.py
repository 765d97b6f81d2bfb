"""Non-deterministic result identification (paper §4.3.2).

"Many non-deterministic system call results are caused by timing… To
systematically identify such cases, KIT re-runs the receiver program
multiple times with different starting times, so that system call
results that are sensitive to timing vary between different executions."

Here, "different starting times" are snapshot restores with rebased
virtual-clock boot offsets.  The resulting trace ASTs are compared and
every varying node's path is marked non-deterministic; the mark set is
cached per test program ("KIT saves this non-determinism information to
disk for each test program to reduce the need to rerun the test program
in future testing campaigns").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from ..corpus.program import TestProgram
from ..kernel.clock import DEFAULT_BOOT_NS
from ..vm.machine import RECEIVER, Machine
from .factstore import FactStore
from .trace_ast import Path, build_trace_ast, nondet_paths_from_runs

#: Boot offsets (seconds added to the default boot time) for the re-runs.
#: Chosen to differ pairwise at second granularity *and* modulo small
#: divisors, so periodic background state (conntrack churn) also varies.
DEFAULT_OFFSET_SECONDS: Tuple[int, ...] = (0, 7, 101)


def offsets_to_boot_ns(offsets: Sequence[int]) -> Tuple[int, ...]:
    return tuple(DEFAULT_BOOT_NS + s * 1_000_000_000 for s in offsets)


def _decode_marks(raw: object) -> FrozenSet[Path]:
    """Stored marks, which must be a list of int lists: a foreign
    payload is a miss, never a verdict."""
    if not isinstance(raw, list) or not all(
            isinstance(path, list)
            and all(type(step) is int for step in path)
            for path in raw):
        raise ValueError("non-det marks must be lists of int steps")
    return frozenset(tuple(path) for path in raw)


class NondetStore:
    """Cache of non-determinism marks, keyed by program hash and kind.

    One store serves every detector of a campaign: they all restore the
    same snapshot.  Each process shard works on its own forked copy,
    whose memory entries die with the shard.  The kind names the
    boot-offset schedule (``nondet``, or ``nondet-<offsets>``).  With
    *facts*, keyed by machine fingerprint since marks depend on the
    kernel too, marks also persist across campaigns.  Only one thread
    ever touches a store, so it takes no lock.
    """

    def __init__(self, facts: Optional[FactStore] = None):
        self._facts = facts
        self._memory: Dict[Tuple[str, str], FrozenSet[Path]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, program_hash: str,
            kind: str = "nondet") -> Optional[FrozenSet[Path]]:
        key = (program_hash, kind)
        marks = self._memory.get(key)
        if marks is None and self._facts is not None:
            marks = self._facts.get(program_hash, kind, _decode_marks)
        if marks is None:
            self.misses += 1
            return None
        self._memory[key] = marks
        self.hits += 1
        return marks

    def put(self, program_hash: str, marks: FrozenSet[Path],
            kind: str = "nondet") -> None:
        self._memory[(program_hash, kind)] = marks
        if self._facts is not None:
            self._facts.put(program_hash, kind,
                            sorted(list(path) for path in marks))

    def __len__(self) -> int:
        return len(self._memory)


class NondetAnalyzer:
    """Computes (and caches) non-determinism marks for receiver programs."""

    def __init__(self, machine: Machine, store: Optional[NondetStore] = None,
                 offsets: Sequence[int] = DEFAULT_OFFSET_SECONDS):
        self._machine = machine
        # Explicit None check: an empty NondetStore is falsy (it has a
        # __len__), so ``store or NondetStore()`` would discard it.
        self._store = store if store is not None else NondetStore()
        self._boot_offsets = offsets_to_boot_ns(offsets)
        # Verdicts depend on which boot offsets were compared, so the
        # offset schedule names the cached fact's kind.
        self._kind = "nondet"
        if tuple(offsets) != DEFAULT_OFFSET_SECONDS:
            self._kind += "-" + "-".join(str(s) for s in offsets)
        self.runs_executed = 0

    @property
    def store(self) -> NondetStore:
        return self._store

    def nondet_paths(self, program: TestProgram) -> FrozenSet[Path]:
        cached = self._store.get(program.hash_hex, self._kind)
        if cached is not None:
            return cached
        trees = []
        for boot_ns in self._boot_offsets:
            self._machine.reset(boot_offset_ns=boot_ns)
            result = self._machine.run(RECEIVER, program)
            trees.append(build_trace_ast(result.records))
            self.runs_executed += 1
        marks = nondet_paths_from_runs(trees)
        self._store.put(program.hash_hex, marks, self._kind)
        return marks
