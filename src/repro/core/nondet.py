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

import json
import os
import threading
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from ..corpus.program import TestProgram
from ..kernel.clock import DEFAULT_BOOT_NS
from ..vm.machine import RECEIVER, Machine
from .trace_ast import Path, build_trace_ast, nondet_paths_from_runs

#: Boot offsets (seconds added to the default boot time) for the re-runs.
#: Chosen to differ pairwise at second granularity *and* modulo small
#: divisors, so periodic background state (conntrack churn) also varies.
DEFAULT_OFFSET_SECONDS: Tuple[int, ...] = (0, 7, 101)


def offsets_to_boot_ns(offsets: Sequence[int]) -> Tuple[int, ...]:
    return tuple(DEFAULT_BOOT_NS + s * 1_000_000_000 for s in offsets)


class NondetStore:
    """Cache of non-determinism marks, keyed by program hash + offsets.

    One store serves every detector of a campaign: a verdict computed
    on any machine is valid for all of them (they restore the same
    snapshot).  Each process shard works on its own forked copy, whose
    memory entries die with the shard.  Verdicts are keyed by
    the boot-offset schedule as well as the program hash — marks
    computed under one offset set say nothing about another.  The empty
    offsets key (the default) keeps the single-key API and on-disk
    layout backward compatible.  Disk writes go through a temp file +
    ``os.replace`` so concurrent writers can never expose a torn file;
    a damaged file (a crash mid-write, a foreign file) reads as a miss,
    and the recomputed verdict's ``put`` rewrites it.
    """

    def __init__(self, directory: Optional[str] = None):
        self._directory = directory
        self._memory: Dict[Tuple[str, str], FrozenSet[Path]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def get(self, program_hash: str,
            offsets_key: str = "") -> Optional[FrozenSet[Path]]:
        key = (program_hash, offsets_key)
        with self._lock:
            marks = self._memory.get(key)
            if marks is None:
                marks = self._load(program_hash, offsets_key)
            if marks is None:
                self.misses += 1
                return None
            self._memory[key] = marks
            self.hits += 1
            return marks

    def put(self, program_hash: str, marks: FrozenSet[Path],
            offsets_key: str = "") -> None:
        key = (program_hash, offsets_key)
        with self._lock:
            self._memory[key] = marks
            if self._directory is None:
                return
            file_path = self._file_for(program_hash, offsets_key)
            # Forked shards share the directory and their main threads
            # share an ident, so the pid keeps their temp files apart.
            tmp_path = f"{file_path}.tmp.{os.getpid()}.{threading.get_ident()}"
            with open(tmp_path, "w") as handle:
                json.dump(sorted(list(path) for path in marks), handle)
            os.replace(tmp_path, file_path)

    def _load(self, program_hash: str,
              offsets_key: str) -> Optional[FrozenSet[Path]]:
        """The marks on disk, or None when absent or not a list of
        int lists (a torn or foreign file is a miss, never a verdict)."""
        if self._directory is None:
            return None
        file_path = self._file_for(program_hash, offsets_key)
        if not os.path.exists(file_path):
            return None
        try:
            with open(file_path) as handle:
                raw = json.load(handle)
        except ValueError:
            return None
        if not isinstance(raw, list) or not all(
                isinstance(path, list)
                and all(type(step) is int for step in path)
                for path in raw):
            return None
        return frozenset(tuple(path) for path in raw)

    def _file_for(self, program_hash: str, offsets_key: str = "") -> str:
        stem = program_hash if not offsets_key else f"{program_hash}.{offsets_key}"
        return os.path.join(self._directory, f"{stem}.nondet.json")

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
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
        # offset schedule is part of the cache key (empty for the
        # default schedule, keeping the on-disk layout stable).
        self._offsets_key = ("" if tuple(offsets) == DEFAULT_OFFSET_SECONDS
                             else "-".join(str(s) for s in offsets))
        self.runs_executed = 0

    @property
    def store(self) -> NondetStore:
        return self._store

    def nondet_paths(self, program: TestProgram) -> FrozenSet[Path]:
        cached = self._store.get(program.hash_hex, self._offsets_key)
        if cached is not None:
            return cached
        trees = []
        for boot_ns in self._boot_offsets:
            self._machine.reset(boot_offset_ns=boot_ns)
            result = self._machine.run(RECEIVER, program)
            trees.append(build_trace_ast(result.records))
            self.runs_executed += 1
        marks = nondet_paths_from_runs(trees)
        self._store.put(program.hash_hex, marks, self._offsets_key)
        return marks
