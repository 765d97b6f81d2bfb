"""Per-program kernel profiling (paper §4.1.1, §6.5).

"KIT executes each test program four times… KIT executes each test
program twice in both the sender and receiver container.  In one
execution KIT collects the system call trace and in another execution it
collects the execution trace… Two trace collections have to run
separately as collecting execution traces using instrumentation may
affect the system call trace."

Every run restores the VM snapshot first, so profiles are functions of
the program alone (the stable execution environment of §4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..corpus.program import TestProgram
from ..faults.plan import FaultPlan, call_with_fault_retries
from ..kernel.ktrace import KernelTracer, MemAccess
from ..vm.executor import (CallAccesses, SyscallRecord, decode_record,
                           encode_record)
from ..vm.machine import RECEIVER, SENDER, Machine
from .factstore import FactStore


@dataclass
class ContainerProfile:
    """One container's view of a program: syscall trace + memory accesses."""

    records: List[Optional[SyscallRecord]]
    accesses: List[Optional[CallAccesses]]

    def total_accesses(self) -> int:
        return sum(len(a) for a in self.accesses if a is not None)

    def to_json(self) -> Dict[str, Any]:
        return {"records": [encode_record(r) for r in self.records],
                "accesses": [None if call is None else
                             [[a.addr, a.width, a.is_write, a.ip, list(stack)]
                              for a, stack in call]
                             for call in self.accesses]}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ContainerProfile":
        return cls([decode_record(r) for r in data["records"]],
                   [None if call is None else
                    [(MemAccess(addr, width, is_write, ip), tuple(stack))
                     for addr, width, is_write, ip, stack in call]
                    for call in data["accesses"]])


@dataclass
class ProgramProfile:
    """Both containers' profiles of one test program."""

    index: int
    program: TestProgram
    sender: ContainerProfile
    receiver: ContainerProfile


def _decode_profile(data: Dict[str, Any]) -> List[ContainerProfile]:
    return [ContainerProfile.from_json(data["sender"]),
            ContainerProfile.from_json(data["receiver"])]


class Profiler:
    """Runs the 4-execution profiling protocol against a machine.

    With a fact *store*, a program profiled before on the same machine
    fingerprint is read back instead of re-run.
    """

    def __init__(self, machine: Machine, store: Optional[FactStore] = None):
        self._machine = machine
        self.store = store
        self.runs_executed = 0

    def profile(self, program: TestProgram, index: int = 0) -> ProgramProfile:
        store = self.store
        cached = (None if store is None else
                  store.get(program.hash_hex, "profile", _decode_profile))
        if cached is not None:
            # The corpus index is campaign-relative, so it is not stored.
            return ProgramProfile(index, program, *cached)
        profile = ProgramProfile(
            index=index,
            program=program,
            sender=self._profile_container(SENDER, program),
            receiver=self._profile_container(RECEIVER, program),
        )
        if store is not None:
            store.put(program.hash_hex, "profile",
                      {"sender": profile.sender.to_json(),
                       "receiver": profile.receiver.to_json()})
        return profile

    def _profile_container(self, container: str,
                           program: TestProgram) -> ContainerProfile:
        machine = self._machine
        # Run 1: plain syscall trace, no instrumentation attached.
        machine.reset()
        plain = machine.run(container, program)
        self.runs_executed += 1
        # Run 2: execution trace under instrumentation.
        machine.reset()
        machine.attach_tracer(KernelTracer())
        traced = machine.run(container, program, profile=True)
        machine.attach_tracer(None)
        self.runs_executed += 1
        return ContainerProfile(records=plain.records,
                                accesses=traced.accesses or [])

    def profile_corpus(self, corpus: Sequence[TestProgram]) -> List[ProgramProfile]:
        return [self.profile(program, index) for index, program in enumerate(corpus)]


def profile_range(profiler: Profiler, corpus: Sequence[TestProgram],
                  start: int, stop: int,
                  faults: Optional[FaultPlan] = None
                  ) -> Iterator[ProgramProfile]:
    """Profile ``corpus[start:stop]`` on *profiler*, in corpus order.

    Profiles feed generation, so there is no graceful degradation: an
    injected fault retries the whole (pure) profiling run from a fresh
    restore, and exhaustion raises; a skipped profile would change the
    generated case set.
    """
    for index in range(start, stop):
        yield call_with_fault_retries(faults, profiler.profile,
                                      corpus[index], index,
                                      context=f"profile {index}")


def profile_corpus_distributed(
        profilers: Sequence[Profiler], corpus: Sequence[TestProgram],
        faults: Optional[FaultPlan] = None) -> List[ProgramProfile]:
    """Profile *corpus* on one pool thread per profiler.

    Profiles are pure functions of (program, snapshot), and every
    profiler's machine restores the same snapshot, so splitting the
    corpus is semantics-preserving.  Thread ``k`` profiles the ``k``-th
    of ``len(profilers)`` contiguous corpus ranges on ``profilers[k]``
    alone: no two threads share a profiler, a machine or a list, so
    nothing here takes a lock.  Results come back in corpus order, and
    the pool is shut down before this returns, so no thread outlives it.
    """
    if not corpus:
        return []
    # Imported here: concurrent.futures costs ~9 ms, which every
    # in-process campaign would otherwise pay at ``import repro``.
    from concurrent.futures import ThreadPoolExecutor

    count = len(profilers)
    bounds = [len(corpus) * k // count for k in range(count + 1)]

    def run(k: int) -> List[ProgramProfile]:
        return list(profile_range(profilers[k], corpus, bounds[k],
                                  bounds[k + 1], faults))

    with ThreadPoolExecutor(max_workers=count,
                            thread_name_prefix="kit-profile") as pool:
        ranges = list(pool.map(run, range(count)))
    return [profile for chunk in ranges for profile in chunk]
