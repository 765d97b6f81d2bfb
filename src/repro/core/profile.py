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

import threading
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..corpus.program import TestProgram
from ..faults.plan import FaultPlan, call_with_fault_retries
from ..kernel.ktrace import KernelTracer
from ..vm.executor import CallAccesses, SyscallRecord
from ..vm.machine import RECEIVER, SENDER, Machine, MachineConfig


@dataclass
class ContainerProfile:
    """One container's view of a program: syscall trace + memory accesses."""

    records: List[Optional[SyscallRecord]]
    accesses: List[Optional[CallAccesses]]

    def total_accesses(self) -> int:
        return sum(len(a) for a in self.accesses if a is not None)


@dataclass
class ProgramProfile:
    """Both containers' profiles of one test program."""

    index: int
    program: TestProgram
    sender: ContainerProfile
    receiver: ContainerProfile


class Profiler:
    """Runs the 4-execution profiling protocol against a machine."""

    def __init__(self, machine: Machine):
        self._machine = machine
        self.runs_executed = 0

    def profile(self, program: TestProgram, index: int = 0) -> ProgramProfile:
        return ProgramProfile(
            index=index,
            program=program,
            sender=self._profile_container(SENDER, program),
            receiver=self._profile_container(RECEIVER, program),
        )

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


def profile_corpus_distributed(
        machine_config: MachineConfig, corpus: Sequence[TestProgram],
        workers: int, profile_dir: Optional[str] = None,
        faults: Optional[FaultPlan] = None,
) -> Tuple[List[ProgramProfile], List[Any], List[Machine]]:
    """Profile *corpus* on a pool of *workers* threads (one job per program).

    Profiles are pure functions of (program, snapshot), and every
    machine restores the same snapshot, so fanning the corpus out over
    the pool is semantics-preserving.  Each pool thread lazily boots its
    own machine and :class:`Profiler` (or :class:`~repro.core
    .profile_store.CachingProfiler` when *profile_dir* is set).  Profiles
    feed generation, so there is no graceful degradation: an injected
    fault retries the run from a fresh restore, and exhaustion raises.
    Results come back in corpus order regardless of scheduling, and the
    pool is shut down before this returns, so no thread outlives it.

    Returns ``(profiles, profilers, machines)`` so the caller can sum
    run counts and fold restore telemetry into the campaign stats.
    """
    # Imported here: concurrent.futures costs ~9 ms, which every
    # in-process campaign would otherwise pay at ``import repro``.
    from concurrent.futures import ThreadPoolExecutor

    local = threading.local()
    profilers: List[Any] = []
    machines: List[Machine] = []
    lock = threading.Lock()

    def profile(index: int, program: TestProgram) -> ProgramProfile:
        profiler = getattr(local, "profiler", None)
        if profiler is None:
            machine = Machine(machine_config)
            if profile_dir is not None:
                from .profile_store import CachingProfiler

                profiler = CachingProfiler(machine, profile_dir)
            else:
                profiler = Profiler(machine)
            local.profiler = profiler
            with lock:
                profilers.append(profiler)
                machines.append(machine)
        return call_with_fault_retries(faults, profiler.profile, program,
                                       index, context=f"profile {index}")

    pool_size = max(1, min(workers, len(corpus)))
    with ThreadPoolExecutor(max_workers=pool_size,
                            thread_name_prefix="kit-profile") as pool:
        profiles = list(pool.map(profile, range(len(corpus)), corpus))
    with lock:
        return profiles, list(profilers), list(machines)
