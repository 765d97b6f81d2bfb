"""KIT: Testing OS-Level Virtualization for Functional Interference Bugs.

A full-system Python reproduction of the ASPLOS 2023 paper by Liu, Gong,
and Fonseca.  The package splits the same way the system does:

* :mod:`repro.kernel` — the system under test: a simulated Linux kernel
  with namespaces, an instrumented memory arena, and the paper's bugs
  injected behind version presets.
* :mod:`repro.vm` — machines, snapshots, executors, and the process
  shard pool.
* :mod:`repro.corpus` — syzkaller-style test programs, seeds, and the
  random generator.
* :mod:`repro.core` — KIT itself: data-flow-guided test case generation,
  two-execution testing, trace-AST divergence detection with non-det and
  specification filtering, Algorithm-2 diagnosis, and report aggregation.
* :mod:`repro.faults` — deterministic, seed-driven fault injection and
  the chaos-recovery invariants the campaign substrate is tested under.

Quickstart::

    from repro import CampaignConfig, Kit, MachineConfig, linux_5_13

    config = CampaignConfig(machine=MachineConfig(bugs=linux_5_13()),
                            corpus_size=120)
    result = Kit(config).run()
    print(sorted(result.bugs_found()))
"""

from .core import (
    CampaignConfig,
    CampaignResult,
    CampaignStats,
    Detector,
    Diagnoser,
    Kit,
    Specification,
    TestCase,
    TestReport,
    default_specification,
)
from .corpus import TestProgram, build_corpus, prog, seed_programs
from .faults import (
    ALL_SITES,
    FaultPlan,
    FaultRetriesExhausted,
    FaultStats,
)
from .kernel import (
    BugFlags,
    Kernel,
    KernelConfig,
    fixed_kernel,
    known_bug_kernel,
    linux_5_13,
)
from .vm import ContainerConfig, Machine, MachineConfig

__version__ = "1.0.0"

__all__ = [
    "ALL_SITES",
    "BugFlags",
    "CampaignConfig",
    "CampaignResult",
    "CampaignStats",
    "ContainerConfig",
    "Detector",
    "Diagnoser",
    "FaultPlan",
    "FaultRetriesExhausted",
    "FaultStats",
    "Kernel",
    "KernelConfig",
    "Kit",
    "Machine",
    "MachineConfig",
    "Specification",
    "TestCase",
    "TestProgram",
    "TestReport",
    "__version__",
    "build_corpus",
    "default_specification",
    "fixed_kernel",
    "known_bug_kernel",
    "linux_5_13",
    "prog",
    "seed_programs",
]
