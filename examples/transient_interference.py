#!/usr/bin/env python3
"""Transient interference and controlled interleaving (§7).

KIT executes test cases in two phases: the whole sender program, then
the whole receiver program.  A sender that perturbs shared kernel state
and *restores it before finishing* is therefore invisible:

    sender:   r0 = socket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
              close(r0)          # the global counters are back to 0

The receiver's ``/proc/net/sockstat`` looks identical with and without
that sender — outcome ``pass`` — even though, for the socket's entire
lifetime, every other container could see the global counter move.

Controlled interleaving fixes the blind spot deterministically: the
detector replays the pair under a bounded set of schedules and reports
the *witness schedules*.  At ``syscall`` granularity a schedule is a set
of preemption points over the sender's call boundaries (1 = before its
first call, 3 = after its last); at each point the next receiver call
runs.  Only schedules that land a receiver sample between ``socket()``
and ``close()`` observe the bump.

Run:  python examples/transient_interference.py
"""

from repro import Machine, MachineConfig, linux_5_13
from repro.core import (
    Detector,
    NondetAnalyzer,
    TestCase,
    default_specification,
)
from repro.core.schedule import (
    GRANULARITY_SYSCALL,
    SEQUENTIAL,
    STRATEGY_SYSTEMATIC,
    ScheduleExplorer,
    SchedulePolicy,
)
from repro.corpus import prog


def main() -> None:
    transient_sender = prog(("socket", 2, 1, 6), ("close", "r0"))
    double_probe = prog(("open", "/proc/net/sockstat", 0),
                        ("pread64", "r0", 512, 0),
                        ("pread64", "r0", 512, 0))
    case = TestCase(0, 1, transient_sender, double_probe)

    print("sender:   socket(AF_INET, SOCK_STREAM, TCP); close(r0)")
    print("receiver: open /proc/net/sockstat; pread64 x2\n")

    spec = default_specification()
    sequential = Detector(Machine(MachineConfig(bugs=linux_5_13())), spec)
    outcome = sequential.check_case(case)
    print(f"two-phase detector (paper §4.2 order, schedule "
          f"{SEQUENTIAL!r}): outcome = {outcome.outcome.value}")

    machine = Machine(MachineConfig(bugs=linux_5_13()))
    nondet = NondetAnalyzer(machine)
    policy = SchedulePolicy(strategy=STRATEGY_SYSTEMATIC,
                            granularity=GRANULARITY_SYSCALL)
    explorer = ScheduleExplorer(machine, spec, nondet, policy)
    interleaved = Detector(machine, spec, nondet, explorer=explorer)
    result = interleaved.check_case(case)
    explored = policy.schedule_ids(explorer.horizon(transient_sender))
    print(f"\nschedules explored: {result.schedules_run}")
    for schedule, points in explored:
        print(f"  {schedule.encode()}: preempt at {sorted(points)}")
    if result.report is None:
        print("no interference witnessed under any schedule")
        return
    print("witness schedules:")
    for schedule, calls in sorted(result.report.witnesses.items()):
        print(f"  {schedule}: receiver call(s) {calls} diverged")
    # Only sequentially clean cases are explored, so a culprit schedule
    # marks a report no two-phase run could have produced.
    print(f"\ntransient-only (invisible to the two-phase order): "
          f"{result.report.culprit_schedule is not None}")


if __name__ == "__main__":
    main()
