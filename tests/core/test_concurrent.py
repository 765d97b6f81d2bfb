"""Transient interference under controlled interleaving (§7).

KIT's two-phase order (the whole sender, then the whole receiver) cannot
see a sender that perturbs shared kernel state and restores it before
it ends.  These tests drive :mod:`repro.core.schedule` at ``syscall``
granularity: the sender's event stream is one boundary before each of
its calls plus one after the last, and a schedule's preemption points
say at which boundaries the next receiver call runs.
"""

import pytest

from repro.core.detection import Detector, Outcome
from repro.core.generation import TestCase
from repro.core.nondet import NondetAnalyzer
from repro.core.schedule import (
    GRANULARITY_SYSCALL,
    SEQUENTIAL,
    STRATEGY_SYSTEMATIC,
    ScheduleExplorer,
    ScheduleId,
    SchedulePolicy,
    replay_schedule,
    run_interleaved,
    schedule_points,
)
from repro.core.spec import default_specification
from repro.corpus.program import prog
from repro.corpus.seeds import seed_programs
from repro.kernel import fixed_kernel, linux_5_13
from repro.vm import Machine, MachineConfig
from repro.vm.machine import SENDER

#: A sender whose interference is fully transient: the socket (and its
#: global accounting) is gone before the program ends.
TRANSIENT_SENDER = prog(("socket", 2, 1, 6), ("close", "r0"))

#: A receiver that samples the counters twice.
DOUBLE_PROBE = prog(("open", "/proc/net/sockstat", 0),
                    ("pread64", "r0", 512, 0),
                    ("pread64", "r0", 512, 0))


def _calls(count: int):
    return prog(*[("gethostname",)] * count)


@pytest.fixture(scope="module")
def order_of():
    """``order_of(sender_calls, receiver_calls, points)`` -> ``"SRSR…"``.

    The order in which :func:`run_interleaved` actually stepped the two
    programs under *points*, observed through the machine's stepped
    sessions.
    """
    machine = Machine(MachineConfig(bugs=fixed_kernel()))
    begin = machine.begin_stepped
    order = []

    def logged(container, program):
        session = begin(container, program)
        step = session.step

        def logged_step():
            advanced = step()
            if advanced:
                order.append("S" if container == SENDER else "R")
            return advanced

        session.step = logged_step
        return session

    machine.begin_stepped = logged

    def run(sender_calls, receiver_calls, points):
        order.clear()
        run_interleaved(machine, _calls(sender_calls), _calls(receiver_calls),
                        frozenset(points), GRANULARITY_SYSCALL)
        return "".join(order)

    return run


def _policy(**overrides) -> SchedulePolicy:
    return SchedulePolicy(strategy=STRATEGY_SYSTEMATIC,
                          granularity=GRANULARITY_SYSCALL, **overrides)


def _detector(bugs, **policy) -> Detector:
    machine = Machine(MachineConfig(bugs=bugs))
    spec = default_specification()
    nondet = NondetAnalyzer(machine)
    explorer = ScheduleExplorer(machine, spec, nondet, _policy(**policy))
    return Detector(machine, spec, nondet, explorer=explorer)


def _check(detector: Detector, sender, receiver):
    return detector.check_case(TestCase(0, 1, sender, receiver))


class TestSchedules:
    def test_sequential_shape(self, order_of):
        sequential = ScheduleId.parse(SEQUENTIAL)
        assert schedule_points(sequential, 3) == frozenset()
        assert order_of(2, 3, ()) == "SSRRR"

    def test_round_robin_alternates(self, order_of):
        assert order_of(2, 2, {2, 3}) == "SRSR"
        assert order_of(2, 2, {1, 2}) == "RSRS"

    def test_round_robin_receiver_lead(self, order_of):
        # Point 1 sits before the sender's first call.
        assert order_of(2, 3, {1}) == "RSSRR"
        assert order_of(2, 3, {1, 2}) == "RSRSR"

    def test_round_robin_exhausts_both_sides(self, order_of):
        policy = _policy(depth=2, budget=100)
        point_sets = [points for __, points in policy.schedule_ids(6)]
        assert len(point_sets) == 6 + 15
        for points in point_sets:
            schedule = order_of(5, 2, points)
            assert schedule.count("S") == 5 and schedule.count("R") == 2

    def test_default_set_contains_sequential(self):
        # The two-phase order is the detector's own first check, so the
        # explored set holds every other point set once.
        point_sets = [points for __, points in
                      _policy(budget=100).schedule_ids(3)]
        assert frozenset() not in point_sets
        assert len(set(point_sets)) == len(point_sets) == 7

    def test_default_set_covers_all_leads(self, order_of):
        point_sets = [sorted(points) for __, points in
                      _policy(budget=100).schedule_ids(2)]
        assert point_sets == [[1], [2], [1, 2]]
        orders = {order_of(1, 3, points) for points in point_sets}
        assert orders == {"RSRR", "SRRR"}
        # One receiver call per point: it can lead by one call, never
        # by all of them.
        assert "RRRS" not in orders


class TestConcurrentDetector:
    def test_transient_interference_missed_sequentially(self):
        machine = Machine(MachineConfig(bugs=linux_5_13()))
        detector = Detector(machine, default_specification())
        result = detector.check_case(
            TestCase(0, 1, TRANSIENT_SENDER, DOUBLE_PROBE))
        assert result.outcome is Outcome.PASS

    def test_transient_interference_caught_interleaved(self):
        detector = _detector(linux_5_13())
        result = _check(detector, TRANSIENT_SENDER, DOUBLE_PROBE)
        assert result.outcome is Outcome.REPORT
        report = result.report
        # Interleaved witnesses only: the sender socket must be alive
        # when the receiver samples.
        assert SEQUENTIAL not in report.witnesses
        assert report.culprit_schedule in report.witnesses
        replayed = replay_schedule(detector.machine, TRANSIENT_SENDER,
                                   DOUBLE_PROBE, report.culprit_schedule)
        assert replayed.records == report.receiver_with_records

    def test_persistent_interference_witnessed_sequentially_too(self):
        detector = _detector(linux_5_13())
        seeds = seed_programs()
        result = _check(detector, seeds["packet_socket"],
                        seeds["read_ptype"])
        assert result.outcome is Outcome.REPORT
        assert result.report.culprit_schedule is None
        assert result.schedules_run == 0

    def test_fixed_kernel_reports_nothing(self):
        detector = _detector(fixed_kernel())
        result = _check(detector, TRANSIENT_SENDER, DOUBLE_PROBE)
        assert result.outcome is Outcome.PASS
        assert result.schedules_run == 7

    def test_nondet_filter_applies_per_schedule(self):
        """A time-sensitive receiver must not produce schedule noise."""
        detector = _detector(fixed_kernel())
        noisy = prog(("open", "/proc/uptime", 0), ("pread64", "r0", 128, 0))
        result = _check(detector, seed_programs()["get_hostname"], noisy)
        assert result.schedules_run > 0
        assert result.outcome is not Outcome.REPORT

    def test_schedule_validation(self):
        machine = Machine(MachineConfig(bugs=linux_5_13()))
        for bad in ("sys:s:11:3", "sys:x:11:3:0", "bogus:s:11:3:0"):
            with pytest.raises(ValueError):
                ScheduleId.parse(bad)
        # Horizon 3 has seven non-empty point sets: index 7 is past them.
        with pytest.raises(ValueError):
            replay_schedule(machine, TRANSIENT_SENDER, DOUBLE_PROBE,
                            "sys:s:11:3:7")

    def test_custom_schedule_subset(self):
        # The first four ids are {1}, {2}, {3}, {1, 2}: only the last
        # lets a sample land between socket() and close().
        result = _check(_detector(linux_5_13(), budget=4),
                        TRANSIENT_SENDER, DOUBLE_PROBE)
        assert list(result.report.witnesses) == ["sys:s:11:3:3"]
        result = _check(_detector(linux_5_13(), budget=3),
                        TRANSIENT_SENDER, DOUBLE_PROBE)
        assert result.outcome is Outcome.PASS

    def test_schedule_accounting(self):
        for budget, expected in ((2, 2), (24, 7)):
            result = _check(_detector(linux_5_13(), budget=budget),
                            TRANSIENT_SENDER, DOUBLE_PROBE)
            assert result.schedules_run == expected

    def test_deterministic_witnesses(self):
        detector = _detector(linux_5_13())
        first = _check(detector, TRANSIENT_SENDER, DOUBLE_PROBE).report
        second = _check(detector, TRANSIENT_SENDER, DOUBLE_PROBE).report
        assert first.witnesses == second.witnesses
        assert first.culprit_schedule == second.culprit_schedule
