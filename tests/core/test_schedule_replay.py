"""Deterministic schedule replay (satellite 1).

The contract under test is the tentpole of the scheduling subsystem: a
``ScheduleId`` is a complete, portable name for one interleaving.  The
same id against the same kernel reproduces the receiver's trace
byte-for-byte — across fresh machines, campaign re-runs, process-mode
shard pools, fault injection, and journal round-trips — and the
sequential schedule (``seq`` / the empty preemption set) reproduces the
classic two-phase execution exactly.  A light slice runs in tier-1; the
heavier sweeps are behind ``-m schedules``.
"""

from __future__ import annotations

import itertools

import pytest

from repro import cli
from repro.core.race_scenarios import (
    race_campaign_config,
    race_machine_config,
    race_scenarios,
    reproduce_races,
)
from repro.core.reportcodec import encode_record
from repro.core.schedule import (
    ALL_STRATEGIES,
    GRANULARITY_KFUNC,
    GRANULARITY_SYSCALL,
    SEQUENTIAL,
    STRATEGY_PCT,
    STRATEGY_RANDOM,
    STRATEGY_SYSTEMATIC,
    ScheduleId,
    SchedulePolicy,
    measure_horizon,
    replay_schedule,
    run_interleaved,
    schedule_points,
)
from repro.core.pipeline import Kit
from repro.faults.plan import FaultPlan
from repro.vm import fork_available
from repro.vm.machine import Machine, RECEIVER, SENDER

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="process shards require fork")


def _encoded(records):
    return [encode_record(record) for record in records]


def _signature(result):
    """Everything a re-run must reproduce byte-for-byte."""
    return (sorted(result.bugs_found()),
            sorted(report.render() for report in result.reports),
            {report.culprit_schedule for report in result.reports},
            result.groups.agg_rs_count,
            dict(result.stats.outcomes))


# -- ScheduleId: the name is the schedule -------------------------------------


class TestScheduleId:
    def test_encode_parse_round_trip(self):
        for strategy, granularity in itertools.product(
                ALL_STRATEGIES, (GRANULARITY_KFUNC, GRANULARITY_SYSCALL)):
            schedule = ScheduleId(strategy=strategy, granularity=granularity,
                                  seed=7, depth=2, index=13)
            assert ScheduleId.parse(schedule.encode()) == schedule

    def test_sequential_is_the_special_case(self):
        assert ScheduleId(strategy=SEQUENTIAL).encode() == "seq"
        assert ScheduleId.parse("seq").strategy == SEQUENTIAL

    @pytest.mark.parametrize("bad", [
        "", "pct", "pct:k:11:3", "pct:k:11:3:7:9", "bogus:k:1:1:0",
        "pct:x:1:1:0", "pct:k:one:3:7",
    ])
    def test_malformed_ids_rejected(self, bad):
        with pytest.raises(ValueError):
            ScheduleId.parse(bad)

    def test_points_are_a_pure_function_of_id_and_horizon(self):
        for strategy in (STRATEGY_PCT, STRATEGY_RANDOM):
            for index in range(6):
                schedule = ScheduleId(strategy=strategy, index=index)
                first = schedule_points(schedule, 20)
                assert first == schedule_points(schedule, 20)
                assert first <= frozenset(range(1, 21))
        assert schedule_points(ScheduleId(strategy=SEQUENTIAL), 20) \
            == frozenset()

    def test_pct_places_exactly_depth_points(self):
        for depth in (1, 2, 3):
            schedule = ScheduleId(depth=depth, index=4)
            assert len(schedule_points(schedule, 20)) == depth
        # Depth clamps to the horizon when the program is tiny.
        assert len(schedule_points(ScheduleId(depth=3), 2)) == 2

    def test_systematic_enumerates_without_repeats_then_exhausts(self):
        seen = set()
        index = 0
        while True:
            schedule = ScheduleId(strategy=STRATEGY_SYSTEMATIC, depth=2,
                                  index=index)
            points = schedule_points(schedule, 4)
            if points is None:
                break
            assert points not in seen
            seen.add(points)
            index += 1
        # C(4,1) + C(4,2) distinct point sets.
        assert len(seen) == 4 + 6

    def test_policy_dedupes_and_respects_budget(self):
        policy = SchedulePolicy(budget=24)
        ids = policy.schedule_ids(20)
        assert 0 < len(ids) <= 24
        point_sets = [points for _, points in ids]
        assert len(point_sets) == len(set(point_sets))
        assert frozenset() not in point_sets


# -- the sequential schedule IS the two-phase harness -------------------------


class TestSequentialParity:
    def test_empty_point_set_equals_two_phase_order(self):
        scenario = race_scenarios()["T1"]
        machine = Machine(race_machine_config())
        machine.reset()
        sender_seq = machine.run(SENDER, scenario.sender)
        receiver_seq = machine.run(RECEIVER, scenario.receiver)
        sender_int, receiver_int = run_interleaved(
            machine, scenario.sender, scenario.receiver, frozenset())
        assert _encoded(sender_int.records) == _encoded(sender_seq.records)
        assert _encoded(receiver_int.records) == _encoded(receiver_seq.records)

    def test_seq_id_replays_the_two_phase_receiver(self):
        for scenario in race_scenarios().values():
            machine = Machine(race_machine_config())
            machine.reset()
            machine.run(SENDER, scenario.sender)
            receiver_seq = machine.run(RECEIVER, scenario.receiver)
            replayed = replay_schedule(machine, scenario.sender,
                                       scenario.receiver, "seq")
            assert _encoded(replayed.records) == _encoded(receiver_seq.records)


# -- culprit replay: byte-for-byte, everywhere --------------------------------


@pytest.fixture(scope="module")
def interleaved_result():
    return reproduce_races()


class TestCulpritReplay:
    def test_campaign_finds_races_only_under_interleaving(
            self, interleaved_result):
        assert sorted(interleaved_result.bugs_found()) == ["T1", "T2", "T3"]
        assert all(report.culprit_schedule is not None
                   for report in interleaved_result.reports)
        assert interleaved_result.stats.interleaved_reports == 3
        assert interleaved_result.stats.schedules_executed > 0

    def test_every_culprit_replays_byte_identically(self, interleaved_result):
        machine = Machine(race_machine_config())
        for report in interleaved_result.reports:
            first = replay_schedule(machine, report.case.sender,
                                    report.case.receiver,
                                    report.culprit_schedule)
            second = replay_schedule(machine, report.case.sender,
                                     report.case.receiver,
                                     report.culprit_schedule)
            assert _encoded(first.records) == _encoded(second.records)
            assert _encoded(first.records) \
                == _encoded(report.receiver_with_records)

    def test_every_witness_not_just_the_culprit_is_named(
            self, interleaved_result):
        machine = Machine(race_machine_config())
        for report in interleaved_result.reports:
            assert report.culprit_schedule in report.witnesses
            for encoded in report.witnesses:
                # Each witness id parses and re-derives a real schedule.
                schedule = ScheduleId.parse(encoded)
                horizon = measure_horizon(machine, report.case.sender,
                                          schedule.granularity)
                assert schedule_points(schedule, horizon)

    def test_campaign_rerun_is_deterministic(self, interleaved_result):
        assert _signature(reproduce_races()) \
            == _signature(interleaved_result)

    @needs_fork
    def test_process_shards_reach_the_same_culprits(self, interleaved_result):
        sharded = Kit(race_campaign_config(
            workers=2, shard_mode="process")).run()
        assert _signature(sharded) == _signature(interleaved_result)

    def test_journal_round_trip_and_cli_repro(self, tmp_path,
                                              interleaved_result):
        """The culprit survives the store and ``kit-repro repro`` verifies
        it replays byte-identically from the journal alone."""
        store_dir = str(tmp_path)
        stored = Kit(race_campaign_config(store_dir=store_dir)).run()
        assert _signature(stored) == _signature(interleaved_result)
        assert cli.main(["repro", store_dir, stored.stats.campaign_id]) == 0
        resumed = Kit(race_campaign_config(store_dir=store_dir,
                                           resume=True)).run()
        assert _signature(resumed) == _signature(interleaved_result)
        assert resumed.stats.resumed_cases == resumed.stats.cases_total


# -- chaos: schedule exploration under fault injection ------------------------


class TestScheduleChaos:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_chaos_campaign_reaches_identical_culprits(
            self, seed, interleaved_result):
        plan = FaultPlan(seed=seed, rate=0.15)
        result = Kit(race_campaign_config(faults=plan, workers=2)).run()
        assert _signature(result) == _signature(interleaved_result)
        assert result.stats.faults_accounted(), plan.stats.snapshot()
        assert result.stats.faults_injected_total() > 0

    @needs_fork
    @pytest.mark.schedules
    @pytest.mark.parametrize("seed", [0, 1])
    def test_chaos_process_sweep(self, seed, interleaved_result):
        plan = FaultPlan(seed=seed, rate=0.15)
        result = Kit(race_campaign_config(faults=plan, workers=2,
                                          shard_mode="process")).run()
        assert _signature(result) == _signature(interleaved_result)
        assert result.stats.faults_accounted(), plan.stats.snapshot()
        assert result.stats.faults_injected_total() > 0


# -- the full strategy sweep (deselected by default) --------------------------


@pytest.mark.schedules
@pytest.mark.parametrize("strategy", sorted(ALL_STRATEGIES))
def test_strategy_sweep_replays(strategy):
    """Every strategy's witnesses replay byte-for-byte."""
    result = Kit(race_campaign_config(
        schedule_strategy=strategy, schedule_budget=64)).run()
    machine = Machine(race_machine_config())
    for report in result.reports:
        replayed = replay_schedule(machine, report.case.sender,
                                   report.case.receiver,
                                   report.culprit_schedule)
        assert _encoded(replayed.records) \
            == _encoded(report.receiver_with_records)
