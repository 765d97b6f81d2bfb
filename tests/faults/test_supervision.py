"""Self-healing supervision: the retry policy, poison pairs, hang watchdog.

Covers the :class:`~repro.faults.retry.RetryPolicy` configuration
itself, the shard supervisor (:mod:`repro.vm.shardpool`), and the
pipeline's one decision about what a failed job becomes:
``Outcome.POISONED``, ``infra_failed`` under a fault plan, or an error.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.core import pipeline
from repro.core.detection import Detector
from repro.core.generation import TestCaseGenerator
from repro.core.pipeline import CampaignConfig, Kit
from repro.corpus import build_corpus
from repro.faults.plan import (
    SITE_RESULT_DROP,
    SITE_SCHED_PREEMPT,
    SITE_WORKER_KILL,
    FaultPlan,
    SchedulePreemptInjected,
)
from repro.faults.retry import (
    CAUSE_BOOT,
    CAUSE_WORKER_DEATH,
    RetryPolicy,
    describe_failures,
    tally,
)
from repro.kernel import linux_5_13
from repro.store import (
    RECORD_ATTEMPT,
    RECORD_CASE,
    RECORD_END,
    RECORD_POISONED,
    scan,
)
from repro.vm import fork_available
from repro.vm.machine import MachineConfig
from repro.vm.shardpool import run_sharded

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="process shards require fork")

MACHINE = MachineConfig(bugs=linux_5_13())


class TestRetryPolicy:
    def test_exhausted_cause(self):
        policy = RetryPolicy(budget=2)
        assert policy.exhausted_cause({"worker.kill": 2}) is None
        assert policy.exhausted_cause({"worker.kill": 3}) == "worker.kill"
        # The budget holds per cause, not for the sum of causes.
        assert policy.exhausted_cause(
            {"result.drop": 2, "worker.kill": 2}) is None
        assert policy.exhausted_cause(
            {"result.drop": 3, "worker.kill": 2}) == "result.drop"

    def test_poison_threshold(self):
        policy = RetryPolicy(poison_after=3)
        assert not policy.should_poison(2)
        assert policy.should_poison(3)
        assert not RetryPolicy(poison_after=0).should_poison(100)

    def test_describe_and_tally(self):
        ledger = {}
        tally(ledger, CAUSE_WORKER_DEATH)
        tally(ledger, CAUSE_WORKER_DEATH)
        tally(ledger, CAUSE_BOOT)
        assert describe_failures(ledger) == "bootx1, worker.deathx2"
        assert describe_failures({}) == "no attributed causes"


def _deadly_runner(kill_payloads, flag_dir=None):
    """A case runner that takes its shard down on selected payloads.

    *kill_payloads* maps payload -> how many attempts die before one
    succeeds (None = every attempt dies).  Raising ``SystemExit`` ends
    the shard process, so the supervisor sees a genuine worker death,
    not an injected fault.  Attempts are counted with marker files
    under *flag_dir*: each attempt runs in a freshly forked shard, so
    in-memory counters would not survive the death.
    """

    def attempt_number(payload):
        seen = len([name for name in os.listdir(flag_dir)
                    if name.startswith(f"{payload}.")])
        with open(os.path.join(flag_dir, f"{payload}.{seen}"), "w"):
            pass
        return seen + 1

    def runner(machine, payload):
        if payload not in kill_payloads:
            return f"done:{payload}"
        budget = kill_payloads[payload]
        if budget is None or attempt_number(payload) <= budget:
            raise SystemExit(f"worker shot by {payload!r}")
        return f"done:{payload}"

    return runner


@needs_fork
class TestThreadSupervision:
    """Deaths the case runner causes on its own (``SystemExit``, a
    frozen process) rather than fault-plan injections.  The class keeps
    the name it had when these cases ran on the thread cluster; they now
    run on the shard supervisor, which took over every contract."""

    def test_poison_pair_quarantined(self):
        policy = RetryPolicy(budget=50, poison_after=2)
        report = run_sharded(
            MACHINE, ["ok", "poison"], _deadly_runner({"poison": None}),
            workers=2, retry_policy=policy)
        assert report.results[0].outcome == "done:ok"
        poisoned = report.results[1]
        assert poisoned.poisoned
        assert poisoned.outcome is None
        assert "poisoned: killed 2 worker(s)" in poisoned.error
        assert f"{CAUSE_WORKER_DEATH}x2" in poisoned.error

    def test_per_site_budget_exhausts_to_infra(self):
        policy = RetryPolicy(budget=1, poison_after=0)
        report = run_sharded(
            MACHINE, ["victim"], _deadly_runner({"victim": None}),
            workers=1, retry_policy=policy)
        result = report.results[0]
        assert not result.poisoned
        assert f"retry budget for {CAUSE_WORKER_DEATH!r} exhausted" \
            in result.error
        assert result.last_fault_site == CAUSE_WORKER_DEATH

    def test_result_carries_attempts_and_cause(self, tmp_path):
        report = run_sharded(
            MACHINE, ["flaky", "ok"],
            _deadly_runner({"flaky": 1}, flag_dir=str(tmp_path)),
            workers=2, retry_policy=RetryPolicy(budget=3, poison_after=0))
        flaky, ok = report.results
        assert flaky.outcome == "done:flaky"
        assert flaky.attempts == 1
        assert flaky.last_fault_site == CAUSE_WORKER_DEATH
        assert ok.attempts == 0
        assert ok.last_fault_site is None

    def test_strict_error_names_attempts_and_cause(self):
        """The unfinished job's result names its attempts and last
        cause: what the pipeline raises with when no plan is set."""
        report = run_sharded(
            MACHINE, ["victim"], _deadly_runner({"victim": None}),
            workers=1, retry_policy=RetryPolicy(budget=1, poison_after=0))
        [result] = report.results
        assert result.outcome is None and not result.poisoned
        assert result.attempts == 2
        assert result.last_fault_site == CAUSE_WORKER_DEATH
        assert "exhausted after 2 failed attempt(s)" in result.error
        assert "worker shot by 'victim'" in result.error

    def test_prior_deaths_seed_quarantine(self):
        """Deaths journaled by earlier runs keep counting: one more
        kill tips an almost-quarantined pair over the edge."""
        policy = RetryPolicy(budget=50, poison_after=5)
        report = run_sharded(
            MACHINE, ["poison"], _deadly_runner({"poison": None}),
            workers=1, retry_policy=policy,
            prior_deaths={0: 4})
        assert report.results[0].poisoned
        assert "killed 5 worker(s)" in report.results[0].error

    def test_hang_watchdog_abandons_silent_worker(self, tmp_path):
        """A shard that freezes outright (SIGSTOP: nothing arrives from
        it any more) is written off by the watchdog; its job is retried
        on a replacement and still completes."""
        flag = str(tmp_path / "already-frozen")

        def runner(machine, payload):
            if payload == "hang" and not os.path.exists(flag):
                with open(flag, "w") as handle:
                    handle.write("x")
                os.kill(os.getpid(), signal.SIGSTOP)
            return f"done:{payload}"

        report = run_sharded(
            MACHINE, ["a", "hang", "b"], runner, workers=2,
            retry_policy=RetryPolicy(budget=3, poison_after=0),
            hang_timeout=0.5)
        assert [r.outcome for r in report.results] == ["done:a", "done:hang",
                                                       "done:b"]
        assert len(report.hung_shards) == 1
        hang_result = report.results[1]
        assert hang_result.attempts == 1
        assert hang_result.last_fault_site == CAUSE_WORKER_DEATH

    def test_no_hang_timeout_means_no_watchdog(self):
        def runner(machine, payload):
            time.sleep(0.2)
            return payload

        report = run_sharded(MACHINE, ["a", "b"], runner, workers=2)
        assert [r.outcome for r in report.results] == ["a", "b"]
        assert report.hung_shards == []
        assert report.shards_died == 0

    def test_silent_deaths_poison_the_pair(self):
        """A runner that ``os._exit``s on every attempt dies without a
        word, alone in its round after the first: its shard's ``up``
        message still pins each death on the pair, which is poisoned
        after ``poison_after`` deaths instead of burning a retry
        budget."""
        def runner(machine, payload):
            if payload == "poison":
                os._exit(3)
            return f"done:{payload}"

        report = run_sharded(
            MACHINE, ["a", "poison", "b"], runner, workers=2,
            retry_policy=RetryPolicy(poison_after=3))
        a, poisoned, b = report.results
        assert (a.outcome, b.outcome) == ("done:a", "done:b")
        assert poisoned.poisoned
        assert "poisoned: killed 3 worker(s)" in poisoned.error
        assert f"{CAUSE_WORKER_DEATH}x3" in poisoned.error
        assert report.shards_died == 3

    def test_one_silent_death_charges_only_its_job(self, tmp_path):
        """The only shard dies silently in its first job, before any
        result: that job alone is charged, as a worker death, and the
        rest of the chunk re-queues uncharged."""
        flag = str(tmp_path / "already-died")

        def runner(machine, payload):
            if payload == "a" and not os.path.exists(flag):
                with open(flag, "w") as handle:
                    handle.write("x")
                os._exit(3)
            return f"done:{payload}"

        report = run_sharded(
            MACHINE, ["a", "b", "c"], runner, workers=1,
            retry_policy=RetryPolicy(budget=3, poison_after=0))
        assert [r.outcome for r in report.results] \
            == ["done:a", "done:b", "done:c"]
        assert [r.attempts for r in report.results] == [1, 0, 0]
        assert report.results[0].last_fault_site == CAUSE_WORKER_DEATH

    def test_shard_with_hang_timeout_runs_one_thread(self):
        """The watchdog needs nothing from the shard but its messages:
        a shard runs on its main thread alone."""
        report = run_sharded(
            MACHINE, ["a", "b", "c"],
            lambda machine, payload: threading.active_count(),
            workers=2, hang_timeout=5.0)
        assert [r.outcome for r in report.results] == [1, 1, 1]

    def test_steady_progress_outlives_hang_timeout(self):
        """Each result resets the watchdog: a shard whose chunk takes
        longer than the timeout, one short job at a time, is never
        killed."""
        def runner(machine, payload):
            time.sleep(0.1)
            return payload

        # One shard, 12 jobs: the first chunk alone is 6 jobs (0.6 s).
        report = run_sharded(MACHINE, list(range(12)), runner, workers=1,
                             hang_timeout=0.5)
        assert [r.outcome for r in report.results] == list(range(12))
        assert report.hung_shards == []
        assert report.shards_died == 0


@needs_fork
class TestProcessSupervision:
    def test_injected_kills_never_poison(self):
        """An injected kill says nothing about the pair: every attempt
        is SIGKILLed, yet the job exhausts its ``worker.kill`` budget
        instead of being quarantined after ``poison_after`` kills."""
        plan = FaultPlan(seed=0, rates={SITE_WORKER_KILL: 1.0})
        policy = RetryPolicy(budget=3, poison_after=2)
        report = run_sharded(MACHINE, ["only"],
                             lambda machine, payload: payload,
                             workers=1, faults=plan, retry_policy=policy)
        [result] = report.results
        assert not result.poisoned
        assert result.attempts == 4
        assert result.last_fault_site == SITE_WORKER_KILL
        assert "retry budget for 'worker.kill' exhausted after 4 " \
            "failed attempt(s) (worker.killx4)" in result.error
        assert "injected SIGKILL holding job 0" in result.error
        assert plan.stats.injected == {SITE_WORKER_KILL: 4}
        assert plan.stats.infra_failed == {SITE_WORKER_KILL: 4}
        assert plan.stats.accounted()

    def test_real_death_after_a_dropped_result_is_a_worker_death(
            self, tmp_path):
        """The first attempt's result is dropped; every later attempt
        exits the shard.  Each death is charged as a worker death, not
        to the drop charged before it."""
        flag = str(tmp_path / "ran-once")

        def runner(machine, payload):
            if os.path.exists(flag):
                os._exit(3)
            with open(flag, "w") as handle:
                handle.write("x")
            return payload

        plan = FaultPlan(seed=0, schedule={SITE_RESULT_DROP: {0}})
        report = run_sharded(MACHINE, ["only"], runner, workers=1,
                             faults=plan, retry_policy=RetryPolicy(budget=1))
        [result] = report.results
        assert result.outcome is None and not result.poisoned
        assert result.last_fault_site == CAUSE_WORKER_DEATH
        assert f"retry budget for {CAUSE_WORKER_DEATH!r} exhausted after " \
            "3 failed attempt(s) (result.dropx1, worker.deathx2)" \
            in result.error
        assert plan.stats.infra_failed == {SITE_RESULT_DROP: 1}
        assert plan.stats.accounted()

    def test_hung_shard_reaped_and_job_retried(self, tmp_path):
        """A shard stuck on one job past the timeout is SIGKILLed; the
        job completes on a respawned shard."""
        flag = str(tmp_path / "already-hung")

        def runner(machine, payload):
            if payload == "hang" and not os.path.exists(flag):
                with open(flag, "w") as handle:
                    handle.write("x")
                time.sleep(30.0)
            return f"done:{payload}"

        report = run_sharded(
            MACHINE, ["a", "hang", "b"], runner, workers=2,
            retry_policy=RetryPolicy(budget=3, poison_after=0),
            hang_timeout=0.5)
        assert [r.outcome for r in report.results] \
            == ["done:a", "done:hang", "done:b"]
        assert len(report.hung_shards) == 1
        hang_result = report.results[1]
        assert hang_result.attempts == 1
        assert hang_result.last_fault_site == CAUSE_WORKER_DEATH


KERNEL_5_13 = MachineConfig(bugs=linux_5_13())


def _case_records(store_dir, result):
    """The journal's case records, with first-write-wins duplicates."""
    replay = scan(os.path.join(store_dir, result.stats.campaign_id,
                               "journal.jsonl"))
    return replay.by_type(RECORD_CASE), replay.duplicates


class TestPipelinePoisonAccounting:
    @needs_fork
    def test_kill_storm_quarantines_every_pair_process_mode(self, tmp_path):
        """Graceful degradation under a kill storm: every attempt
        SIGKILLs its shard.  Injected kills never quarantine a pair, so
        each one exhausts its ``worker.kill`` budget and degrades to
        ``infra_failed``; the journal holds one case record per pair
        and no ``attempt`` or ``poisoned`` record."""
        plan = FaultPlan(seed=0, rates={SITE_WORKER_KILL: 1.0})
        config = CampaignConfig(
            machine=KERNEL_5_13, corpus_size=6, strategy="rand",
            rand_budget=6, workers=2, faults=plan, diagnose=False,
            store_dir=str(tmp_path))
        result = Kit(config).run()
        attempts = RetryPolicy().budget + 1
        assert result.reports == []
        assert result.stats.outcomes == {"infra_failed": 6}
        assert result.stats.poisoned_cases == 0
        assert result.stats.faults_injected == {SITE_WORKER_KILL: 6 * attempts}
        assert result.stats.faults_infra == {SITE_WORKER_KILL: 6 * attempts}
        assert result.stats.faults_accounted(), plan.stats.snapshot()
        assert result.bugs_found() == set()
        records, duplicates = _case_records(str(tmp_path), result)
        assert len({record["k"] for record in records}) == len(records) == 6
        assert {record["outcome"] for record in records} == {"infra_failed"}
        assert duplicates == 0
        replay = scan(os.path.join(str(tmp_path), result.stats.campaign_id,
                                   "journal.jsonl"))
        assert replay.by_type(RECORD_ATTEMPT) == []
        assert replay.by_type(RECORD_POISONED) == []


def _last_scheduled_pair(config):
    """The last job of the affinity schedule: the largest
    sender/receiver hash pair of *config*'s random cases."""
    corpus = build_corpus(config.corpus_size, seed=config.corpus_seed)
    cases = TestCaseGenerator(corpus).generate_random(
        config.rand_budget, seed=config.rand_seed).test_cases
    return max((case.sender.hash_hex, case.receiver.hash_hex)
               for case in cases)


def _sabotage_one_pair(monkeypatch, config, action):
    """Make the case runner call *action* instead of checking one pair
    (:func:`_last_scheduled_pair`).  Forked shards inherit the patch."""
    target = _last_scheduled_pair(config)
    check = pipeline._CaseRunner.__call__

    def sabotaged(runner, machine, case):
        if (case.sender.hash_hex, case.receiver.hash_hex) == target:
            action()
        return check(runner, machine, case)

    monkeypatch.setattr(pipeline._CaseRunner, "__call__", sabotaged)


def _six_case_config(**overrides):
    return CampaignConfig(machine=KERNEL_5_13, corpus_size=6,
                          strategy="rand", rand_budget=6, diagnose=False,
                          **overrides)


class TestPipelineSettlement:
    """What a failed shard job becomes is decided in one place, the
    same way with or without a store or a fault plan."""

    @needs_fork
    @pytest.mark.parametrize("stored", [False, True],
                             ids=["no-store", "store"])
    def test_poison_pair_completes_the_campaign(self, monkeypatch,
                                                tmp_path, stored):
        """A pair that kills its shard on every attempt is quarantined
        after five deaths, and the campaign completes, with no fault
        plan; a stored run is sealed with its end record and
        ``result.json``."""
        config = _six_case_config(
            workers=2, store_dir=str(tmp_path) if stored else None)
        _sabotage_one_pair(monkeypatch, config, lambda: os._exit(3))
        result = Kit(config).run()
        outcomes = result.stats.outcomes
        assert outcomes.get("poisoned") == 1
        assert sum(outcomes.values()) == 6
        assert result.stats.poisoned_cases == 1
        assert result.stats.shards_died == RetryPolicy().poison_after
        if stored:
            path = os.path.join(str(tmp_path), result.stats.campaign_id)
            replay = scan(os.path.join(path, "journal.jsonl"))
            [end] = replay.by_type(RECORD_END)
            assert end["accounting"]["poisoned"] == 1
            assert os.path.exists(os.path.join(path, "result.json"))

    @needs_fork
    def test_cases_executed_counts_the_landed_verdicts(self, monkeypatch):
        """A dead shard's counters die with it, but the verdicts it
        landed count: the pair that kills its shard on every attempt is
        poisoned, and the five that landed count as executed."""
        config = _six_case_config(workers=2)
        _sabotage_one_pair(monkeypatch, config, lambda: os._exit(3))
        stats = Kit(config).run().stats
        assert stats.poisoned_cases == 1
        assert stats.cases_executed == stats.cases_total - 1 == 5

    @needs_fork
    def test_dead_shard_takes_its_unresolved_injections_with_it(
            self, monkeypatch):
        """One pair takes a scheduled ``sched.preempt`` and then exits
        its shard on the retry, inside the fault-retry wrapper, on every
        attempt.  Each dead shard's counters die with it, the injection
        it never resolved included, so the pair is poisoned, the other
        five land and the campaign's books balance."""
        plan = FaultPlan(seed=0, schedule={SITE_SCHED_PREEMPT: {0}})
        config = _six_case_config(workers=2, faults=plan)
        target = _last_scheduled_pair(config)
        check = Detector.check_case

        def preempted(detector, case):
            if (case.sender.hash_hex, case.receiver.hash_hex) == target:
                if plan.should_inject(SITE_SCHED_PREEMPT):
                    raise SchedulePreemptInjected(SITE_SCHED_PREEMPT)
                raise SystemExit("pair exits its shard")
            return check(detector, case)

        monkeypatch.setattr(Detector, "check_case", preempted)
        result = Kit(config).run()
        stats = result.stats
        assert stats.outcomes.get("poisoned") == 1
        assert sum(stats.outcomes.values()) == 6
        assert stats.faults_accounted(), (stats.faults_injected,
                                          stats.faults_recovered)

    @pytest.mark.parametrize("with_plan", [False, True],
                             ids=["no-plan", "plan"])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_case_runner_exception_fails_the_campaign(self, monkeypatch,
                                                      workers, with_plan):
        """A case runner that raises is a bug, never an infrastructure
        fault: the campaign fails at every worker count, with or
        without a fault plan, instead of recording ``infra_failed``."""
        if workers and not fork_available():
            pytest.skip("process shards require fork")
        config = _six_case_config(
            workers=workers, faults=FaultPlan(seed=0) if with_plan else None)

        def fail():
            raise ValueError("checker bug on one pair")

        _sabotage_one_pair(monkeypatch, config, fail)
        with pytest.raises((ValueError, RuntimeError),
                           match="checker bug on one pair"):
            Kit(config).run()

    @needs_fork
    @pytest.mark.parametrize("with_plan", [False, True],
                             ids=["no-plan", "plan"])
    def test_unbootable_pool_exhausts_every_job(self, monkeypatch,
                                                with_plan):
        """No shard ever boots, so every round charges every job until
        the default budget is spent: each case degrades to
        ``infra_failed`` under a plan, and without one the campaign
        fails naming the attempts, the last cause and the boot error."""
        def no_machine():
            raise RuntimeError("no machine for you")

        # Shard boot is the only caller of MachineStats in the pipeline.
        monkeypatch.setattr(pipeline, "MachineStats", no_machine)
        plan = FaultPlan(seed=0) if with_plan else None
        config = _six_case_config(workers=2, faults=plan)
        attempts = RetryPolicy().budget + 1
        if not with_plan:
            with pytest.raises(RuntimeError) as excinfo:
                Kit(config).run()
            message = str(excinfo.value)
            assert f"{attempts} attempt(s), last cause {CAUSE_BOOT}" \
                in message
            assert "no machine for you" in message
            return
        result = Kit(config).run()
        assert result.stats.outcomes == {"infra_failed": 6}
        assert result.stats.shards_died == 2 * attempts
        assert result.stats.faults_accounted(), plan.stats.snapshot()
