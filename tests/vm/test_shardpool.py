"""Multiprocess shard pool: granted chunks, supervision, determinism.

The single-shard forms of the supervision contracts; the multi-shard
forms live in ``tests/faults/test_cluster_recovery.py``.  Worker-site
fault schedules key on ``job_id + attempt * 1_000_003``
(no per-process counter stream — forked children inherit the parent's
counters, so occurrence indexing is what keeps scheduled faults firing
exactly once across shards); ``schedule={SITE: {0}}`` therefore means
"while running job 0, attempt 0".
"""

from __future__ import annotations

import time

import pytest

from repro.faults.plan import (
    SITE_RESULT_DROP,
    SITE_WORKER_CRASH,
    SITE_WORKER_KILL,
    FaultPlan,
)
from repro.faults.retry import RetryPolicy
from repro.kernel import linux_5_13
from repro.vm import MachineConfig, Machine, fork_available, run_sharded
from repro.vm.shardpool import _ATTEMPT_STRIDE

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process shards require fork")

CONFIG = MachineConfig(bugs=linux_5_13())


def test_results_merge_in_job_order():
    report = run_sharded(CONFIG, list(range(8)),
                         lambda machine, payload: payload + 100, workers=2)
    assert [r.outcome for r in report.results] == [i + 100 for i in range(8)]
    assert [r.job_id for r in report.results] == list(range(8))
    assert report.rounds == 1
    assert report.shards_spawned == 2 and report.shards_died == 0


def test_before_wait_runs_between_landed_results():
    """The supervisor calls before_wait only when it is about to block:
    the hook sees every result that landed before it, and runs while
    the shards still have work, not once at the end."""
    landed, seen = [], []

    def slow(machine, payload):
        time.sleep(0.02)
        return payload

    report = run_sharded(
        CONFIG, list(range(8)), slow, workers=2,
        on_result=lambda job, result: landed.append(job.job_id),
        before_wait=lambda: seen.append(len(landed)))
    assert [r.outcome for r in report.results] == list(range(8))
    assert seen == sorted(seen)
    assert any(0 < count < 8 for count in seen), seen


def test_pool_never_exceeds_job_count():
    report = run_sharded(CONFIG, [1, 2], lambda machine, payload: payload,
                         workers=8)
    assert report.shards_spawned == 2
    assert [r.outcome for r in report.results] == [1, 2]


def test_empty_payloads_short_circuit():
    report = run_sharded(CONFIG, [], lambda machine, payload: payload,
                         workers=2)
    assert report.results == [] and report.rounds == 0


def test_every_job_runs_exactly_once(tmp_path):
    """A job is granted to one shard per round.  The count comes from
    the runner itself: the merged results would hide a double grant."""
    log = tmp_path / "runs.log"

    def runner(machine, payload):
        time.sleep(0.002 * (payload % 3))
        with open(log, "a") as handle:
            handle.write(f"{payload}\n")
        return payload

    report = run_sharded(CONFIG, list(range(30)), runner, workers=3)
    assert [r.outcome for r in report.results] == list(range(30))
    assert sorted(int(line) for line in log.read_text().split()) \
        == list(range(30))
    assert {r.worker for r in report.results} == {0, 1, 2}
    assert report.shards_died == 0


def test_slow_shard_runs_only_its_first_chunk(tmp_path):
    """Job 0 blocks until the last job has run, so the other shard
    drains the whole ungranted queue: the shard holding job 0 runs only
    its first chunk of ⌈12 / (2 × 2)⌉ = 3 jobs."""
    marker = tmp_path / "last-job-ran"

    def runner(machine, payload):
        if payload == 0:
            deadline = time.monotonic() + 10
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            return marker.exists()
        if payload == 11:
            marker.write_text("ran")
        return payload

    report = run_sharded(CONFIG, list(range(12)), runner, workers=2)
    assert [r.outcome for r in report.results] == [True, *range(1, 12)]
    holder = report.results[0].worker
    assert [r.job_id for r in report.results if r.worker == holder] \
        == [0, 1, 2]


def test_dead_shard_requeues_only_its_own_chunk():
    """8 jobs on 2 shards: first chunks of ⌈8 / 4⌉ = 2.  Shard 0 crashes
    on job 0; shard 1 keeps draining the queue in the same round, so
    the replacement shards run only the dead shard's chunk {0, 1}."""
    plan = FaultPlan(seed=0, schedule={SITE_WORKER_CRASH: {0}})
    report = run_sharded(CONFIG, list(range(8)),
                         lambda machine, payload: payload, workers=2,
                         faults=plan,
                         retry_policy=RetryPolicy(budget=1, poison_after=0))
    assert [r.outcome for r in report.results] == list(range(8))
    assert report.rounds == 2 and report.shards_died == 1
    # Worker ids 0 and 1 ran the first round; replacements get fresh ids.
    assert {r.job_id for r in report.results if r.worker >= 2} == {0, 1}
    assert plan.stats.accounted()


def test_stolen_ranges_preserve_result_identity():
    """Chunk grants redistribute *where* jobs run, never what they
    produce — byte-identical outcomes to a single shard."""

    def skewed(machine, payload):
        if payload % 3 == 0:
            time.sleep(0.02)
        return (payload, payload * payload)

    single = run_sharded(CONFIG, list(range(10)), skewed, workers=1)
    pooled = run_sharded(CONFIG, list(range(10)), skewed, workers=3)
    assert [r.outcome for r in single.results] \
        == [r.outcome for r in pooled.results]


def test_crash_schedule_recovery():
    plan = FaultPlan(seed=0, schedule={SITE_WORKER_CRASH: {0}})
    report = run_sharded(CONFIG, list(range(4)),
                         lambda machine, payload: payload + 1, workers=1,
                         faults=plan,
                         retry_policy=RetryPolicy(budget=1, poison_after=0))
    assert [r.outcome for r in report.results] == [1, 2, 3, 4]
    assert report.shards_died == 1 and report.rounds == 2
    # The replacement shard got a fresh worker id (ids never recycle).
    assert all(r.worker != 0 for r in report.results)
    # Results carry the retry ledger: the crashed job's one failed
    # attempt and its cause; the others ran clean.
    crashed, *clean = report.results
    assert (crashed.attempts, crashed.last_fault_site) \
        == (1, SITE_WORKER_CRASH)
    assert all((r.attempts, r.last_fault_site) == (0, None) for r in clean)
    assert plan.stats.recovered.get(SITE_WORKER_CRASH) == 1
    assert plan.stats.accounted()


def test_kill_schedule_recovery_and_accounting():
    """worker.kill SIGKILLs the shard mid-job; the supervisor charges
    exactly the announced job and keeps the campaign ledger balanced
    (the dead process's own counters are lost with it)."""
    plan = FaultPlan(seed=0, schedule={SITE_WORKER_KILL: {1}})
    report = run_sharded(CONFIG, list(range(4)),
                         lambda machine, payload: payload * 10, workers=2,
                         faults=plan,
                         retry_policy=RetryPolicy(budget=1, poison_after=0))
    assert [r.outcome for r in report.results] == [0, 10, 20, 30]
    assert report.shards_died == 1
    # The killed job re-ran on a replacement shard (ids 0 and 1 ran the
    # first round).
    assert report.results[1].worker >= 2
    assert plan.stats.injected.get(SITE_WORKER_KILL) == 1
    assert plan.stats.recovered.get(SITE_WORKER_KILL) == 1
    assert plan.stats.accounted()


def test_retried_attempt_draws_a_fresh_fault_decision():
    # Schedule the crash for job 0 on attempt 0 AND attempt 1: both
    # occurrences fire, the third attempt completes.
    plan = FaultPlan(seed=0, schedule={
        SITE_WORKER_CRASH: {0, _ATTEMPT_STRIDE}})
    report = run_sharded(CONFIG, [7], lambda machine, payload: payload,
                         workers=1, faults=plan,
                         retry_policy=RetryPolicy(budget=2, poison_after=0))
    assert report.results[0].outcome == 7
    assert report.shards_died == 2 and report.rounds == 3
    assert plan.stats.recovered.get(SITE_WORKER_CRASH) == 2
    assert plan.stats.accounted()


def test_death_with_no_retries_raises_by_default():
    """With no retries the crashed job comes back unfinished; its
    ``JobResult`` names its attempts and last cause (the pipeline
    raises on it without a fault plan)."""
    plan = FaultPlan(seed=0, schedule={SITE_WORKER_CRASH: {0}})
    report = run_sharded(CONFIG, list(range(3)),
                         lambda machine, payload: payload,
                         workers=1, faults=plan,
                         retry_policy=RetryPolicy(budget=0, poison_after=0))
    unfinished = [r for r in report.results if r.error is not None]
    assert [r.job_id for r in unfinished] == [0]
    assert (unfinished[0].attempts, unfinished[0].last_fault_site) \
        == (1, SITE_WORKER_CRASH)
    assert "exhausted after 1 failed attempt(s)" in unfinished[0].error
    assert [r.outcome for r in report.results] == [None, 1, 2]
    assert plan.stats.accounted()


def test_kill_storm_degrades_gracefully_when_not_strict():
    plan = FaultPlan(seed=0, rates={SITE_WORKER_KILL: 1.0})
    report = run_sharded(CONFIG, ["only-job"],
                         lambda machine, payload: payload, workers=1,
                         faults=plan,
                         retry_policy=RetryPolicy(budget=2, poison_after=0))
    assert len(report.results) == 1
    assert report.results[0].outcome is None
    assert "exhausted after 3 failed attempt(s)" \
        in report.results[0].error
    assert plan.stats.infra_failed.get(SITE_WORKER_KILL) == 3
    assert plan.stats.accounted()


def test_dropped_result_is_requeued_and_recovered():
    plan = FaultPlan(seed=0, schedule={SITE_RESULT_DROP: {0}})
    report = run_sharded(CONFIG, list(range(3)),
                         lambda machine, payload: payload * 3, workers=1,
                         faults=plan,
                         retry_policy=RetryPolicy(budget=1, poison_after=0))
    assert [r.outcome for r in report.results] == [0, 3, 6]
    assert plan.stats.recovered.get(SITE_RESULT_DROP) == 1
    assert plan.stats.accounted()


def test_genuine_job_exception_is_not_retried():
    """Retries cover infrastructure faults, not deterministic job bugs;
    a single round proves no retry round ever ran."""

    def runner(machine, payload):
        if payload == 1:
            raise ValueError("deterministic bug")
        return payload

    report = run_sharded(CONFIG, [0, 1, 2], runner, workers=1,
                         faults=FaultPlan(seed=0),
                         retry_policy=RetryPolicy(budget=5, poison_after=0))
    assert report.rounds == 1
    assert "ValueError" in report.results[1].error
    assert report.results[0].outcome == 0
    assert report.results[2].outcome == 2


def test_boot_failure_charges_nothing_until_pool_cannot_boot(tmp_path):
    """A shard that dies *booting* never touched its range: the jobs
    re-queue and the respawned shard (whose boot succeeds) runs them."""
    flag = tmp_path / "boot-failed-once"

    def flaky_boot():
        if not flag.exists():
            flag.write_text("x")
            raise RuntimeError("transient boot failure")
        return Machine(CONFIG)

    report = run_sharded(CONFIG, list(range(3)),
                         lambda machine, payload: payload + 5, workers=1,
                         boot=flaky_boot,
                         retry_policy=RetryPolicy(budget=1, poison_after=0))
    assert [r.outcome for r in report.results] == [5, 6, 7]
    assert report.rounds == 2 and report.shards_died == 1


def test_pool_that_can_never_boot_raises():
    """Every round charges every job when no shard boots, so the run
    ends with each job unfinished and the boot error in its result."""
    def broken_boot():
        raise RuntimeError("no machine for you")

    report = run_sharded(CONFIG, list(range(2)),
                         lambda machine, payload: payload, workers=2,
                         boot=broken_boot,
                         retry_policy=RetryPolicy(budget=1, poison_after=0))
    assert [r.job_id for r in report.results] == [0, 1]
    for result in report.results:
        assert result.outcome is None and not result.poisoned
        assert result.attempts == 2
        assert "bootx2" in result.error
        assert "no machine for you" in result.error


def test_telemetry_hook_collects_from_retired_shards():
    report = run_sharded(CONFIG, list(range(6)),
                         lambda machine, payload: payload, workers=2,
                         telemetry_hook=lambda m: m.cluster_worker_id)
    assert sorted(report.telemetry) == [0, 1]


def test_killed_shard_ships_no_telemetry():
    plan = FaultPlan(seed=0, schedule={SITE_WORKER_KILL: {0}})
    report = run_sharded(CONFIG, list(range(4)),
                         lambda machine, payload: payload, workers=2,
                         faults=plan,
                         retry_policy=RetryPolicy(budget=1, poison_after=0),
                         telemetry_hook=lambda m: m.cluster_worker_id)
    # Worker 0 was SIGKILLed; only cleanly-retired shards report.
    assert 0 not in report.telemetry
    assert len(report.telemetry) >= 1
