"""Shard supervision: job re-queue, shard death, cache isolation.

Multi-shard forms of the recovery contracts whose single-shard forms
live in ``tests/vm/test_shardpool.py``, plus the isolation that keeps a
dead shard's cache entries out of the campaign process.
"""

from __future__ import annotations

import pytest

from repro.core import pipeline
from repro.core.pipeline import CampaignConfig, Kit
from repro.faults.plan import SITE_RESULT_DROP, SITE_WORKER_KILL, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.kernel import linux_5_13
from repro.vm import MachineConfig, fork_available, run_sharded

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process shards require fork")

CONFIG = MachineConfig(bugs=linux_5_13())


def test_single_worker_death_then_recovery():
    """One kill beside a healthy shard, one re-queue, full results."""
    plan = FaultPlan(seed=0, schedule={SITE_WORKER_KILL: {0}})
    report = run_sharded(CONFIG, list(range(4)),
                         lambda machine, payload: payload + 100,
                         workers=2, faults=plan,
                         retry_policy=RetryPolicy(budget=1, poison_after=0))
    assert [r.outcome for r in report.results] == [100, 101, 102, 103]
    assert report.shards_died == 1 and report.rounds == 2
    # The replacement got a fresh id — dead ids are never recycled.
    assert all(r.worker != 0 for r in report.results)
    assert plan.stats.recovered.get(SITE_WORKER_KILL) == 1
    assert plan.stats.accounted()


def test_death_with_no_retries_raises_by_default():
    """With no retries, the dead shard's job comes back unfinished —
    its error, attempt and cause on its ``JobResult`` (the pipeline
    raises on it without a fault plan) — while a sibling shard
    completes its own range."""
    plan = FaultPlan(seed=0, schedule={SITE_WORKER_KILL: {0}})
    report = run_sharded(CONFIG, list(range(4)),
                         lambda machine, payload: payload,
                         workers=2, faults=plan,
                         retry_policy=RetryPolicy(budget=0, poison_after=0))
    unfinished = [r for r in report.results if r.error is not None]
    assert [r.job_id for r in unfinished] == [0]
    assert (unfinished[0].attempts, unfinished[0].last_fault_site) \
        == (1, SITE_WORKER_KILL)
    assert [r.outcome for r in report.results[1:]] == [1, 2, 3]
    assert plan.stats.accounted()


def test_dropped_result_is_requeued_and_recovered():
    plan = FaultPlan(seed=0, schedule={SITE_RESULT_DROP: {0}})
    report = run_sharded(CONFIG, list(range(6)),
                         lambda machine, payload: payload * 3,
                         workers=2, faults=plan,
                         retry_policy=RetryPolicy(budget=1, poison_after=0))
    assert [r.outcome for r in report.results] == [0, 3, 6, 9, 12, 15]
    assert plan.stats.recovered.get(SITE_RESULT_DROP) == 1
    assert plan.stats.accounted()


def test_genuine_job_exception_is_not_retried():
    """Retries cover infrastructure faults, not deterministic job bugs;
    a single round proves no retry round ever ran."""

    def runner(machine, payload):
        if payload == 1:
            raise ValueError("deterministic bug")
        return payload

    report = run_sharded(CONFIG, [0, 1, 2, 3], runner, workers=2,
                         faults=FaultPlan(seed=0),
                         retry_policy=RetryPolicy(budget=5, poison_after=0))
    assert report.rounds == 1
    assert "ValueError" in report.results[1].error
    assert [r.outcome for r in report.results] == [0, None, 2, 3]


# -- shard-local caches --------------------------------------------------------


def test_shard_cache_entries_never_reach_the_parent(monkeypatch):
    """Shards fill forked copies of the campaign caches, so entries a
    dead shard computed die with its process: the campaign's own caches
    stay empty however many shards die."""
    built = []
    real_caches = pipeline._Caches

    def capture(*args, **kwargs):
        caches = real_caches(*args, **kwargs)
        built.append(caches)
        return caches

    monkeypatch.setattr(pipeline, "_Caches", capture)
    plan = FaultPlan(seed=0, rate=0.2, sites=(SITE_WORKER_KILL,))
    result = Kit(CampaignConfig(machine=CONFIG, corpus_size=30,
                                corpus_seed=1, workers=2, diagnose=False,
                                faults=plan)).run()
    stats = result.stats
    assert stats.shards_died > 0
    assert sum(stats.outcomes.values()) == stats.cases_total
    assert stats.faults_accounted(), plan.stats.snapshot()
    [caches] = built
    assert len(caches.baselines) == 0
    assert len(caches.nondet) == 0
    assert len(caches.sender_states) == 0
