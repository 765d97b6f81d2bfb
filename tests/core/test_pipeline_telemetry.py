"""Campaign restore/cache telemetry and distributed-order guarantees."""

from __future__ import annotations

import pytest

from repro.core import CampaignConfig, CampaignStats, Kit
from repro.corpus.seeds import seed_programs
from repro.faults.plan import SITE_EXEC_TIMEOUT, SITE_WORKER_KILL, FaultPlan
from repro.kernel import linux_5_13
from repro.vm import MachineConfig, fork_available


def seed_list():
    return list(seed_programs().values())


def small_config(**overrides):
    base = dict(machine=MachineConfig(bugs=linux_5_13()),
                corpus=seed_list()[:16], strategy="df-ia")
    base.update(overrides)
    return CampaignConfig(**base)


class TestRestoreTelemetry:
    def test_sequential_campaign_counts_restores(self):
        stats = Kit(small_config()).run().stats
        assert stats.restore_count > 0
        assert stats.segments_restored > 0
        assert stats.segments_skipped > stats.segments_restored
        assert 0.0 < stats.segments_skipped_rate() < 1.0
        assert stats.restore_seconds > 0.0
        # Stage attribution sums to the campaign total.
        staged = (stats.profile_restore_seconds +
                  stats.execution_restore_seconds +
                  stats.diagnosis_restore_seconds)
        assert staged == pytest.approx(stats.restore_seconds)
        assert stats.profile_restore_seconds > 0.0
        assert stats.execution_restore_seconds > 0.0

    def test_cache_hit_rates_populated(self):
        stats = Kit(small_config()).run().stats
        assert stats.baseline_hits + stats.baseline_misses > 0
        assert stats.nondet_cache_hits + stats.nondet_cache_misses > 0
        assert 0.0 <= stats.baseline_hit_rate() <= 1.0
        assert 0.0 <= stats.nondet_cache_hit_rate() <= 1.0
        # Many cases share receiver programs, so baselines must hit.
        assert stats.baseline_hits > 0

    def test_distributed_telemetry_sums_workers(self):
        stats = Kit(small_config(workers=2, diagnose=False)).run().stats
        assert stats.restore_count > 0
        assert stats.execution_restore_seconds > 0.0
        assert stats.baseline_hits + stats.baseline_misses > 0


class TestSenderCacheTelemetry:
    def test_sender_cache_stats_populated(self):
        stats = Kit(small_config()).run().stats
        assert stats.sender_cache_hits + stats.sender_cache_misses > 0
        # Repeated senders in a 16-program corpus guarantee hits.
        assert stats.sender_cache_hits > 0
        assert 0.0 < stats.sender_cache_hit_rate() <= 1.0
        assert stats.sender_cache_entries > 0
        assert stats.sender_cache_bytes > 0

    def test_disabled_cache_reports_zeros(self):
        stats = Kit(small_config(sender_cache=False)).run().stats
        assert stats.sender_cache_hits == 0
        assert stats.sender_cache_misses == 0
        assert stats.sender_cache_entries == 0
        assert stats.sender_cache_bytes == 0
        assert stats.diagnosis_prefix_reuses == 0
        assert stats.sender_cache_hit_rate() == 0.0

    def test_distributed_bytes_attributed_to_workers(self):
        stats = Kit(small_config(workers=2, diagnose=False)).run().stats
        assert stats.sender_cache_hits + stats.sender_cache_misses > 0
        assert stats.sender_cache_bytes > 0

    def test_sender_cache_serves_diagnosis_reruns(self):
        """Reports sharing a sender re-run the same variants, so the
        cache serves some re-runs; a variant's first re-run misses."""
        stats = Kit(small_config()).run().stats
        assert 0 < stats.diagnosis_prefix_reuses < stats.diagnosis_reruns

    def test_every_diagnosis_rerun_looks_up_the_sender_cache(self):
        """Diagnosis adds one sender-cache lookup per re-run to the
        execution stage's lookups."""
        def lookups(stats):
            return stats.sender_cache_hits + stats.sender_cache_misses

        diagnosed = Kit(small_config()).run().stats
        undiagnosed = Kit(small_config(diagnose=False)).run().stats
        assert diagnosed.diagnosis_reruns > 0
        assert lookups(diagnosed) \
            == lookups(undiagnosed) + diagnosed.diagnosis_reruns


class TestCampaignStatsMerge:
    def test_merge_sums_numbers_and_per_key_counts(self):
        total = CampaignStats(campaign_id="c0ffee", shard_mode="process",
                              cases_executed=3, restore_seconds=0.5,
                              outcomes={"pass": 2},
                              faults_injected={SITE_WORKER_KILL: 1})
        total.merge(CampaignStats(cases_executed=4, restore_seconds=0.25,
                                  outcomes={"pass": 1, "report": 1},
                                  faults_injected={SITE_WORKER_KILL: 2,
                                                   "exec.timeout": 1}))
        assert total.cases_executed == 7
        assert total.restore_seconds == pytest.approx(0.75)
        assert total.outcomes == {"pass": 3, "report": 1}
        assert total.faults_injected == {SITE_WORKER_KILL: 3,
                                         "exec.timeout": 1}
        assert (total.campaign_id, total.shard_mode) == ("c0ffee", "process")


def rand_config(**overrides):
    """30 random pairs: no profiling, and no diagnosis, so every reset
    and every cache lookup belongs to the execution stage."""
    return CampaignConfig(machine=MachineConfig(bugs=linux_5_13()),
                          corpus_size=30, corpus_seed=1, strategy="rand",
                          rand_budget=30, diagnose=False, **overrides)


class TestShardRetirement:
    """Each shard's counters come home once, as one ``CampaignStats``
    merged into the campaign's, so every shard count is the serial
    loop's count."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_every_executed_case_counts_once(self, workers):
        stats = Kit(rand_config(workers=workers)).run().stats
        assert stats.cases_executed == stats.cases_total == 30
        assert stats.baseline_hits + stats.baseline_misses \
            == stats.cases_executed
        assert stats.sender_cache_hits + stats.sender_cache_misses \
            == stats.cases_executed

    @pytest.mark.skipif(not fork_available(),
                        reason="process shards require fork")
    def test_shard_faults_reach_the_campaign_books(self):
        """Every syscall runs in a shard, and each shard's occurrence
        counter starts at 0 (nothing ran before the fork), so each of
        the two shards times out its first three syscalls; the
        campaign's books hold all six injections, each one recovered
        by re-running its case."""
        plan = FaultPlan(seed=7, schedule={SITE_EXEC_TIMEOUT: {0, 1, 2}})
        stats = Kit(rand_config(workers=2, faults=plan)).run().stats
        assert stats.shard_mode == "process"
        assert stats.shards_spawned == 2
        assert stats.faults_injected == {SITE_EXEC_TIMEOUT: 6}
        assert stats.faults_recovered == {SITE_EXEC_TIMEOUT: 6}
        assert stats.faults_accounted()


class TestDistributedOrdering:
    def test_reports_keep_case_order_under_affinity_schedule(self):
        """The two-level (sender hash, receiver hash) sort must be
        invisible in the output order."""
        single = Kit(small_config(workers=0, diagnose=False)).run()
        distributed = Kit(small_config(workers=3, diagnose=False)).run()

        def case_keys(result):
            return [(r.case.sender.hash_hex, r.case.receiver.hash_hex)
                    for r in result.reports]

        assert case_keys(distributed) == case_keys(single)
        assert distributed.stats.outcomes == single.stats.outcomes
