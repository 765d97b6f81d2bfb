"""Campaign restore/cache telemetry and distributed-order guarantees."""

from __future__ import annotations

import pytest

from repro.core import CampaignConfig, Kit
from repro.corpus.seeds import seed_programs
from repro.kernel import linux_5_13
from repro.vm import MachineConfig


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

    def test_prefix_memo_serves_diagnosis_reruns(self):
        stats = Kit(small_config()).run().stats
        assert stats.diagnosis_reruns > 0
        assert stats.diagnosis_prefix_reuses == stats.diagnosis_reruns


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
