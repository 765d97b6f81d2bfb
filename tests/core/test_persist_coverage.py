"""Tests for campaign persistence and corpus coverage accounting."""

import json

import pytest

from repro.core.aggregation import receiver_signature, sender_signature
from repro.core.coverage import CoverageReport, coverage_of_profiles
from repro.core.oracle import classify_all
from repro.core.persist import (
    campaign_from_dict,
    campaign_to_dict,
    load_campaign,
    save_campaign,
)
from repro.core.pipeline import CampaignConfig, Kit
from repro.core.profile import Profiler
from repro.corpus.seeds import seed_list, seed_programs
from repro.kernel import linux_5_13
from repro.vm import Machine, MachineConfig


@pytest.fixture(scope="module")
def campaign():
    config = CampaignConfig(
        machine=MachineConfig(bugs=linux_5_13()),
        corpus=seed_list(),
    )
    return Kit(config).run()


class TestPersistence:
    def test_roundtrip_preserves_labels(self, campaign, tmp_path):
        path = str(tmp_path / "campaign.json")
        save_campaign(campaign, path)
        loaded = load_campaign(path)
        assert loaded.bugs_found() == campaign.bugs_found()

    def test_roundtrip_preserves_stats(self, campaign, tmp_path):
        path = str(tmp_path / "campaign.json")
        save_campaign(campaign, path)
        loaded = load_campaign(path)
        assert loaded.stats == campaign.stats

    def test_roundtrip_preserves_report_contents(self, campaign, tmp_path):
        path = str(tmp_path / "campaign.json")
        save_campaign(campaign, path)
        loaded = load_campaign(path)
        for original, restored in zip(campaign.reports, loaded.reports):
            assert restored.case.sender == original.case.sender
            assert restored.case.receiver == original.case.receiver
            assert restored.interfered_indices == original.interfered_indices
            assert restored.culprit_pairs == original.culprit_pairs
            assert classify_all(restored) == classify_all(original)

    def test_reaggregation_matches(self, campaign, tmp_path):
        path = str(tmp_path / "campaign.json")
        save_campaign(campaign, path)
        loaded = load_campaign(path)
        assert loaded.groups.agg_r_count == campaign.groups.agg_r_count
        assert loaded.groups.agg_rs_count == campaign.groups.agg_rs_count
        for original, restored in zip(campaign.reports, loaded.reports):
            assert receiver_signature(restored) == receiver_signature(original)
            assert sender_signature(restored) == sender_signature(original)

    def test_reports_render_after_reload(self, campaign, tmp_path):
        path = str(tmp_path / "campaign.json")
        save_campaign(campaign, path)
        loaded = load_campaign(path)
        assert "functional interference report" in loaded.reports[0].render()

    def test_document_is_plain_json(self, campaign, tmp_path):
        path = str(tmp_path / "campaign.json")
        save_campaign(campaign, path)
        with open(path) as handle:
            data = json.load(handle)
        assert data["format_version"] == 1
        assert data["config"]["bugs_enabled"]

    def test_retired_prefilter_stats_still_load(self, campaign):
        # A document saved while the static pre-filter, or the
        # work-stealing shard dispatcher, existed carries their
        # counters; they are dropped, everything else loads.
        data = json.loads(json.dumps(campaign_to_dict(campaign)))
        data["stats"].update(prefilter_pairs_total=64,
                             prefilter_pairs_pruned=28,
                             prefilter_precision=0.8,
                             prefilter_recall=0.8,
                             steals_attempted=3,
                             steals_granted=2)
        loaded = campaign_from_dict(data)
        assert loaded.stats == campaign.stats
        assert loaded.bugs_found() == campaign.bugs_found()

    def test_unknown_version_rejected(self, campaign):
        data = campaign_to_dict(campaign)
        data["format_version"] = 99
        with pytest.raises(ValueError):
            campaign_from_dict(data)


class TestCoverage:
    @pytest.fixture(scope="class")
    def profiles(self):
        machine = Machine(MachineConfig(bugs=linux_5_13()))
        return Profiler(machine).profile_corpus(seed_list())

    def test_seed_corpus_covers_many_functions(self, profiles):
        report = coverage_of_profiles(profiles)
        assert len(report.functions) >= 30
        assert len(report.instructions) >= 60

    def test_shared_addresses_exist(self, profiles):
        report = coverage_of_profiles(profiles)
        assert report.shared_addresses

    def test_subsystem_rollup_names_net(self, profiles):
        report = coverage_of_profiles(profiles)
        names = dict(report.subsystem_summary())
        assert any(name.startswith("net/") for name in names)

    def test_function_names_resolve(self, profiles):
        report = coverage_of_profiles(profiles)
        assert any("socket_create" in name for name in report.function_names)

    def test_render_is_textual(self, profiles):
        text = coverage_of_profiles(profiles).render()
        assert "functions entered" in text
        assert "per-subsystem" in text

    def test_merge_is_union(self, profiles):
        first = coverage_of_profiles(profiles[:5])
        second = coverage_of_profiles(profiles[5:])
        merged = first.merge(second)
        full = coverage_of_profiles(profiles)
        assert merged.functions == full.functions
        assert merged.instructions == full.instructions

    def test_single_program_coverage_is_subset(self, profiles):
        one = coverage_of_profiles(profiles[:1])
        full = coverage_of_profiles(profiles)
        assert one.instructions <= full.instructions

    def test_empty_profiles(self):
        report = coverage_of_profiles([])
        assert not report.functions and not report.shared_addresses
