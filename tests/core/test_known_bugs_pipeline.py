"""Integration tests: known-bug scenarios (Table 3) and full campaigns."""

from dataclasses import replace

import pytest

from repro.core.factstore import FactStore, machine_fingerprint
from repro.core.known_bugs import (
    SCENARIOS,
    TABLE3_ROWS,
    reproduce_known_bug,
    scenario_corpus,
    scenario_machine_config,
)
from repro.core.nondet import NondetAnalyzer, NondetStore
from repro.core.oracle import FALSE_POSITIVE, UNDER_INVESTIGATION
from repro.core.pipeline import CampaignConfig, Kit
from repro.corpus.generator import build_corpus
from repro.corpus.seeds import seed_list
from repro.kernel import fixed_kernel, linux_5_13
from repro.kernel.bugs import known_bug_kernel, race_kernel
from repro.kernel.namespaces import CLONE_NEWNS
from repro.vm import Machine, MachineConfig


class TestKnownBugScenarios:
    @pytest.mark.parametrize("bug_id", TABLE3_ROWS)
    def test_table3_rows_detected(self, bug_id):
        outcome = reproduce_known_bug(bug_id)
        assert outcome.detected, bug_id

    def test_bug_f_not_detected_for_the_right_reason(self):
        outcome = reproduce_known_bug("F")
        assert not outcome.detected
        # The divergence existed but was absorbed by the non-det filter.
        assert outcome.result.stats.outcomes.get("nondet", 0) >= 1

    def test_bug_g_not_detected(self):
        outcome = reproduce_known_bug("G")
        assert not outcome.detected
        # No raw divergence at all: the probe misses the runtime inode.
        assert outcome.result.stats.outcomes.get("report", 0) == 0

    def test_scenario_e_sender_runs_on_host(self):
        config = scenario_machine_config(SCENARIOS["E"])
        assert not config.sender.unshare_flags & CLONE_NEWNS
        assert config.receiver.unshare_flags & CLONE_NEWNS

    def test_scenario_kernel_versions(self):
        assert reproduce_known_bug("A").kernel_version == "4.4"

    def test_scenario_corpus_deduplicates(self):
        corpus = scenario_corpus(SCENARIOS["A"], extra=seed_list())
        hashes = [p.hash_hex for p in corpus]
        assert len(hashes) == len(set(hashes))

    def test_detection_requires_the_bug(self):
        """Running scenario A's corpus on a fixed kernel finds nothing."""
        scenario = SCENARIOS["A"]
        config = CampaignConfig(
            machine=MachineConfig(bugs=fixed_kernel()),
            corpus=scenario_corpus(scenario),
        )
        result = Kit(config).run()
        assert result.bugs_found() == set()

    def test_table3_holds_under_one_shared_cache(self, tmp_path):
        """One cache directory holds every scenario corpus's marks under
        every other preset's bugs, and no verdict moves: marks are keyed
        by the kernel as well as by the program.  Keyed by the program
        alone, the fixed kernel's empty marks for F's receiver let F's
        conntrack divergence through."""
        presets = {"5.13": linux_5_13(), "fixed": fixed_kernel(),
                   "race": race_kernel()}
        presets.update((bug_id, known_bug_kernel(bug_id))
                       for bug_id in SCENARIOS)
        cache = str(tmp_path)
        for bug_id, scenario in SCENARIOS.items():
            for name, bugs in presets.items():
                if name == bug_id:
                    continue
                machine = replace(scenario_machine_config(scenario),
                                  bugs=bugs)
                store = NondetStore(FactStore(cache,
                                              machine_fingerprint(machine)))
                analyzer = NondetAnalyzer(Machine(machine), store=store)
                for program in scenario_corpus(scenario):
                    analyzer.nondet_paths(program)
        detected = {}
        for bug_id, scenario in SCENARIOS.items():
            config = CampaignConfig(machine=scenario_machine_config(scenario),
                                    corpus=scenario_corpus(scenario),
                                    cache_dir=cache)
            detected[bug_id] = bug_id in Kit(config).run().bugs_found()
        assert detected == {bug_id: scenario.detectable
                            for bug_id, scenario in SCENARIOS.items()}


class TestCampaign:
    @pytest.fixture(scope="class")
    def seed_campaign(self):
        config = CampaignConfig(
            machine=MachineConfig(bugs=linux_5_13()),
            corpus=seed_list(),
            strategy="df-ia",
        )
        return Kit(config).run()

    def test_all_nine_table2_bugs_found(self, seed_campaign):
        assert set("123456789") <= seed_campaign.bugs_found()

    def test_table5_counters_are_monotone(self, seed_campaign):
        stats = seed_campaign.stats
        assert stats.cases_total >= stats.initial_reports
        assert stats.initial_reports >= stats.after_nondet
        assert stats.after_nondet >= stats.after_resource
        assert stats.after_resource == len(seed_campaign.reports)

    def test_outcome_counts_sum_to_cases(self, seed_campaign):
        stats = seed_campaign.stats
        assert sum(stats.outcomes.values()) == stats.cases_total

    def test_groups_do_not_exceed_reports(self, seed_campaign):
        groups = seed_campaign.groups
        reports = len(seed_campaign.reports)
        assert groups.agg_r_count <= groups.agg_rs_count <= reports

    def test_all_reports_diagnosed(self, seed_campaign):
        assert all(r.culprit_pairs for r in seed_campaign.reports)

    def test_generation_bookkeeping(self, seed_campaign):
        generation = seed_campaign.generation
        assert generation.strategy == "df-ia"
        assert generation.cluster_count >= len(generation.test_cases)
        assert generation.flow_count >= generation.cluster_count

    def test_fixed_kernel_campaign_is_clean(self):
        config = CampaignConfig(
            machine=MachineConfig(bugs=fixed_kernel()),
            corpus=seed_list(),
        )
        result = Kit(config).run()
        assert result.bugs_found() == set()
        # Imperfect-spec FPs (st_dev minors) may remain; that is the
        # paper's Table 6 FP column, not a bug finding.
        for label in result.labels():
            assert label in (FALSE_POSITIVE, UNDER_INVESTIGATION)

    def test_rand_strategy_runs_without_profiling(self):
        config = CampaignConfig(
            machine=MachineConfig(bugs=linux_5_13()),
            corpus=seed_list(),
            strategy="rand",
            rand_budget=30,
        )
        result = Kit(config).run()
        assert result.stats.profile_runs == 0
        assert result.stats.cases_total == 30

    def test_max_test_cases_cap(self):
        config = CampaignConfig(
            machine=MachineConfig(bugs=linux_5_13()),
            corpus=seed_list(),
            max_test_cases=5,
        )
        result = Kit(config).run()
        assert result.stats.cases_total <= 5

    def test_distributed_matches_single_machine(self):
        base = dict(machine=MachineConfig(bugs=linux_5_13()),
                    corpus=seed_list()[:20], strategy="df-ia")
        single = Kit(CampaignConfig(**base, workers=0)).run()
        distributed = Kit(CampaignConfig(**base, workers=3)).run()
        assert single.bugs_found() == distributed.bugs_found()
        assert single.stats.cases_total == distributed.stats.cases_total

    def test_generated_corpus_campaign(self):
        """A mixed seeds+random corpus still finds all nine bugs."""
        config = CampaignConfig(
            machine=MachineConfig(bugs=linux_5_13()),
            corpus=build_corpus(80, seed=11),
        )
        result = Kit(config).run()
        assert set("123456789") <= result.bugs_found()

    def test_nondet_disk_cache_reused(self, tmp_path):
        """The warm run skips every non-det re-run and reaches the cold
        run's verdicts: a cache hit and a recompute are equivalent."""
        base = dict(machine=MachineConfig(bugs=linux_5_13()),
                    corpus=seed_list()[:12], cache_dir=str(tmp_path))
        first = Kit(CampaignConfig(**base)).run()
        second = Kit(CampaignConfig(**base)).run()
        assert first.stats.nondet_runs > 0
        assert second.stats.nondet_runs == 0

        def culprits(result):
            return [(report.case.sender.hash_hex,
                     report.case.receiver.hash_hex, report.culprit_pairs)
                    for report in result.reports]

        assert first.reports
        assert second.stats.outcomes == first.stats.outcomes
        assert second.bugs_found() == first.bugs_found()
        assert len(second.reports) == len(first.reports)
        assert culprits(second) == culprits(first)
