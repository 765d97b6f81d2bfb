"""Standalone table-shape assertions: `pytest tests/` alone must verify
the paper's qualitative claims, independent of the benchmark harness.

Each class mirrors one evaluation table at a reduced scale (see
EXPERIMENTS.md for the full paper-vs-measured discussion; the
benchmarks regenerate the actual tables).
"""

import pytest

from repro.core import (
    ColumnarAccessIndex,
    Detector,
    Profiler,
    TestCaseGenerator,
    default_specification,
    strategy_by_name,
)
from repro.core.known_bugs import SCENARIOS, TABLE3_ROWS, reproduce_known_bug
from repro.core.oracle import classify_all
from repro.core.pipeline import CampaignConfig, Kit
from repro.corpus import build_corpus
from repro.kernel import linux_5_13
from repro.kernel.namespaces import ISOLATED_RESOURCE, NamespaceType
from repro.vm import Machine, MachineConfig

_NUMBERED = set("123456789")


@pytest.fixture(scope="module")
def corpus():
    # 200 matches the benchmark calibration (benchmarks/support.py):
    # large enough that timing-noise candidates reach execution.
    return build_corpus(200, seed=1)


@pytest.fixture(scope="module")
def campaign(corpus):
    config = CampaignConfig(machine=MachineConfig(bugs=linux_5_13()),
                            corpus=list(corpus))
    return Kit(config).run()


class TestTable1Shape:
    def test_eight_namespace_types(self):
        assert len(list(NamespaceType)) == 8
        assert len(ISOLATED_RESOURCE) == 8


class TestTable2Shape:
    def test_nine_bugs_found(self, campaign):
        assert _NUMBERED <= campaign.bugs_found()

    def test_every_bug_diagnosed_to_a_culprit_pair(self, campaign):
        for report in campaign.reports:
            if classify_all(report) & _NUMBERED:
                assert report.culprit_pairs


class TestTable3Shape:
    def test_five_of_seven_detected(self):
        detected = sum(reproduce_known_bug(bug_id).detected
                       for bug_id in SCENARIOS)
        assert detected == len(TABLE3_ROWS) == 5


class TestTable4Shape:
    def test_cluster_counts_grow_with_context(self, corpus):
        machine = Machine(MachineConfig(bugs=linux_5_13()))
        profiles = Profiler(machine).profile_corpus(corpus)
        with ColumnarAccessIndex.build(iter(profiles),
                                       default_specification()) as index:
            generator = TestCaseGenerator(corpus, index)
            counts = [generator.generate(strategy_by_name(name)).cluster_count
                      for name in ("df-ia", "df-st-1", "df-st-2")]
            flows = index.total_flow_count()
        assert counts == sorted(counts)
        assert flows > 10 * counts[-1], "DF must dwarf every clustering"

    def test_rand_is_a_strict_subset(self, corpus, campaign):
        budget = 8 * campaign.stats.cases_total
        config = CampaignConfig(machine=MachineConfig(bugs=linux_5_13()),
                                corpus=list(corpus), strategy="rand",
                                rand_budget=budget, diagnose=False)
        rand = Kit(config).run()
        assert rand.bugs_found() & _NUMBERED < _NUMBERED


class TestTable5Shape:
    def test_filtering_funnel_monotone(self, campaign):
        stats = campaign.stats
        assert stats.cases_total >= stats.initial_reports \
            >= stats.after_nondet >= stats.after_resource
        assert stats.after_resource == len(campaign.reports)

    def test_nondet_filter_does_work(self, campaign):
        assert campaign.stats.outcomes.get("nondet", 0) > 0


class TestTable6Shape:
    def test_aggregation_compresses(self, campaign):
        groups = campaign.groups
        assert groups.agg_r_count <= groups.agg_rs_count < \
            len(campaign.reports) + 1
        assert groups.agg_rs_count < campaign.stats.cases_total

    def test_most_bugs_collapse_to_few_groups(self, campaign):
        by_label = {}
        for (receiver_sig, __), members in campaign.groups.agg_rs.items():
            for member in members:
                for label in classify_all(member) & _NUMBERED:
                    by_label.setdefault(label, set()).add(receiver_sig)
        for label, receivers in by_label.items():
            assert len(receivers) <= 3, (label, receivers)


class TestSection65Shape:
    def test_four_profiling_runs_per_program(self, campaign):
        assert campaign.stats.profile_runs == 4 * campaign.stats.corpus_size

    def test_execution_throughput_positive(self, campaign):
        assert campaign.stats.executions_per_second() > 0
