"""Merge-join pairing parity: the campaign's columnar join ≡ the reference.

Every data-flow campaign pairs through the on-disk columnar access
index.  Its load-bearing property: fed the same profiles, the streamed
merge-join must reproduce the in-memory reference
:class:`DataFlowIndex` *byte-for-byte* — identical overlap rows in
identical point order (generation's reservoir sampling consumes its RNG
in that order), hence an identical Table-4 pair set, and identical bug
fingerprints — across seeds and every Table-3 kernel.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.core import CampaignConfig, Kit
from repro.core.accessindex import ColumnarAccessIndex, stack_key
from repro.core.clustering import strategy_by_name
from repro.core.dataflow import DataFlowIndex
from repro.core.detection import Detector
from repro.core.diagnosis import Diagnoser
from repro.core.generation import TestCaseGenerator
from repro.core.known_bugs import SCENARIOS, TABLE3_ROWS, scenario_machine_config
from repro.core.oracle import FALSE_POSITIVE, UNDER_INVESTIGATION, classify_all
from repro.core.profile import Profiler
from repro.core.factstore import FactStore, machine_fingerprint
from repro.core.spec import default_specification
from repro.corpus import build_corpus
from repro.kernel import linux_5_13
from repro.vm import Machine, MachineConfig

CONFIGS = {"5.13": MachineConfig(bugs=linux_5_13())}
CONFIGS.update({row: scenario_machine_config(SCENARIOS[row])
                for row in TABLE3_ROWS})


@pytest.fixture(scope="module")
def profiled_513():
    corpus = build_corpus(40, seed=1)
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    profiles = Profiler(machine).profile_corpus(corpus)
    return corpus, profiles


def _columnar(profiles, run_points=64):
    # Tiny run_points so every test exercises multi-run heap merges.
    return ColumnarAccessIndex.build(iter(profiles), default_specification(),
                                     run_points=run_points)


def _reference(corpus, profiles):
    """TestCaseGenerator over the in-memory reference index."""
    return TestCaseGenerator(
        corpus, DataFlowIndex.build(profiles, default_specification()))


class _ProfilingGaveUp(Exception):
    pass


def _raising_after(profiles, count):
    """A profile stream that fails after *count* profiles."""
    yield from profiles[:count]
    raise _ProfilingGaveUp


class TestIndexParity:
    def test_overlap_rows_byte_identical(self, profiled_513):
        __, profiles = profiled_513
        mem = DataFlowIndex.build(profiles, default_specification())
        with _columnar(profiles) as col:
            assert list(mem.iter_overlaps()) == list(col.iter_overlaps())
            assert mem.total_flow_count() == col.total_flow_count()

    @pytest.mark.parametrize("run_points", [1, 16, 100000])
    def test_run_segmentation_never_changes_the_join(self, profiled_513,
                                                     run_points):
        __, profiles = profiled_513
        mem = DataFlowIndex.build(profiles, default_specification())
        with _columnar(profiles, run_points=run_points) as col:
            if run_points == 1:
                assert col.run_segments > 2
            assert list(mem.iter_overlaps()) == list(col.iter_overlaps())

    def test_index_is_reiterable(self, profiled_513):
        __, profiles = profiled_513
        with _columnar(profiles) as col:
            assert list(col.iter_overlaps()) == list(col.iter_overlaps())

    def test_unsealed_query_raises(self):
        index = ColumnarAccessIndex()
        with pytest.raises(RuntimeError):
            list(index.iter_overlaps())
        index.close()

    def test_close_removes_owned_directory(self, profiled_513):
        __, profiles = profiled_513
        col = _columnar(profiles)
        directory = col.directory
        assert os.path.isdir(directory) and col.bytes_on_disk() > 0
        col.close()
        assert not os.path.exists(directory)

    def test_close_empties_a_caller_directory(self, profiled_513, tmp_path):
        __, profiles = profiled_513
        directory = str(tmp_path / "index")
        col = ColumnarAccessIndex.build(iter(profiles),
                                        default_specification(),
                                        directory=directory, run_points=64)
        assert os.listdir(directory)
        col.close()
        assert os.listdir(directory) == []

    def test_failed_build_removes_its_temp_directory(self, profiled_513,
                                                     tmp_path, monkeypatch):
        """A profile stream that raises (profiling exhausted its retries,
        or Ctrl-C) leaves no index directory behind."""
        __, profiles = profiled_513
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(_ProfilingGaveUp):
            ColumnarAccessIndex.build(_raising_after(profiles, 5),
                                      default_specification(), run_points=16)
        assert list(tmp_path.iterdir()) == []

    def test_failed_build_empties_a_caller_directory(self, profiled_513,
                                                     tmp_path):
        __, profiles = profiled_513
        directory = tmp_path / "index"
        with pytest.raises(_ProfilingGaveUp):
            ColumnarAccessIndex.build(_raising_after(profiles, 5),
                                      default_specification(),
                                      directory=str(directory), run_points=16)
        assert os.listdir(directory) == []


def _cut_16_values(path):
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 8 * 16)


def _append_one_byte(path):
    with open(path, "ab") as handle:
        handle.write(b"\0")


def _cut_inside_header(path):
    with open(path, "r+b") as handle:
        handle.truncate(5)  # the magic and one byte of the row count


@pytest.mark.parametrize("damage",
                         [_cut_16_values, _append_one_byte,
                          _cut_inside_header],
                         ids=["cut-16-values", "one-extra-byte",
                              "cut-inside-header"])
def test_damaged_run_segment_is_rejected(profiled_513, damage):
    """A run whose size disagrees with its header is rejected, never
    merged into a smaller or shifted join."""
    __, profiles = profiled_513
    with _columnar(profiles, run_points=512) as col:
        runs = sorted(name for name in os.listdir(col.directory)
                      if name.startswith("r_"))
        damage(os.path.join(col.directory, runs[0]))
        with pytest.raises(ValueError, match="run segment"):
            list(col.iter_overlaps())


class TestPairSetParity:
    @pytest.mark.parametrize("strategy", ["df-ia", "df-st-1", "df-st-2", "df"])
    @pytest.mark.parametrize("rep_seed", [0, 7])
    def test_table4_pair_set_identical(self, profiled_513, strategy,
                                       rep_seed):
        corpus, profiles = profiled_513
        mem_result = _reference(corpus, profiles).generate(
            strategy_by_name(strategy), rep_seed=rep_seed)
        with _columnar(profiles) as col:
            col_result = TestCaseGenerator(corpus, col).generate(
                strategy_by_name(strategy), rep_seed=rep_seed)
        assert [(c.pair, tuple(c.cluster_keys))
                for c in mem_result.test_cases] \
            == [(c.pair, tuple(c.cluster_keys))
                for c in col_result.test_cases]
        assert mem_result.cluster_count == col_result.cluster_count
        assert mem_result.flow_count == col_result.flow_count
        assert mem_result.overlap_addresses == col_result.overlap_addresses

    @pytest.mark.parametrize("corpus_seed", [1, 2, 3])
    def test_pair_sets_across_seeds(self, corpus_seed):
        corpus = build_corpus(24, seed=corpus_seed)
        machine = Machine(CONFIGS["5.13"])
        profiles = Profiler(machine).profile_corpus(corpus)
        mem = _reference(corpus, profiles).generate(strategy_by_name("df-ia"))
        with _columnar(profiles) as col:
            streamed = TestCaseGenerator(corpus, col).generate(
                strategy_by_name("df-ia"))
        assert [c.pair for c in mem.test_cases] \
            == [c.pair for c in streamed.test_cases]


class TestCampaignParity:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_bug_fingerprints_identical_on_every_kernel(self, config_name):
        """Property: a campaign pairs exactly as TestCaseGenerator over the
        reference index of the same profiles, and finds the bugs, via
        the reports, that the reference cases produce, on every Table-3
        kernel."""
        machine_config = CONFIGS[config_name]
        campaign = Kit(CampaignConfig(machine=machine_config, corpus_size=16,
                                      max_test_cases=16)).run()
        corpus = build_corpus(16, seed=1)
        profiles = Profiler(Machine(machine_config)).profile_corpus(corpus)
        reference = _reference(corpus, profiles).generate(
            strategy_by_name("df-ia"), max_clusters=16)
        assert [(c.pair, tuple(c.cluster_keys))
                for c in campaign.generation.test_cases] \
            == [(c.pair, tuple(c.cluster_keys))
                for c in reference.test_cases]
        assert (campaign.stats.flow_count, campaign.stats.cluster_count,
                campaign.stats.overlap_addresses) \
            == (reference.flow_count, reference.cluster_count,
                reference.overlap_addresses)

        detector = Detector(Machine(machine_config), default_specification())
        reports = [result.report for result in
                   map(detector.check_case, reference.test_cases[:16])
                   if result.report is not None]
        diagnoser = Diagnoser(detector)
        for report in reports:
            diagnoser.diagnose(report)
        bugs = {label for report in reports for label in classify_all(report)}
        assert sorted(campaign.bugs_found()) \
            == sorted(bugs - {FALSE_POSITIVE, UNDER_INVESTIGATION})
        assert len(campaign.reports) == len(reports)
        for a, b in zip(campaign.reports, reports):
            assert a.case.pair == b.case.pair
            assert a.interfered_indices == b.interfered_indices
            assert a.culprit_pairs == b.culprit_pairs
        assert campaign.stats.index_run_segments >= 1
        assert campaign.stats.index_bytes > 0


class TestOnePairingPath:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_campaign_never_builds_the_reference_index(self, monkeypatch,
                                                       workers):
        def refuse(cls, *args, **kwargs):
            raise AssertionError("a campaign built the reference index")

        monkeypatch.setattr(DataFlowIndex, "build", classmethod(refuse))
        result = Kit(CampaignConfig(machine=CONFIGS["5.13"], corpus_size=12,
                                    max_test_cases=8, workers=workers,
                                    diagnose=False)).run()
        assert result.generation.test_cases
        assert result.stats.index_run_segments >= 1

    def test_only_the_columnar_backend_exists(self):
        with pytest.raises(ValueError, match="'columnar'"):
            CampaignConfig(index_backend="memory")


class TestStackSidecar:
    def test_stack_key_is_stable(self):
        assert stack_key((1, 2, 3)) == stack_key((1, 2, 3))
        assert stack_key((1, 2, 3)) != stack_key((3, 2, 1))
        assert 0 <= stack_key(()) < 2 ** 64


class TestProfileStoreSharding:
    def test_put_writes_into_fanout_shard(self, tmp_path, profiled_513):
        __, profiles = profiled_513
        store = FactStore(str(tmp_path), "fp")
        program = profiles[0].program
        Profiler(Machine(MachineConfig(bugs=linux_5_13())),
                 store).profile(program)
        shard = program.hash_hex[:2]
        expected = os.path.join(str(tmp_path), "fp", shard,
                                program.hash_hex + ".profile")
        assert os.path.exists(expected)
        assert store.entries_written == 1
        assert store.bytes_written == os.path.getsize(expected)
        assert Profiler(Machine(MachineConfig(bugs=linux_5_13())),
                        store).profile(program) == profiles[0]
        assert store.hits == 1

    def test_fingerprint_unchanged_by_sharding(self):
        fp = machine_fingerprint(MachineConfig(bugs=linux_5_13()))
        assert len(fp) == 16
