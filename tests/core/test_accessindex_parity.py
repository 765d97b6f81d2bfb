"""Merge-join pairing parity: columnar backend ≡ in-memory index.

The load-bearing property of the on-disk columnar access index: fed the
same profiles, the streamed merge-join must reproduce the in-memory
:class:`DataFlowIndex` *byte-for-byte* — identical overlap rows in
identical point order (generation's reservoir sampling consumes its RNG
in that order), hence an identical Table-4 pair set, and identical bug
fingerprints — across seeds and every Table-3 kernel.
"""

from __future__ import annotations

import os

import pytest

from repro.core import CampaignConfig, Kit
from repro.core.accessindex import ColumnarAccessIndex, stack_key
from repro.core.clustering import strategy_by_name
from repro.core.dataflow import DataFlowIndex
from repro.core.generation import TestCaseGenerator
from repro.core.known_bugs import SCENARIOS, TABLE3_ROWS, scenario_machine_config
from repro.core.profile import Profiler
from repro.core.profile_store import ProfileStore, machine_fingerprint
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


class TestIndexParity:
    def test_overlap_rows_byte_identical(self, profiled_513):
        __, profiles = profiled_513
        mem = DataFlowIndex.build(profiles, default_specification())
        with _columnar(profiles) as col:
            assert list(mem.iter_overlaps()) == list(col.iter_overlaps())
            assert mem.overlap_addresses() == col.overlap_addresses()
            assert mem.total_flow_count() == col.total_flow_count()

    def test_flows_at_matches(self, profiled_513):
        __, profiles = profiled_513
        mem = DataFlowIndex.build(profiles, default_specification())
        with _columnar(profiles) as col:
            addr = mem.overlap_addresses()[0]
            assert list(mem.flows_at(addr)) == list(col.flows_at(addr))

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
        spec = default_specification()
        mem_result = TestCaseGenerator(corpus, profiles, spec).generate(
            strategy_by_name(strategy), rep_seed=rep_seed)
        with _columnar(profiles) as col:
            col_result = TestCaseGenerator(corpus, None, spec,
                                           index=col).generate(
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
        spec = default_specification()
        mem = TestCaseGenerator(corpus, profiles, spec).generate(
            strategy_by_name("df-ia"))
        with _columnar(profiles) as col:
            streamed = TestCaseGenerator(corpus, None, spec,
                                         index=col).generate(
                strategy_by_name("df-ia"))
        assert [c.pair for c in mem.test_cases] \
            == [c.pair for c in streamed.test_cases]


class TestCampaignParity:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_bug_fingerprints_identical_on_every_kernel(self, config_name):
        """Property: a columnar-backend campaign finds the same bugs via
        the same reports as the in-memory one, on every Table-3 kernel."""
        def run(backend):
            return Kit(CampaignConfig(
                machine=CONFIGS[config_name], corpus_size=16,
                max_test_cases=16, index_backend=backend)).run()

        mem, col = run("memory"), run("columnar")
        assert [c.pair for c in mem.generation.test_cases] \
            == [c.pair for c in col.generation.test_cases]
        assert sorted(mem.bugs_found()) == sorted(col.bugs_found())
        assert len(mem.reports) == len(col.reports)
        for a, b in zip(mem.reports, col.reports):
            assert a.case.pair == b.case.pair
            assert a.interfered_indices == b.interfered_indices
            assert a.culprit_pairs == b.culprit_pairs
        assert (mem.stats.flow_count, mem.stats.cluster_count,
                mem.stats.overlap_addresses) \
            == (col.stats.flow_count, col.stats.cluster_count,
                col.stats.overlap_addresses)
        assert col.stats.index_run_segments >= 1
        assert col.stats.index_bytes > 0


class TestStackSidecar:
    def test_stack_key_is_stable(self):
        assert stack_key((1, 2, 3)) == stack_key((1, 2, 3))
        assert stack_key((1, 2, 3)) != stack_key((3, 2, 1))
        assert 0 <= stack_key(()) < 2 ** 64


class TestProfileStoreSharding:
    def test_put_writes_into_fanout_shard(self, tmp_path, profiled_513):
        __, profiles = profiled_513
        store = ProfileStore(str(tmp_path), "fp")
        store.put(profiles[0])
        shard = profiles[0].program.hash_hex[:2]
        expected = os.path.join(str(tmp_path), "fp", shard,
                                profiles[0].program.hash_hex + ".profile")
        assert os.path.exists(expected)
        assert store.entries_written == 1
        assert store.bytes_written == os.path.getsize(expected)
        assert store.get(profiles[0].program) is not None
        assert store.hits == 1

    def test_fingerprint_unchanged_by_sharding(self):
        fp = machine_fingerprint(MachineConfig(bugs=linux_5_13()))
        assert len(fp) == 16
