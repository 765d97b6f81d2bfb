"""Corpus-size scaling: how analysis artifacts grow with corpus size,
and how the execution stage scales with the shard pool.

Not a paper table, but the scaling behaviour behind the paper's §6.5
numbers: candidate flows grow roughly quadratically with the corpus
(every writer can pair with every reader of a shared address), while
clustered test-case counts grow far slower — that gap *is* the value of
clustering (the 234M -> 1.13M compression of Table 4).

The benchmark times the full generation stage (profiling + analysis) at
the middle corpus size.  ``test_shard_scaling`` sweeps the execution
stage over worker counts and shard modes (ISSUE 6, satellite 2).
"""

import os

from repro import CampaignConfig, Kit, MachineConfig, linux_5_13
from repro.core import (
    ColumnarAccessIndex,
    Profiler,
    TestCaseGenerator,
    default_specification,
    strategy_by_name,
)
from repro.corpus import build_corpus
from repro.vm import Machine, fork_available

from benchmarks.support import emit_table

_SIZES = (50, 100, 200)


def _generation_stats(size: int):
    corpus = build_corpus(size, seed=1)
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    profiles = Profiler(machine).profile_corpus(corpus)
    with ColumnarAccessIndex.build(iter(profiles),
                                   default_specification()) as index:
        return TestCaseGenerator(corpus, index).generate(
            strategy_by_name("df-ia"))


def test_scaling_corpus_size(benchmark):
    results = {size: _generation_stats(size) for size in _SIZES}
    benchmark.pedantic(_generation_stats, args=(_SIZES[1],), rounds=1,
                       iterations=1)

    lines = [f"{'corpus':>7} {'flows (DF)':>11} {'DF-IA clusters':>15} "
             f"{'compression':>12}",
             "-" * 50]
    for size in _SIZES:
        result = results[size]
        ratio = (result.flow_count / result.cluster_count
                 if result.cluster_count else 0.0)
        lines.append(f"{size:>7} {result.flow_count:>11} "
                     f"{result.cluster_count:>15} {ratio:>11.1f}x")
    lines.append("")
    lines.append("paper: 234.63M flows -> 1.13M DF-IA clusters (208x); the "
                 "gap widens with corpus size")
    emit_table("scaling", "Scaling: flows vs clusters by corpus size", lines)

    flows = [results[size].flow_count for size in _SIZES]
    clusters = [results[size].cluster_count for size in _SIZES]
    assert flows == sorted(flows), "flows grow with the corpus"
    # Clusters are bounded by distinct instruction pairs: near-saturating.
    assert clusters[-1] <= clusters[0] * 3
    # The compression ratio must widen as the corpus grows.
    assert flows[-1] / clusters[-1] > flows[0] / clusters[0]


def test_shard_scaling(bench_corpus, benchmark):
    """Execution-stage sweep: process shard counts against serial.

    Descriptive, not a gate (the hardware-conditional assertions live in
    ``bench_regression_gate.test_shard_pool_gate``): records how the
    execution stage responds to the pool on *this* host, and always
    asserts every shard count finds the serial (``workers=0``) bugs.
    This DF-IA campaign runs only ~49 cases (~0.7 ms each), so the
    fixed cost of forking each shard dominates and every shard row
    trails the serial one.  Shards pull ahead once a stage has enough
    cases to amortize that cost: on the 6,884 cases of ``df-exec-200``
    two shards beat serial (docs/SHARDING.md, *Shards against the
    serial loop*).
    """
    cpus = os.cpu_count() or 1
    counts = [0] + (sorted({1, 2, 4, cpus}) if fork_available() else [])

    def campaign(workers):
        config = CampaignConfig(machine=MachineConfig(bugs=linux_5_13()),
                                corpus=list(bench_corpus), strategy="df-ia",
                                workers=workers)
        return Kit(config).run()

    runs = {workers: campaign(workers) for workers in counts}
    benchmark.pedantic(campaign, args=(counts[-1],), rounds=1, iterations=1)

    lines = [f"{'mode':<10} {'workers':>7} {'exec (ms)':>10} "
             f"{'cases/s':>9} {'stolen':>7} {'shards':>7}",
             "-" * 56]
    for workers, run in sorted(runs.items()):
        stats = run.stats
        lines.append(
            f"{stats.shard_mode:<10} {stats.execution_workers:>7} "
            f"{stats.execution_seconds * 1e3:>10.1f} "
            f"{stats.executions_per_second():>9.0f} "
            f"{stats.jobs_stolen:>7} {stats.shards_spawned:>7}")
    lines.append("")
    lines.append(f"host: {cpus} cpu(s); every shard count must report "
                 f"the serial bug set")
    emit_table("shard_scaling",
               "Execution-stage scaling: serial vs process shards", lines)

    serial = runs[0]
    for workers, run in runs.items():
        assert sorted(run.bugs_found()) == sorted(serial.bugs_found()), \
            f"{workers} shard(s) diverged from the serial bug set"
        assert run.stats.cases_executed == serial.stats.cases_executed
