"""Paper-scale corpus pipeline benchmarks.

The paper profiles 98,853 syzkaller programs (§6.1).  This bench sweeps
the streamed generation pipeline and the columnar access index over
scaled-down corpus sizes, measures throughput and peak traced memory,
and extrapolates the wall-clock of a 100k-program generation+indexing
run — the numbers behind ``benchmarks/results/corpus_gate.txt``'s
budget check.
"""

from __future__ import annotations

import time
import tracemalloc

from repro import MachineConfig, linux_5_13
from repro.core.accessindex import ColumnarAccessIndex
from repro.core.dataflow import DataFlowIndex
from repro.core.profile import Profiler
from repro.core.spec import default_specification
from repro.corpus import (
    CorpusWriter,
    StreamStats,
    build_corpus,
    stream_corpus,
)
from repro.vm import Machine

from benchmarks.support import emit_table

PAPER_CORPUS = 98_853
SWEEP_SIZES = (500, 1000, 2000)


def _timed(fn):
    start = time.monotonic()
    result = fn()
    return result, time.monotonic() - start


def test_streaming_generation_scale(tmp_path, benchmark):
    """Sweep streamed generation→disk and extrapolate to paper scale."""
    lines = [f"{'size':>6} {'admitted':>9} {'cand/s':>9} {'prog/s':>9} "
             f"{'peak KiB':>9}"]
    rates = []
    for size in SWEEP_SIZES:
        directory = str(tmp_path / f"gen{size}")
        tracemalloc.start()
        start = time.monotonic()
        stats = StreamStats()
        with CorpusWriter(directory) as writer:
            for program in stream_corpus(size, seed=1, stats=stats):
                writer.add(program)
        elapsed = time.monotonic() - start
        __, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rate = stats.emitted / elapsed
        rates.append(rate)
        lines.append(f"{size:>6} {stats.emitted:>9} "
                     f"{stats.candidates / elapsed:>9.0f} {rate:>9.0f} "
                     f"{peak / 1024:>9.0f}")
    benchmark(lambda: sum(1 for __ in stream_corpus(1000, seed=1)))
    full_seconds = PAPER_CORPUS / min(rates)
    lines.append(f"extrapolated {PAPER_CORPUS} programs: "
                 f"{full_seconds:.1f}s at the slowest observed rate")
    emit_table("corpus_scale", "Streaming corpus generation scale sweep",
               lines)
    assert min(rates) > 0


def test_columnar_index_scale(benchmark):
    """Columnar build+join throughput and on-disk footprint at 200."""
    corpus = build_corpus(200, seed=1)
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    profiles, profile_seconds = _timed(
        lambda: Profiler(machine).profile_corpus(corpus))
    spec = default_specification()

    def build_and_join():
        with ColumnarAccessIndex.build(iter(profiles), spec,
                                       run_points=256) as col:
            rows = sum(1 for __ in col.iter_overlaps())
            return rows, col.write_points + col.read_points, \
                col.bytes_on_disk(), col.run_segments

    (rows, points, disk_bytes, runs), index_seconds = _timed(build_and_join)
    benchmark(build_and_join)
    mem = DataFlowIndex.build(profiles, spec)
    assert rows == len(mem.overlap_addresses())
    point_rate = points / index_seconds
    paper_points = points / len(corpus) * PAPER_CORPUS
    lines = [
        f"programs profiled    : {len(corpus)} "
        f"({len(corpus) / profile_seconds:.0f}/s)",
        f"access points        : {points} ({point_rate:.0f}/s indexed)",
        f"run segments / bytes : {runs} / {disk_bytes}",
        f"overlap addresses    : {rows}",
        f"extrapolated {PAPER_CORPUS} programs: "
        f"~{paper_points:.0f} points, "
        f"{paper_points / point_rate:.1f}s indexing",
    ]
    emit_table("corpus_index_scale", "Columnar access-index scale", lines)
