"""Self-tests of the benchmark harness (30-program corpora, seconds).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro import CampaignConfig, Kit, MachineConfig, build_corpus, linux_5_13
from repro.vm.machine import Machine

from benchmarks.e2e import metrics
from benchmarks.e2e.compare import label
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _config(**options) -> CampaignConfig:
    return CampaignConfig(machine=MachineConfig(bugs=linux_5_13()),
                          corpus=build_corpus(30, seed=1), **options)


def test_self_times_are_non_negative_and_fit_wall_time_per_thread():
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        Kit(_config(strategy="df-ia", workers=2)).run()
        wall = time.perf_counter() - start
    assert tracer.spans
    assert all(span.self_ns >= 0 for span in tracer.spans)
    per_thread = {}
    for span in tracer.spans:
        per_thread[span.thread] = per_thread.get(span.thread, 0) \
            + span.self_ns / 1e9
    # Profiling and execution ran on two pool threads besides the main one.
    assert len(per_thread) >= 3
    assert all(total <= wall for total in per_thread.values())


def test_generator_span_covers_consumption_not_creation():
    tracer = Tracer(targets=())

    def step():
        time.sleep(0.01)

    timed_step = tracer.wrap(step, "step")

    def produce():
        for item in range(3):
            time.sleep(0.02)
            timed_step()
            yield item

    timed_produce = tracer.wrap(produce, "produce")
    stream = timed_produce()
    time.sleep(0.1)  # created but not consumed: not charged
    items = []
    for item in stream:
        items.append(item)
        time.sleep(0.05)  # consumer work between items: not charged
    assert items == [0, 1, 2]
    summary = tracer.summary()
    produced = summary["produce"]
    assert produced.calls == 1
    # Charging creation or the consumer's work would add at least 0.25 s.
    assert 0.09 <= produced.total_s < 0.25
    assert summary["step"].calls == 3
    assert produced.self_s == pytest.approx(
        produced.total_s - summary["step"].total_s)


def test_spans_of_other_threads_are_not_children():
    tracer = Tracer(targets=())
    inner = tracer.wrap(lambda: time.sleep(0.02), "inner")

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()

    tracer.wrap(outer, "outer")()
    summary = tracer.summary()
    # A shared stack would subtract the other thread's span here.
    assert summary["outer"].self_s == pytest.approx(
        summary["outer"].total_s)


@pytest.mark.parametrize("options", [
    dict(strategy="df"),
    dict(strategy="df-ia", index_backend="columnar"),
], ids=["memory-index", "columnar-index"])
def test_tracing_changes_no_outcome(options):
    original = Machine.__dict__["reset"]
    plain = Kit(_config(**options)).run()
    with Tracer() as tracer:
        traced = Kit(_config(**options)).run()
    assert Machine.__dict__["reset"] is original
    assert traced.stats.outcomes == plain.stats.outcomes
    assert traced.bugs_found() == plain.bugs_found()
    spans = tracer.summary()
    assert spans["machine.reset"].calls > 0
    assert spans["detection.check_case"].calls == plain.stats.cases_total
    if options.get("index_backend") == "columnar":
        assert spans["accessindex.iter_overlaps"].total_s > 0


STEADY = [10.0, 10.1, 9.9, 10.0, 10.05]


@pytest.mark.parametrize("a, b, better, bound, expected", [
    (STEADY, [10.2, 10.3, 10.1, 10.2, 10.25], "lower", 0.1, "within"),
    (STEADY, [12.0, 12.1, 11.9, 12.0, 12.05], "lower", 0.1, "regressed"),
    ([10.0, 13.0, 8.0, 11.0, 9.0], [10.5, 14.0, 8.5, 12.0, 9.5], "lower",
     0.1, "unresolved"),
    # Wider than the bound, but every B run beats every A run.
    ([10.0, 13.0, 8.0, 11.0, 9.0], [5.0, 6.5, 4.0, 5.5, 4.5], "lower",
     0.1, "improved"),
    (STEADY, [9.0, 9.1, 8.9, 9.0, 9.05], "lower", 0.1, "improved"),
    ([100.0, 101.0, 99.0], [120.0, 121.0, 119.0], "higher", 0.1,
     "improved"),
    ([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "higher", 0.1, "regressed"),
    ([9, 9, 9], [8, 8, 8], "higher", 0.0, "regressed"),
    ([0.0, 0.0], [0.0, 0.0], "lower", 0.0, "within"),
])
def test_compare_labels(a, b, better, bound, expected):
    assert label(a, b, better, bound) == expected


def test_benchmark_json_matches_the_catalogs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    for entry in spec["end_to_end"]:
        metric = metrics.E2E_BY_NAME[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == \
            (metric.unit, metric.better, metric.bound)
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for entry in spec["per_layer"]:
        metric = metrics.LAYER_BY_NAME[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit,
                                                    metric.better)
        # Timed runs must print a number for it on every workload.
        assert metric.applies is None and not metric.shard_total
