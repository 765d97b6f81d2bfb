"""Metric catalog: definitions, units, directions, bounds, derivations.

End-to-end metrics come from every untraced repetition; per-layer
metrics come from the traced repetition (spans) or, where marked
*stats*, from the campaign's own counters in the untraced repetitions.

A value is a number, or a string saying why there is none:

* ``unmeasured (process shard)`` — the work ran inside forked shards,
  which the outside-in tracer cannot see;
* ``unmeasured (N cpu)`` — a sharded workload's timings on a host with
  fewer CPUs than shards;
* ``n/a (...)`` — the workload does not run this layer at all.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from .workloads import Workload

Value = Union[float, int, str]

#: Units whose values are timings (or rates derived from timings).
TIME_UNITS = frozenset({"s", "us", "ns", "cases/s", "items/s",
                        "programs/s"})

UNMEASURED_SHARD = "unmeasured (process shard)"


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Worst allowed relative change of the median before a regression.
    #: Timings get 0.25: on the 2-vCPU reference host, runs of fixed work
    #: drift by up to 25% within minutes, in CPU time as well as wall
    #: time, and ten-seed spreads reached 15% (README.md).
    bound: float
    definition: str


END_TO_END: Sequence[EndToEnd] = (
    EndToEnd("campaign_s", "s", "lower", 0.25,
             "wall time of Kit(config).run()"),
    EndToEnd("items_per_s", "items/s", "higher", 0.25,
             "work items per second of campaign_s; an item is one program "
             "profiled, one test case executed or one Algorithm-2 re-run"),
    EndToEnd("cases_per_s", "cases/s", "higher", 0.25,
             "stats.cases_executed / campaign_s (the paper's §6.5 "
             "execution-rate unit)"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "child start to the Kit.run call: import repro, "
             "build_corpus(size, seed), config construction"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10,
             "max ru_maxrss of the campaign process and its reaped shards"),
    EndToEnd("bugs_found", "count", "higher", 0.0,
             "len(result.bugs_found())"),
    EndToEnd("failed_frac", "ratio", "lower", 0.0,
             "(infra_failed + poisoned) / cases_total"),
)
E2E_BY_NAME = {metric.name: metric for metric in END_TO_END}


def work_items(record: dict) -> int:
    """Programs profiled + test cases + Algorithm-2 re-runs."""
    stats = record["stats"]
    # The profiling protocol runs every program four times (§4.1.1).
    return (stats["profile_runs"] // 4 + stats["cases_total"]
            + stats["diagnosis_reruns"])


def failed_cases(record: dict) -> int:
    outcomes = record["stats"]["outcomes"]
    return outcomes.get("infra_failed", 0) + outcomes.get("poisoned", 0)


def end_to_end(record: dict) -> Dict[str, float]:
    """Every end-to-end metric of one untraced repetition."""
    stats = record["stats"]
    campaign_s = record["campaign_s"]
    return {
        "campaign_s": campaign_s,
        "items_per_s": work_items(record) / campaign_s,
        "cases_per_s": stats["cases_executed"] / campaign_s,
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "bugs_found": len(record["bugs"]),
        "failed_frac": failed_cases(record) / max(1, stats["cases_total"]),
    }


# -- per-layer ----------------------------------------------------------------


class Runs:
    """One workload's repetitions, as seen by the per-layer derivations."""

    def __init__(self, workload: Workload, untraced: List[dict],
                 traced: dict):
        self.workload = workload
        self.untraced = untraced
        self.traced = traced
        self.spans: Dict[str, dict] = traced["spans"]

    def stat(self, key: str) -> float:
        """Median of a campaign counter over the untraced repetitions."""
        return statistics.median(r["stats"][key] for r in self.untraced)

    def median(self, fn: Callable[[dict], float]) -> float:
        return statistics.median(fn(r) for r in self.untraced)

    def span(self, name: str, field: str = "total_s") -> float:
        span = self.spans.get(name)
        return span[field] if span is not None else 0

    def calls(self, name: str) -> int:
        return self.span(name, "calls")

    def _missing(self, name: str) -> str:
        return UNMEASURED_SHARD if self.workload.sharded \
            else f"n/a (no {name} calls)"

    def per_call(self, name: str, scale: float,
                 field: str = "total_s") -> Value:
        calls = self.calls(name)
        if not calls:
            return self._missing(name)
        return self.span(name, field) * scale / calls

    def percentile(self, name: str, field: str) -> Value:
        return self.span(name, field) if self.calls(name) \
            else self._missing(name)

    def per_unit(self, name: str, scale: float) -> Value:
        """Self time per work unit the spans reported."""
        units = self.span(name, "units")
        if not units:
            return self._missing(name)
        return self.span(name, "self_s") * scale / units

    def per_traced_stat(self, name: str, stat: str, scale: float) -> Value:
        """Span time per unit of a counter of the same (traced) run."""
        count = self.traced["stats"][stat]
        if not count:
            return f"n/a (no {stat})"
        return self.span(name) * scale / count

    @property
    def wall_s(self) -> float:
        return self.traced["campaign_s"]


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: The end-to-end metric and workload this metric should move.
    moves: str
    derive: Callable[[Runs], Value]
    #: Trace totals that miss the work forked shards do.
    shard_total: bool = False
    #: Only defined for workloads with this property.
    applies: Optional[Callable[[Workload], bool]] = None
    absent: str = ""
    #: Read from CampaignStats rather than from spans.
    stats: bool = False


def _profiles(workload: Workload) -> bool:
    return workload.options.get("strategy") != "rand"


def _columnar(workload: Workload) -> bool:
    return workload.options.get("index_backend") == "columnar"


def _memory_index(workload: Workload) -> bool:
    return _profiles(workload) and not _columnar(workload)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stage_residual(record: dict) -> float:
    stats = record["stats"]
    return record["campaign_s"] - (
        stats["profile_seconds"] + stats["analysis_seconds"]
        + stats["execution_seconds"] + stats["diagnosis_seconds"])


def _restore_self(runs: Runs) -> float:
    return sum(runs.span(name, "self_s") for name in (
        "machine.reset", "machine.delta_apply", "machine.delta_capture"))


def _executor_self(runs: Runs) -> float:
    return (runs.span("machine.run", "self_s")
            + runs.span("machine.run.profile", "self_s"))


def _machine(op: str, span: str, moves: str) -> List[PerLayer]:
    return [
        PerLayer(f"machine.{op}.calls", "count", "lower", "vm.machine",
                 moves, lambda r: r.calls(span), shard_total=True),
        PerLayer(f"machine.{op}.self_s", "s", "lower", "vm.machine", moves,
                 lambda r: r.span(span, "self_s"), shard_total=True),
        PerLayer(f"machine.{op}.us_per_op", "us", "lower", "vm.machine",
                 moves, lambda r: r.per_call(span, 1e6, "self_s")),
    ]


def _trace_ast(op: str, span: str) -> List[PerLayer]:
    moves = "cases_per_s on df-exec-200"
    return [
        PerLayer(f"trace_ast.{op}.calls", "count", "lower", "core.trace_ast",
                 moves, lambda r: r.calls(span), shard_total=True),
        PerLayer(f"trace_ast.{op}.ns_per_op", "ns", "lower",
                 "core.trace_ast", moves, lambda r: r.per_call(span, 1e9)),
    ]


_CAMPAIGN = "campaign_s on the workload the stage dominates"
_PROFILE = "campaign_s on profile-columnar-4k"
_INDEX = "campaign_s and peak_rss_mb on profile-columnar-4k"
_SHARDS = "campaign_s on stored-shards-200"
_NO_PROFILE = "n/a (no profiling)"

PER_LAYER: Sequence[PerLayer] = (
    PerLayer("corpus.programs_per_s", "programs/s", "higher", "corpus",
             "setup_s on rand-cold-4k and profile-columnar-4k",
             lambda r: r.median(lambda x: x["programs"] / x["corpus_s"]),
             stats=True),
    PerLayer("stage.profile_s", "s", "lower", "core.pipeline", _CAMPAIGN,
             lambda r: r.stat("profile_seconds"), applies=_profiles,
             absent=_NO_PROFILE, stats=True),
    PerLayer("stage.analysis_s", "s", "lower", "core.pipeline", _CAMPAIGN,
             lambda r: r.stat("analysis_seconds"), applies=_profiles,
             absent=_NO_PROFILE, stats=True),
    PerLayer("stage.execute_s", "s", "lower", "core.pipeline", _CAMPAIGN,
             lambda r: r.stat("execution_seconds"), stats=True),
    PerLayer("stage.diagnose_s", "s", "lower", "core.pipeline", _CAMPAIGN,
             lambda r: r.stat("diagnosis_seconds"), stats=True),
    PerLayer("stage.residual_s", "s", "lower", "core.pipeline", _CAMPAIGN,
             lambda r: r.median(_stage_residual), stats=True),
    PerLayer("profile.programs", "count", "lower", "core.profile", _PROFILE,
             lambda r: r.calls("profile"), applies=_profiles,
             absent=_NO_PROFILE),
    PerLayer("profile.us_per_program", "us", "lower", "core.profile",
             _PROFILE, lambda r: r.per_call("profile", 1e6),
             applies=_profiles, absent=_NO_PROFILE),
    PerLayer("accessindex.points", "count", "lower", "core.accessindex",
             _INDEX, lambda r: r.stat("index_points"), applies=_columnar,
             absent="n/a (memory index)", stats=True),
    PerLayer("accessindex.add_ns_per_point", "ns", "lower",
             "core.accessindex", _INDEX,
             lambda r: r.per_traced_stat("accessindex.add_profile",
                                         "index_points", 1e9),
             applies=_columnar, absent="n/a (memory index)"),
    PerLayer("accessindex.seal_s", "s", "lower", "core.accessindex", _INDEX,
             lambda r: r.span("accessindex.seal"), applies=_columnar,
             absent="n/a (memory index)"),
    PerLayer("accessindex.merge_join_s", "s", "lower", "core.accessindex",
             _INDEX, lambda r: r.span("accessindex.iter_overlaps"),
             applies=_columnar, absent="n/a (memory index)"),
    PerLayer("accessindex.bytes", "bytes", "lower", "core.accessindex",
             _INDEX, lambda r: r.stat("index_bytes"), applies=_columnar,
             absent="n/a (memory index)", stats=True),
    PerLayer("dataflow.build_s", "s", "lower", "core.dataflow",
             "campaign_s on df-exec-200", lambda r: r.span("dataflow.build"),
             applies=_memory_index, absent="n/a (no memory index)"),
    PerLayer("generation.generate_s", "s", "lower", "core.generation",
             _PROFILE, lambda r: r.span("generation.generate"),
             applies=_profiles, absent="n/a (random pairs)"),
    PerLayer("generation.flows", "count", "lower", "core.generation",
             _PROFILE, lambda r: r.stat("flow_count"), applies=_profiles,
             absent="n/a (random pairs)", stats=True),
    PerLayer("generation.clusters", "count", "lower", "core.generation",
             _PROFILE, lambda r: r.stat("cluster_count"), applies=_profiles,
             absent="n/a (random pairs)", stats=True),
    *_machine("reset", "machine.reset",
              "cases_per_s on rand-cold-4k; campaign_s on "
              "profile-columnar-4k"),
    *_machine("delta_apply", "machine.delta_apply",
              "cases_per_s on df-exec-200"),
    *_machine("delta_capture", "machine.delta_capture",
              "cases_per_s on rand-cold-4k"),
    PerLayer("machine.segments_skipped_frac", "ratio", "higher",
             "vm.machine", "cases_per_s on df-exec-200 and rand-cold-4k",
             lambda r: _ratio(r.stat("segments_skipped"),
                              r.stat("segments_skipped")
                              + r.stat("segments_restored")), stats=True),
    PerLayer("machine.restore_share", "ratio", "lower", "vm.machine",
             "cases_per_s on df-exec-200 and rand-cold-4k",
             lambda r: _restore_self(r) / r.wall_s, shard_total=True),
    PerLayer("executor.runs", "count", "lower", "vm.executor",
             "cases_per_s on rand-cold-4k",
             lambda r: r.calls("machine.run") + r.calls("machine.run.profile"),
             shard_total=True),
    PerLayer("executor.syscalls", "count", "lower", "vm.executor",
             "cases_per_s on rand-cold-4k",
             lambda r: (r.span("machine.run", "units")
                        + r.span("machine.run.profile", "units")),
             shard_total=True),
    PerLayer("executor.ns_per_syscall", "ns", "lower", "vm.executor",
             "cases_per_s on rand-cold-4k",
             lambda r: r.per_unit("machine.run", 1e9)),
    PerLayer("executor.traced_ns_per_syscall", "ns", "lower", "vm.executor",
             _PROFILE, lambda r: r.per_unit("machine.run.profile", 1e9),
             applies=_profiles, absent=_NO_PROFILE),
    PerLayer("executor.share", "ratio", "lower", "vm.executor",
             "cases_per_s on rand-cold-4k; campaign_s on "
             "profile-columnar-4k",
             lambda r: _executor_self(r) / r.wall_s, shard_total=True),
    PerLayer("execution.sender_cache_hit_frac", "ratio", "higher",
             "core.execution", "cases_per_s on df-exec-200 vs rand-cold-4k",
             lambda r: _ratio(r.stat("sender_cache_hits"),
                              r.stat("sender_cache_hits")
                              + r.stat("sender_cache_misses")), stats=True),
    PerLayer("execution.baseline_hit_frac", "ratio", "higher",
             "core.execution", "cases_per_s on df-exec-200 vs rand-cold-4k",
             lambda r: _ratio(r.stat("baseline_hits"),
                              r.stat("baseline_hits")
                              + r.stat("baseline_misses")), stats=True),
    PerLayer("execution.run_with_sender.us_per_op", "us", "lower",
             "core.execution", "cases_per_s on df-exec-200 vs rand-cold-4k",
             lambda r: r.per_call("execution.run_with_sender", 1e6)),
    *_trace_ast("build", "trace_ast.build"),
    *_trace_ast("cmp", "trace_ast.cmp"),
    *_trace_ast("marks", "trace_ast.marks"),
    PerLayer("nondet.calls", "count", "lower", "core.nondet",
             "cases_per_s on rand-cold-4k", lambda r: r.calls("nondet"),
             shard_total=True),
    PerLayer("nondet.runs", "count", "lower", "core.nondet",
             "cases_per_s on rand-cold-4k", lambda r: r.stat("nondet_runs"),
             stats=True),
    PerLayer("nondet.self_s", "s", "lower", "core.nondet",
             "cases_per_s on rand-cold-4k",
             lambda r: r.span("nondet", "self_s"), shard_total=True),
    PerLayer("detection.cases", "count", "lower", "core.detection",
             "cases_per_s on every workload that executes cases",
             lambda r: r.calls("detection.check_case"), shard_total=True),
    PerLayer("detection.p50_us", "us", "lower", "core.detection",
             "cases_per_s on every workload that executes cases",
             lambda r: r.percentile("detection.check_case", "p50_us")),
    PerLayer("detection.p99_us", "us", "lower", "core.detection",
             "cases_per_s on every workload that executes cases",
             lambda r: r.percentile("detection.check_case", "p99_us")),
    PerLayer("diagnosis.reruns", "count", "lower", "core.diagnosis",
             "campaign_s on df-exec-200",
             lambda r: r.stat("diagnosis_reruns"), stats=True),
    PerLayer("diagnosis.us_per_rerun", "us", "lower", "core.diagnosis",
             "campaign_s on df-exec-200",
             lambda r: r.per_traced_stat("diagnosis", "diagnosis_reruns",
                                         1e6)),
    PerLayer("diagnosis.prefix_reuse_frac", "ratio", "higher",
             "core.diagnosis", "campaign_s on df-exec-200",
             lambda r: _ratio(r.stat("diagnosis_prefix_reuses"),
                              r.stat("diagnosis_reruns")), stats=True),
    PerLayer("aggregation.s", "s", "lower", "core.aggregation",
             "campaign_s on df-exec-200", lambda r: r.span("aggregation")),
    PerLayer("journal.appends", "count", "lower", "store.journal", _SHARDS,
             lambda r: r.calls("journal.append"),
             applies=lambda w: w.stored, absent="n/a (no store)"),
    PerLayer("journal.appends_written", "count", "lower", "store.journal",
             _SHARDS, lambda r: r.span("journal.append", "units"),
             applies=lambda w: w.stored, absent="n/a (no store)"),
    PerLayer("journal.us_per_append", "us", "lower", "store.journal",
             _SHARDS, lambda r: r.per_call("journal.append", 1e6),
             applies=lambda w: w.stored, absent="n/a (no store)"),
    PerLayer("journal.fsync_degraded", "count", "lower", "store.journal",
             _SHARDS, lambda r: r.stat("journal_fsync_degraded"),
             applies=lambda w: w.stored, absent="n/a (no store)",
             stats=True),
    PerLayer("shardpool.shards_spawned", "count", "lower", "vm.shardpool",
             _SHARDS, lambda r: r.stat("shards_spawned"),
             applies=lambda w: w.sharded, absent="n/a (in-process)",
             stats=True),
    PerLayer("shardpool.jobs_stolen", "count", "lower", "vm.shardpool",
             _SHARDS, lambda r: r.stat("jobs_stolen"),
             applies=lambda w: w.sharded, absent="n/a (in-process)",
             stats=True),
    PerLayer("shm.bytes", "bytes", "lower", "vm.shm", _SHARDS,
             lambda r: r.stat("shm_bytes"),
             applies=lambda w: w.sharded, absent="n/a (in-process)",
             stats=True),
    PerLayer("execution.shared_hit_frac", "ratio", "higher", "vm.shm",
             _SHARDS,
             lambda r: _ratio(r.stat("sender_cache_shared_hits"),
                              r.stat("sender_cache_hits")
                              + r.stat("sender_cache_misses")),
             applies=lambda w: w.sharded, absent="n/a (in-process)",
             stats=True),
    PerLayer("trace.overhead_frac", "ratio", "lower", "tracer",
             "none: the tracer's own cost",
             lambda r: r.wall_s / r.median(lambda x: x["campaign_s"]) - 1),
)
LAYER_BY_NAME = {metric.name: metric for metric in PER_LAYER}


def glossary() -> dict:
    """Every metric's definition, for the results file."""
    return {
        "end_to_end": {m.name: {"unit": m.unit, "better": m.better,
                                "bound": m.bound, "definition": m.definition}
                       for m in END_TO_END},
        "per_layer": {m.name: {"unit": m.unit, "better": m.better,
                               "layer": m.layer, "moves": m.moves,
                               "source": "stats" if m.stats else "trace"}
                      for m in PER_LAYER},
    }


def per_layer(runs: Runs, cpu_count: int) -> Dict[str, Value]:
    """Every per-layer metric of one workload (number or reason string)."""
    workload = runs.workload
    values: Dict[str, Value] = {}
    for metric in PER_LAYER:
        if metric.applies is not None and not metric.applies(workload):
            values[metric.name] = metric.absent
        elif metric.shard_total and workload.sharded:
            values[metric.name] = UNMEASURED_SHARD
        elif workload.sharded and cpu_count < 2 \
                and metric.unit in TIME_UNITS:
            values[metric.name] = f"unmeasured ({cpu_count} cpu)"
        else:
            values[metric.name] = metric.derive(runs)
    return values
