"""Table 4: test case generation and clustering strategies (§6.3).

Profiles the benchmark corpus once, then evaluates every strategy the
paper compares:

* DF-IA / DF-ST-1 / DF-ST-2 — cluster counts must grow in that order and
  each must discover all nine injected bugs after exercising its
  clusters.
* DF — the unclustered flow count (reported, not executed, like the
  paper's 234M row).
* RAND — random pairing with ~8x DF-IA's execution budget (the paper's
  RAND row ran 7.7x DF-IA's case count) must find strictly fewer bugs.

The benchmark times the clustering stage itself (DF-IA over the full
profiled corpus), which §6.5 bounds at "30 minutes on one machine" for
the real corpus.
"""

from repro import MachineConfig, linux_5_13
from repro.core import (
    ColumnarAccessIndex,
    Detector,
    Profiler,
    TestCaseGenerator,
    default_specification,
    strategy_by_name,
)
from repro.core.oracle import classify_all
from repro.vm import Machine

from benchmarks.support import emit_table

_NUMBERED = set("123456789")


def _bugs_found(detector, cases):
    found = set()
    for case in cases:
        result = detector.check_case(case)
        if result.report is not None:
            found |= classify_all(result.report) & _NUMBERED
    return found


def test_table4_generation_strategies(bench_corpus, benchmark):
    spec = default_specification()
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    profiles = Profiler(machine).profile_corpus(bench_corpus)
    with ColumnarAccessIndex.build(iter(profiles), spec) as index:
        generator = TestCaseGenerator(bench_corpus, index)
        # Benchmark: the DF-IA clustering pass over the profiled corpus.
        generation = benchmark(generator.generate, strategy_by_name("df-ia"))
        results = {name: generator.generate(strategy_by_name(name))
                   for name in ("df-ia", "df-st-1", "df-st-2")}

    rows = []
    df_ia_cases = None
    for name, result in results.items():
        detector = Detector(Machine(MachineConfig(bugs=linux_5_13())), spec)
        found = _bugs_found(detector, result.test_cases)
        rows.append((name.upper(), result.cluster_count, found))
        if name == "df-ia":
            df_ia_cases = len(result.test_cases)

    rand_budget = 8 * df_ia_cases
    rand_result = TestCaseGenerator(bench_corpus).generate_random(rand_budget,
                                                                  seed=7)
    rand_detector = Detector(Machine(MachineConfig(bugs=linux_5_13())), spec)
    rand_found = _bugs_found(rand_detector, rand_result.test_cases)
    rows.append(("RAND", rand_budget, rand_found))
    rows.append(("DF", generation.flow_count, None))

    lines = [f"{'Gen':<9} {'Test cases':>11} {'Effectiveness':>14}",
             "-" * 38]
    for name, count, found in rows:
        effectiveness = f"{len(found)}/9" if found is not None else "(not run)"
        lines.append(f"{name:<9} {count:>11} {effectiveness:>14}")
    lines.append("")
    lines.append("paper: DF-IA 1.13M / DF-ST-1 3.32M / DF-ST-2 6.61M / "
                 "RAND 8.66M / DF 234.63M; DF-* 9/9, RAND 5/9")
    emit_table("table4", "Table 4: generation & clustering strategies", lines)

    # Shape assertions (the reproduction target).
    counts = [count for __, count, found in rows[:3]]
    assert counts == sorted(counts), "DF-IA <= DF-ST-1 <= DF-ST-2"
    assert generation.flow_count >= counts[-1], "DF dwarfs clustered counts"
    for name, __, found in rows[:3]:
        assert found == _NUMBERED, f"{name} must find all nine bugs"
    assert rand_found < _NUMBERED, "RAND must find a strict subset"
