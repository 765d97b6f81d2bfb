"""Compare two report-mode results files, metric by metric.

    python -m benchmarks.e2e.compare A.json B.json

For every (end-to-end metric, workload) cell it prints each side's
median and quartiles and one label:

* ``improved`` — B beats A in at least 9 of 10 (A run, B run) pairs,
  ties counting for neither, and the medians differ by more than A's
  interquartile range;
* ``unresolved`` — the spread (the wider side's interquartile range,
  relative to A's median) exceeds the bound, unless every run of B beats
  every run of A;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``within`` — otherwise.

Cells either side could not measure are skipped and listed, never
counted as passed.  Exits 1 if any cell regressed or ``failed_frac``
rose.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Sequence

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.metrics import END_TO_END  # noqa: E402


def _quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def label(a: Sequence[float], b: Sequence[float], better: str,
          bound: float) -> str:
    """within | regressed | unresolved | improved, as the module says."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = _quartiles(a)
    b_q1, b_med, b_q3 = _quartiles(b)
    pairs = len(a) * len(b)
    wins = sum(1 for x in a for y in b if sign * (y - x) < 0)
    if wins >= 0.9 * pairs and abs(b_med - a_med) > a_q3 - a_q1:
        return "improved"
    scale = abs(a_med)
    widest = max(a_q3 - a_q1, b_q3 - b_q1)
    spread = widest / scale if scale else (math.inf if widest else 0.0)
    if spread > bound and wins < pairs:
        return "unresolved"
    worse = sign * (b_med - a_med)
    change = worse / scale if scale else (math.inf if worse > 0 else 0.0)
    return "regressed" if change > bound else "within"


def _cell(cell: dict) -> Optional[List[float]]:
    """A cell's samples, or None when it holds an unmeasured reason."""
    if isinstance(cell.get("value"), str):
        return None
    return cell["samples"]


def _describe(samples: Sequence[float]) -> str:
    q1, median, q3 = _quartiles(samples)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(a: dict, b: dict) -> int:
    failed = False
    skipped: List[str] = []
    print(f"A {a['commit'][:12]} ({a['created']})  "
          f"B {b['commit'][:12]} ({b['created']})")
    print(f"{'workload':<20} {'metric':<12} {'A median [q1, q3]':<28} "
          f"{'B median [q1, q3]':<28} {'change':>8}  label")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            skipped.append(f"{workload}: not in B")
            continue
        for metric in END_TO_END:
            a_cell = a["workloads"][workload]["end_to_end"][metric.name]
            b_cell = b["workloads"][workload]["end_to_end"][metric.name]
            a_samples, b_samples = _cell(a_cell), _cell(b_cell)
            if a_samples is None or b_samples is None:
                reason = a_cell.get("value") if a_samples is None \
                    else b_cell.get("value")
                skipped.append(f"{workload} {metric.name}: {reason}")
                continue
            verdict = label(a_samples, b_samples, metric.better,
                            metric.bound)
            a_med = statistics.median(a_samples)
            b_med = statistics.median(b_samples)
            change = (f"{(b_med - a_med) / abs(a_med):+.1%}" if a_med
                      else f"{b_med - a_med:+g}")
            note = ""
            if verdict == "unresolved":
                widest = max(q3 - q1 for q1, __, q3 in (
                    _quartiles(a_samples), _quartiles(b_samples)))
                note = (f" (spread {widest / abs(a_med):.1%} > bound "
                        f"{metric.bound:.0%})")
            print(f"{workload:<20} {metric.name:<12} "
                  f"{_describe(a_samples):<28} {_describe(b_samples):<28} "
                  f"{change:>8}  {verdict}{note}")
            if verdict == "regressed" or (metric.name == "failed_frac"
                                          and b_med > a_med):
                failed = True
    for workload in b["workloads"]:
        if workload not in a["workloads"]:
            skipped.append(f"{workload}: not in A")
    for entry in skipped:
        print(f"skipped, unmeasured: {entry}")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline results JSON")
    parser.add_argument("b", type=Path, help="candidate results JSON")
    args = parser.parse_args(argv)
    return compare(json.loads(args.a.read_text()),
                   json.loads(args.b.read_text()))


if __name__ == "__main__":
    sys.exit(main())
