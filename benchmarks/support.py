"""Helpers shared by the benchmark harness."""

from __future__ import annotations

import os
import time
from typing import Sequence

from repro.vm.machine import RECEIVER, SENDER

#: Corpus scale for benchmark campaigns (paper: 98,853 — see DESIGN.md's
#: scaled-down-parameters table).
BENCH_CORPUS_SIZE = 200
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit_table(name: str, title: str, lines: Sequence[str]) -> str:
    """Print a regenerated table and persist it to benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join([title, "=" * len(title), *lines, ""])
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text)
    print(f"\n{text}[written to {path}]")
    return text


def case_reset_seconds(machine, sender, receiver, runs: int) -> float:
    """Mean latency of a reset right after one case's sender and
    receiver runs: the reset a campaign pays, unlike back-to-back
    resets, which restore only the always-dirty groups."""
    total = 0.0
    for _ in range(runs):
        machine.run(SENDER, sender)
        machine.run(RECEIVER, receiver)
        start = time.perf_counter()
        machine.reset()
        total += time.perf_counter() - start
    return total / runs
