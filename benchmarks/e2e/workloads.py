"""The benchmark's four workloads and their pinned seed-1 outcomes.

Each workload builds its corpus from the seed; the program receives only
the generated program list.  The four are chosen so each layer dominates
at least one of them (see README.md for the per-layer map):

* ``df-exec-200`` — the warm execution path (sender cache hits ~99%).
* ``rand-cold-4k`` — the cold execution path (sender cache mostly
  written, not read), and no profiling at all.
* ``profile-columnar-4k`` — profiling, the columnar index build and the
  merge-join; execution is a few percent.
* ``stored-shards-200`` — ``df-exec-200`` plus the fsync'd campaign
  journal and the process shard pool.

This module imports nothing from the program, so a repetition's set-up
time starts before the program is imported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional

ALL_BUGS = frozenset(str(bug) for bug in range(1, 10))


@dataclass(frozen=True)
class Pin:
    """Outcomes a seed must reproduce exactly."""

    cases: Optional[int] = None
    reports: Optional[int] = None
    bugs: Optional[FrozenSet[str]] = None
    #: Outcome histogram (outcome value -> cases).
    outcomes: Optional[Dict[str, int]] = None


#: df-exec-200 at seed 1; stored-shards-200 must land the same verdicts.
_DF_SEED1_OUTCOMES = {"pass": 5875, "nondet": 458, "resource": 3,
                      "report": 548}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus_size: int
    #: CampaignConfig fields besides the machine, corpus and store.
    options: Dict[str, Any]
    #: Journal every landed case into a fresh campaign store.
    stored: bool = False
    pins: Dict[int, Pin] = field(default_factory=dict)

    @property
    def sharded(self) -> bool:
        """Execution runs in forked shards the tracer cannot see into."""
        return self.options.get("shard_mode") == "process"

    def config(self, corpus, store_dir: Optional[str] = None):
        """The campaign config for *corpus* (imports the program)."""
        from repro import CampaignConfig, MachineConfig, linux_5_13

        return CampaignConfig(machine=MachineConfig(bugs=linux_5_13()),
                              corpus=corpus, store_dir=store_dir,
                              **self.options)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "df-exec-200",
        "warm execution path: execution and diagnosis are ~93% of wall "
        "time and the sender cache hits 99%",
        corpus_size=200,
        options=dict(strategy="df"),
        pins={1: Pin(cases=6884, reports=548, bugs=ALL_BUGS,
                     outcomes=_DF_SEED1_OUTCOMES)},
    ),
    Workload(
        "rand-cold-4k",
        "cold execution path: random pairs, no profiling, the sender cache "
        "hits ~36% so delta capture and reset dominate",
        corpus_size=4000,
        options=dict(strategy="rand", rand_budget=4000, rand_seed=7),
        pins={1: Pin(cases=4000, bugs=frozenset({"1", "5", "6", "8"}))},
    ),
    Workload(
        "profile-columnar-4k",
        "profiling is ~95% of wall time, then the columnar index build and "
        "merge-join; the pinned DF-IA preset at 4k programs",
        corpus_size=4000,
        options=dict(strategy="df-ia", index_backend="columnar"),
        pins={1: Pin(cases=110, bugs=ALL_BUGS)},
    ),
    Workload(
        "stored-shards-200",
        "df-exec-200 plus an fsync'd journal append per case and the "
        "process shard pool with its shared-memory tier",
        corpus_size=200,
        options=dict(strategy="df", workers=2, shard_mode="process"),
        stored=True,
        pins={1: Pin(cases=6884, reports=548, bugs=ALL_BUGS,
                     outcomes=_DF_SEED1_OUTCOMES)},
    ),
)}
