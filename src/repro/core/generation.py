"""Test case generation (paper §4.1).

Turns a profiled corpus into executable test cases:

1. take the data-flow index the caller built over the corpus profiles
   (write/read points per kernel address),
2. enumerate candidate flows at each overlapping address,
3. cluster them under the chosen strategy, reservoir-sampling each
   cluster's representative test case toward short programs,
4. deduplicate representatives by (sender, receiver) program pair for
   execution — one execution covers every cluster the pair represents.

The RAND baseline of Table 4 bypasses the analysis entirely and samples
random program pairs from the corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..corpus.program import TestProgram
from .clustering import ClusteringStrategy
from .dataflow import AccessPoint


@dataclass
class TestCase:
    """A sender/receiver program pair to execute."""

    __test__ = False  # not a pytest class, despite the name

    sender_index: int
    receiver_index: int
    sender: TestProgram
    receiver: TestProgram
    #: Cluster keys this pair represents (≥1 for data-flow cases; empty
    #: for RAND cases).
    cluster_keys: List[Hashable] = field(default_factory=list)

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.sender_index, self.receiver_index)


@dataclass
class GenerationResult:
    """Test cases plus the Table-4 bookkeeping."""

    strategy: str
    test_cases: List[TestCase]
    #: Number of clusters (Table 4's "Test cases" column for DF-*).
    cluster_count: int
    #: Unclustered candidate flows (Table 4's DF row).
    flow_count: int
    #: Kernel addresses with write/read overlap.
    overlap_addresses: int


class TestCaseGenerator:
    """Generates test cases from a corpus and its data-flow index."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, corpus: Sequence[TestProgram], index=None):
        self._corpus = list(corpus)
        #: The join generation streams: a ColumnarAccessIndex on the
        #: campaign path, or anything with its iter_overlaps and
        #: total_flow_count (the reference DataFlowIndex in tests).
        #: Only generate_random works without one.
        self._index = index

    # -- data-flow generation -------------------------------------------------

    def generate(self, strategy: ClusteringStrategy,
                 max_clusters: Optional[int] = None,
                 rep_seed: int = 0) -> GenerationResult:
        """Cluster candidate flows and emit one representative per cluster.

        The representative of each cluster is reservoir-sampled (with the
        deterministic *rep_seed*) rather than first-seen, with weights
        strongly favouring *short* programs: fuzzer corpora are
        minimized, and a minimal reproducer is the representative a
        triager wants — while clusters only ever witnessed by long noisy
        programs still get those, which is what exercises the Table-5
        filtering funnel.  (The paper only requires "one test case from
        each cluster", §4.2.)

        ``max_clusters`` caps materialization for the unclustered DF
        baseline, whose cluster count equals the flow count and is only
        reported, not executed, in Table 4.
        """
        index = self._index
        if index is None:
            raise ValueError("data-flow strategies need a data-flow index; "
                             "only generate_random works without one")
        rng = random.Random(rep_seed)
        clusters: Dict[Hashable, Tuple[AccessPoint, AccessPoint]] = {}
        best_key: Dict[Hashable, float] = {}
        overlap_count = 0
        # Stream join rows: only one address's points are resident at
        # a time.
        for __, writers, readers in index.iter_overlaps():
            overlap_count += 1
            write_groups = self._group(writers, strategy.write_key, rng)
            read_groups = self._group(readers, strategy.read_key, rng)
            for write_key, write_point in write_groups.items():
                for read_key, read_point in read_groups.items():
                    key = (write_key, read_key)
                    weight = self._pair_weight(write_point, read_point)
                    # Weighted reservoir sampling (A-Res): keep the max
                    # of u^(1/w) across candidates.
                    sample = rng.random() ** (1.0 / weight)
                    if sample > best_key.get(key, -1.0):
                        best_key[key] = sample
                        clusters[key] = (write_point, read_point)
        cluster_count = len(clusters)
        cases = self._materialize(clusters, max_clusters)
        return GenerationResult(
            strategy=strategy.name,
            test_cases=cases,
            cluster_count=cluster_count,
            flow_count=index.total_flow_count(),
            overlap_addresses=overlap_count,
        )

    def _pair_weight(self, write_point: AccessPoint,
                     read_point: AccessPoint) -> float:
        """Sampling weight: strongly prefer minimal program pairs."""
        total = (len(self._corpus[write_point.prog_index])
                 + len(self._corpus[read_point.prog_index]))
        return 1.0 / float(total) ** 2

    def _group(self, points: List[AccessPoint], key_fn,
               rng: random.Random) -> Dict[Hashable, AccessPoint]:
        """Group points by key, weighted-reservoir-sampling one
        representative per group (same minimal-program preference as the
        cluster level)."""
        groups: Dict[Hashable, AccessPoint] = {}
        best: Dict[Hashable, float] = {}
        for point in points:
            key = key_fn(point)
            weight = 1.0 / float(len(self._corpus[point.prog_index])) ** 2
            sample = rng.random() ** (1.0 / weight)
            if sample > best.get(key, -1.0):
                best[key] = sample
                groups[key] = point
        return groups

    def _materialize(self, clusters, max_clusters: Optional[int]) -> List[TestCase]:
        by_pair: Dict[Tuple[int, int], TestCase] = {}
        for count, (key, (write_point, read_point)) in enumerate(clusters.items()):
            if max_clusters is not None and count >= max_clusters:
                break
            pair = (write_point.prog_index, read_point.prog_index)
            case = by_pair.get(pair)
            if case is None:
                case = TestCase(
                    sender_index=pair[0],
                    receiver_index=pair[1],
                    sender=self._corpus[pair[0]],
                    receiver=self._corpus[pair[1]],
                )
                by_pair[pair] = case
            case.cluster_keys.append(key)
        return list(by_pair.values())

    # -- RAND baseline ------------------------------------------------------------

    def generate_random(self, budget: int, seed: int = 0) -> GenerationResult:
        """Random sender/receiver pairs — Table 4's RAND row."""
        rng = random.Random(seed)
        size = len(self._corpus)
        seen = set()
        cases: List[TestCase] = []
        attempts = 0
        while len(cases) < budget and attempts < budget * 10:
            attempts += 1
            pair = (rng.randrange(size), rng.randrange(size))
            if pair in seen:
                continue
            seen.add(pair)
            cases.append(TestCase(pair[0], pair[1],
                                  self._corpus[pair[0]], self._corpus[pair[1]]))
        return GenerationResult(
            strategy="rand",
            test_cases=cases,
            cluster_count=len(cases),
            flow_count=0,
            overlap_addresses=0,
        )
