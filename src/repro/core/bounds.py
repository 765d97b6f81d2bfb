"""Bounds-learning interference detection — the paper's §7 extension.

Plain functional interference testing must ignore any syscall result that
is non-deterministic, which blinds it to interference over inherently
noisy resources (the time namespace; the §6.2 conntrack dump, bug F).
The paper sketches the fix:

    "A possible solution is to learn the valid bounds of resource values,
    caused by non-determinism, through dynamic profiling and detecting
    inter-container resource interference by identifying bound
    violations."

This module implements that detector.  From the same receiver-alone
re-runs the non-determinism analysis performs, it learns a *profile* per
tree path instead of a boolean flag:

* numeric leaves: an ``[min, max]`` interval, widened by a configurable
  relative margin,
* internal nodes: the set of observed child counts (again widened into an
  interval),
* non-numeric varying leaves: the set of observed values.

A with-sender execution then violates the profile when a value falls
outside its interval / observed set — evidence of interference that mere
variance cannot explain.  Divergence on *stable* paths is still reported
exactly as by Algorithm 1.

The companion benchmark
(``benchmarks/bench_ablations.py::test_ablation_bounds_detector``) shows
the payoff: the conntrack-dump leak (bug F), invisible to the baseline
detector, is caught by bound violations on the dump's line count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..corpus.program import TestProgram
from ..vm.machine import RECEIVER, Machine
from .nondet import DEFAULT_OFFSET_SECONDS, offsets_to_boot_ns
from .spec import Specification
from .trace_ast import Path, TraceNode, build_trace_ast

#: Extra headroom applied to learned numeric intervals.
DEFAULT_MARGIN = 0.25


@dataclass
class PathProfile:
    """What re-runs taught us about one tree path."""

    #: Numeric value interval (present when every observation was numeric).
    low: Optional[float] = None
    high: Optional[float] = None
    #: Observed non-numeric values.
    values: Set[str] = field(default_factory=set)
    #: Observed child counts.
    child_counts: Set[int] = field(default_factory=set)

    def observe(self, node: TraceNode) -> None:
        self.child_counts.add(len(node.children))
        if node.value is None:
            return
        # Exact observations are always in-envelope, whatever their type;
        # the numeric interval additionally generalizes between them.
        self.values.add(node.value)
        number = _as_number(node.value)
        if number is not None:
            self.low = number if self.low is None else min(self.low, number)
            self.high = number if self.high is None else max(self.high, number)

    def violates(self, node: TraceNode, margin: float) -> bool:
        if self.child_counts and \
                not self._count_ok(len(node.children), margin):
            return True
        if node.value is None:
            return False
        if node.value in self.values:
            return False
        number = _as_number(node.value)
        if number is not None and self.low is not None and \
                self.high is not None:
            spread = max(abs(self.high), abs(self.low), 1.0) * margin
            return not (self.low - spread <= number <= self.high + spread)
        return True

    def _count_ok(self, count: int, margin: float) -> bool:
        low, high = min(self.child_counts), max(self.child_counts)
        slack = max(1, int(round((high - low) * margin))) \
            if high > low else 0
        return low - slack <= count <= high + slack

    @property
    def varied(self) -> bool:
        """Did re-runs actually disagree on this path?"""
        if len(self.child_counts) > 1:
            return True
        if self.low is not None and self.high is not None:
            return self.low != self.high
        return len(self.values) > 1


def _as_number(value: str) -> Optional[float]:
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


@dataclass
class BoundViolation:
    """One with-sender observation outside the learned envelope."""

    path: Path
    label: str
    observed: Optional[str]
    profile: PathProfile

    @property
    def call_index(self) -> Optional[int]:
        return self.path[0] if self.path else None


class BoundsDetector:
    """The §7 bounds-learning detector.

    Learns per-program envelopes from receiver-alone re-runs (cached), and
    reports with-sender observations that escape them.  Use alongside the
    standard :class:`~repro.core.detection.Detector`: this one trades some
    soundness (an interval can under-approximate legal noise) for the
    ability to test non-deterministic resources at all.
    """

    def __init__(self, machine: Machine, spec: Specification,
                 offsets: Sequence[int] = DEFAULT_OFFSET_SECONDS,
                 extra_rounds: int = 2, margin: float = DEFAULT_MARGIN):
        self._machine = machine
        self._spec = spec
        self._margin = margin
        # More observation points than the boolean analysis needs: the
        # envelope quality grows with samples.
        base = list(offsets_to_boot_ns(offsets))
        extra = [base[-1] + (i + 1) * 13_000_000_000 for i in range(extra_rounds)]
        self._boot_offsets = base + extra
        self._profiles: Dict[str, Dict[Path, PathProfile]] = {}
        self.runs_executed = 0

    # -- learning -----------------------------------------------------------

    def learn(self, receiver: TestProgram) -> Dict[Path, PathProfile]:
        cached = self._profiles.get(receiver.hash_hex)
        if cached is not None:
            return cached
        profiles: Dict[Path, PathProfile] = {}
        for boot_ns in self._boot_offsets:
            self._machine.reset(boot_offset_ns=boot_ns)
            result = self._machine.run(RECEIVER, receiver)
            self.runs_executed += 1
            tree = build_trace_ast(result.records)
            for path, node in tree.walk():
                profiles.setdefault(path, PathProfile()).observe(node)
        self._profiles[receiver.hash_hex] = profiles
        return profiles

    # -- checking -------------------------------------------------------------

    def check(self, sender: TestProgram,
              receiver: TestProgram) -> List[BoundViolation]:
        """Violations observed when the sender precedes the receiver."""
        profiles = self.learn(receiver)
        machine = self._machine
        machine.reset()
        machine.run("sender", sender)
        with_result = machine.run(RECEIVER, receiver)
        tree = build_trace_ast(with_result.records)

        violations: List[BoundViolation] = []
        for path, node in tree.walk():
            profile = profiles.get(path)
            if profile is None:
                # Structure unseen in any re-run: an ancestor's count
                # violation will have reported it; skip the subtree noise.
                continue
            if profile.violates(node, self._margin):
                violations.append(BoundViolation(path, node.label,
                                                 node.value, profile))
        return self._filter_protected(violations, with_result.records)

    def _filter_protected(self, violations: List[BoundViolation],
                          records) -> List[BoundViolation]:
        kept = []
        for violation in violations:
            index = violation.call_index
            if index is None or index >= len(records):
                continue
            record = records[index]
            if record is not None and self._spec.call_accesses_protected(record):
                kept.append(violation)
        return kept
