"""Controlled-interleaving schedules with deterministic replay.

KIT's two-phase execution (sender fully, then receiver) structurally
cannot witness *transient* interference: a sender syscall that perturbs
shared kernel state and restores it before returning — charge a global
counter, deliver, release it — leaves nothing behind for the receiver.
The paper's §7 points at combining KIT with concurrency testing tools.
This module does so by preempting at syscall boundaries and *inside*
syscalls, at the instrumentation points §5.1 already provides:

* A **schedule** is a set of *preemption points* ``P ⊆ [1, H]`` over the
  sender's instrumentation-event stream: one boundary event before each
  sender call (plus one after the last), and — at ``kfunc`` granularity
  — one event per instrumented kernel-function enter/exit during the
  sender's calls (the :func:`~repro.kernel.ktrace.preemption_scope`
  hook).  At each point in ``P`` exactly one receiver call runs, nested
  inside the sender's current syscall; receiver calls left over when
  the sender finishes run as the sequential tail.  The empty set is
  byte-for-byte the paper's two-phase order.
* A :class:`ScheduleId` names a schedule *compactly and portably*:
  ``(strategy, granularity, seed, depth, index)``.  The concrete point
  set is a pure function of the id and the sender's event horizon, via
  the same string-seeded RNG the fault plan uses
  (:func:`repro.faults.plan.decision`) — so an id recorded in a report
  replays the identical interleaving on any machine booted from the
  same snapshot, with no schedule bytes persisted.
* Strategies: ``pct`` draws ``depth`` distinct points per index
  (randomized priority-style scheduling with ``d`` change points, after
  Burckhardt et al.'s PCT); ``sys`` enumerates all point sets of size
  ``1..depth`` lexicographically (systematic, preemption-bounded after
  CHESS); ``rand`` flips a per-event coin.  All are bounded by the
  campaign's schedule budget.

Detection stays Algorithm 1 — receiver-alone baseline, non-determinism
marks, protected-resource filter — but quantifies over the explored
schedules: a case is buggy when ANY schedule's receiver trace diverges
from the sequential baseline.  The witnessing :class:`ScheduleId` is
recorded in the report (and the campaign journal), which is what makes
``kit-repro repro`` replays exact.  See docs/SCHEDULING.md.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, List, Optional, Sequence, Set, Tuple)

from ..corpus.program import ConstArg, TestProgram
from ..faults.plan import SITE_SCHED_PREEMPT, SchedulePreemptInjected
from ..kernel.ktrace import preemption_scope
from ..vm.executor import ExecutionResult, SteppedExecution, SyscallRecord
from ..vm.machine import RECEIVER, SENDER, Machine
from .nondet import NondetAnalyzer
from .spec import Specification
from .trace_ast import (
    NodeDiff,
    apply_nondet_marks,
    build_trace_ast,
    syscall_trace_cmp,
)

#: Preemption-point granularities.
GRANULARITY_KFUNC = "kfunc"      # kernel-function enter/exit + call boundaries
GRANULARITY_SYSCALL = "syscall"  # call boundaries only (coarse, cheap)

#: The sequential (two-phase) schedule's encoded id.
SEQUENTIAL = "seq"

#: Schedule strategies.
STRATEGY_PCT = "pct"
STRATEGY_SYSTEMATIC = "sys"
STRATEGY_RANDOM = "rand"
ALL_STRATEGIES = (STRATEGY_PCT, STRATEGY_SYSTEMATIC, STRATEGY_RANDOM)

_GRANULARITY_CODE = {GRANULARITY_KFUNC: "k", GRANULARITY_SYSCALL: "s"}
_CODE_GRANULARITY = {code: gran for gran, code in _GRANULARITY_CODE.items()}

#: Static-entry prefix for procfs reads (mirrors analysis.accessmap).
_PROC_PREFIX = "proc:"


@dataclass(frozen=True)
class ScheduleId:
    """A compact, replayable schedule name.

    The id never stores concrete points: :func:`schedule_points` derives
    them deterministically from the id and the measured event horizon,
    so the id is stable across processes, shard modes, and resumes.
    """

    strategy: str = STRATEGY_PCT
    granularity: str = GRANULARITY_KFUNC
    seed: int = 11
    depth: int = 3
    index: int = 0

    def encode(self) -> str:
        """``pct:k:11:3:7``-style wire form (``seq`` for sequential)."""
        if self.strategy == SEQUENTIAL:
            return SEQUENTIAL
        return (f"{self.strategy}:{_GRANULARITY_CODE[self.granularity]}:"
                f"{self.seed}:{self.depth}:{self.index}")

    @classmethod
    def parse(cls, text: str) -> "ScheduleId":
        if text == SEQUENTIAL:
            return cls(strategy=SEQUENTIAL)
        parts = text.split(":")
        if len(parts) != 5:
            raise ValueError(f"bad schedule id {text!r} "
                             "(want strategy:granularity:seed:depth:index)")
        strategy, code, seed, depth, index = parts
        if strategy not in ALL_STRATEGIES:
            raise ValueError(f"unknown schedule strategy {strategy!r}")
        if code not in _CODE_GRANULARITY:
            raise ValueError(f"unknown granularity code {code!r}")
        return cls(strategy=strategy, granularity=_CODE_GRANULARITY[code],
                   seed=int(seed), depth=int(depth), index=int(index))


def schedule_points(schedule: ScheduleId,
                    horizon: int) -> Optional[FrozenSet[int]]:
    """The preemption-point set of *schedule* over ``[1, horizon]``.

    Pure function of its arguments — the replay contract.  Returns None
    when a systematic index lies beyond the enumeration (exhausted).
    """
    if schedule.strategy == SEQUENTIAL:
        return frozenset()
    h = max(horizon, 1)
    if schedule.strategy == STRATEGY_PCT:
        rng = random.Random(
            f"{schedule.seed}:pct:{schedule.depth}:{schedule.index}")
        count = min(max(schedule.depth, 1), h)
        return frozenset(rng.sample(range(1, h + 1), count))
    if schedule.strategy == STRATEGY_SYSTEMATIC:
        index = schedule.index
        for size in range(1, max(schedule.depth, 1) + 1):
            if size > h:
                break
            for combo in itertools.combinations(range(1, h + 1), size):
                if index == 0:
                    return frozenset(combo)
                index -= 1
        return None
    if schedule.strategy == STRATEGY_RANDOM:
        rng = random.Random(
            f"{schedule.seed}:rand:{schedule.depth}:{schedule.index}")
        rate = min(1.0, max(schedule.depth, 1) / h)
        return frozenset(point for point in range(1, h + 1)
                         if rng.random() < rate)
    raise ValueError(f"unknown schedule strategy {schedule.strategy!r}")


@dataclass(frozen=True)
class SchedulePolicy:
    """One campaign's schedule-exploration configuration."""

    strategy: str = STRATEGY_PCT
    budget: int = 24
    seed: int = 11
    depth: int = 3
    granularity: str = GRANULARITY_KFUNC
    #: Sorted static-entry-name pairs selected by the race analysis
    #: (:func:`ranked_pair_names`); None explores every case.
    pair_names: Optional[FrozenSet[Tuple[str, str]]] = None

    def selects(self, sender: TestProgram, receiver: TestProgram) -> bool:
        """Should this pair be explored at all?"""
        if self.pair_names is None:
            return True
        sender_entries = program_entries(sender)
        receiver_entries = program_entries(receiver)
        for a in sender_entries:
            for b in receiver_entries:
                key = (a, b) if a <= b else (b, a)
                if key in self.pair_names:
                    return True
        return False

    def schedule_ids(self, horizon: int
                     ) -> List[Tuple[ScheduleId, FrozenSet[int]]]:
        """The budgeted, deduplicated schedule set for one sender.

        Indices that resolve to an already-seen point set (or the empty
        set — that is the sequential baseline, always checked first)
        still consume budget but are not re-executed.
        """
        out: List[Tuple[ScheduleId, FrozenSet[int]]] = []
        seen: Set[FrozenSet[int]] = {frozenset()}
        for index in range(self.budget):
            schedule = ScheduleId(self.strategy, self.granularity,
                                  self.seed, self.depth, index)
            points = schedule_points(schedule, horizon)
            if points is None:
                break
            if points in seen:
                continue
            seen.add(points)
            out.append((schedule, points))
        return out

    def describe(self) -> Dict[str, object]:
        """Result-affecting identity (config fingerprints / store)."""
        return {
            "strategy": self.strategy,
            "budget": self.budget,
            "seed": self.seed,
            "depth": self.depth,
            "granularity": self.granularity,
            "pairs": (sorted("|".join(pair) for pair in self.pair_names)
                      if self.pair_names is not None else None),
        }


def program_entries(program: TestProgram) -> FrozenSet[str]:
    """The static entry names a program can reach: its call names plus
    ``proc:<key>`` for every constant ``/proc`` path it opens — the name
    space :mod:`repro.analysis.races` candidates use."""
    entries: Set[str] = set()
    for call in program.calls:
        if call is None:
            continue
        entries.add(call.name)
        for arg in call.args:
            if isinstance(arg, ConstArg) and isinstance(arg.value, str) \
                    and arg.value.startswith("/proc/"):
                entries.add(_PROC_PREFIX + arg.value[len("/proc/"):])
    return frozenset(entries)


def ranked_pair_names(candidates: Sequence,
                      top_n: int) -> FrozenSet[Tuple[str, str]]:
    """Entry-name pairs of the *top_n* best-ranked R0/R1 candidates.

    *candidates* is :func:`repro.analysis.races.find_race_candidates`
    output (already sorted best rank first).  R2 (namespace-scope)
    pairs are skipped: they need both programs in one container, which
    the two-container harness never runs.
    """
    pairs: List[Tuple[str, str]] = []
    for candidate in candidates:
        if candidate.rank > 1:
            continue
        key = (candidate.entry_a, candidate.entry_b)
        if key in pairs:
            continue
        pairs.append(key)
        if len(pairs) >= top_n:
            break
    return frozenset(pairs)


# -- execution ------------------------------------------------------------


class PreemptionController:
    """Counts sender-side events and dispatches receiver calls.

    Installed (via :func:`~repro.kernel.ktrace.preemption_scope`) for
    the dynamic extent of the sender's calls.  Events raised while a
    receiver call is being dispatched are ignored — points index the
    *sender's* event stream only, which keeps the stream (and therefore
    every schedule) a pure function of the sender program.
    """

    def __init__(self, points: FrozenSet[int],
                 receiver_session: SteppedExecution):
        self._points = points
        self._receiver = receiver_session
        self._ordinal = 0
        self._in_dispatch = False
        #: Receiver calls dispatched at preemption points (not the tail).
        self.dispatched = 0

    def on_kfunc_event(self, func_id: int, kind: int) -> None:
        self._advance()

    def on_boundary(self) -> None:
        self._advance()

    def _advance(self) -> None:
        if self._in_dispatch:
            return
        self._ordinal += 1
        if self._ordinal in self._points and not self._receiver.done:
            self._in_dispatch = True
            try:
                self._receiver.step()
                self.dispatched += 1
            finally:
                self._in_dispatch = False


def run_interleaved(machine: Machine, sender: TestProgram,
                    receiver: TestProgram, points: FrozenSet[int],
                    granularity: str = GRANULARITY_KFUNC
                    ) -> Tuple[ExecutionResult, ExecutionResult]:
    """Execute the pair from a fresh restore under *points*.

    Returns ``(sender_result, receiver_result)``.  The empty point set
    reproduces the two-phase order exactly (the sequential tail runs
    every receiver call after the sender finishes).
    """
    faults = machine.faults
    if faults is not None and faults.should_inject(SITE_SCHED_PREEMPT):
        raise SchedulePreemptInjected(
            SITE_SCHED_PREEMPT, "injected schedule-execution death")
    machine.reset()
    sender_session = machine.begin_stepped(SENDER, sender)
    receiver_session = machine.begin_stepped(RECEIVER, receiver)
    controller = PreemptionController(points, receiver_session)

    def drive_sender() -> None:
        while not sender_session.done:
            controller.on_boundary()
            sender_session.step()
        controller.on_boundary()

    if granularity == GRANULARITY_KFUNC:
        with preemption_scope(controller.on_kfunc_event):
            drive_sender()
    else:
        drive_sender()
    while receiver_session.step():
        pass
    return sender_session.result(), receiver_session.result()


def measure_horizon(machine: Machine, sender: TestProgram,
                    granularity: str = GRANULARITY_KFUNC) -> int:
    """The sender's preemption-event horizon ``H``.

    A counting-hook dry run from a fresh restore: boundaries contribute
    ``len(calls) + 1`` events, and at ``kfunc`` granularity every
    instrumented function enter/exit during the sender's own calls adds
    one (timer ticks are masked by the kernel, receiver events do not
    exist in a solo run).  Deterministic for a fixed snapshot, so id →
    points derivation agrees between record and replay.
    """
    boundaries = len(sender.calls) + 1
    if granularity == GRANULARITY_SYSCALL:
        return boundaries
    machine.reset()
    session = machine.begin_stepped(SENDER, sender)
    events = [0]

    def count(func_id: int, kind: int) -> None:
        events[0] += 1

    with preemption_scope(count):
        while session.step():
            pass
    return events[0] + boundaries


def replay_schedule(machine: Machine, sender: TestProgram,
                    receiver: TestProgram,
                    encoded: str) -> ExecutionResult:
    """Re-execute the exact interleaving a report recorded.

    Re-measures the horizon (deterministic), re-derives the point set
    from the id, and runs it — the receiver's records are byte-for-byte
    those of the original witnessing run.
    """
    schedule = ScheduleId.parse(encoded)
    horizon = measure_horizon(machine, sender, schedule.granularity)
    points = schedule_points(schedule, horizon)
    if points is None:
        raise ValueError(f"schedule {encoded!r} is beyond the systematic "
                         f"enumeration for horizon {horizon}")
    __, receiver_result = run_interleaved(machine, sender, receiver,
                                          points, schedule.granularity)
    return receiver_result


# -- exploration ----------------------------------------------------------


@dataclass
class ExplorationResult:
    """What exploring one case's schedule set produced."""

    #: encoded ScheduleId -> interfered receiver call indices (protected).
    witnesses: Dict[str, List[int]] = field(default_factory=dict)
    #: First witnessing schedule — the one the report replays.
    culprit: Optional[str] = None
    culprit_records: List[Optional[SyscallRecord]] = field(
        default_factory=list)
    culprit_diffs: List[NodeDiff] = field(default_factory=list)
    interfered: List[int] = field(default_factory=list)
    schedules_run: int = 0

    @property
    def found(self) -> bool:
        return bool(self.witnesses)


class ScheduleExplorer:
    """Runs one case's bounded schedule set and collects witnesses.

    Bound to one machine, like the :class:`~repro.core.detection.Detector`
    that owns it; an injected ``sched.preempt`` fault aborts the whole
    case, whose retry (``call_with_fault_retries``) re-runs exploration
    from a fresh restore.
    """

    def __init__(self, machine: Machine, spec: Specification,
                 nondet: NondetAnalyzer, policy: SchedulePolicy):
        self._machine = machine
        self._spec = spec
        self._nondet = nondet
        self.policy = policy
        self._horizons: Dict[str, int] = {}

    def selects(self, sender: TestProgram, receiver: TestProgram) -> bool:
        return self.policy.selects(sender, receiver)

    def horizon(self, sender: TestProgram) -> int:
        cached = self._horizons.get(sender.hash_hex)
        if cached is None:
            cached = measure_horizon(self._machine, sender,
                                     self.policy.granularity)
            self._horizons[sender.hash_hex] = cached
        return cached

    def explore(self, sender: TestProgram, receiver: TestProgram,
                alone_records: List[Optional[SyscallRecord]]
                ) -> ExplorationResult:
        """Run the schedule set against the sequential-alone baseline."""
        marks = self._nondet.nondet_paths(receiver)
        tree_alone = apply_nondet_marks(build_trace_ast(alone_records),
                                        marks)
        result = ExplorationResult()
        horizon = self.horizon(sender)
        for schedule, points in self.policy.schedule_ids(horizon):
            __, receiver_result = run_interleaved(
                self._machine, sender, receiver, points,
                self.policy.granularity)
            result.schedules_run += 1
            tree_sched = apply_nondet_marks(
                build_trace_ast(receiver_result.records), marks)
            diffs = syscall_trace_cmp(tree_alone, tree_sched)
            if not diffs:
                continue
            interfered: Set[int] = set()
            for diff in diffs:
                index = diff.call_index
                if index is None:
                    continue
                record = (receiver_result.records[index]
                          if 0 <= index < len(receiver_result.records)
                          else None)
                if record is not None and \
                        self._spec.call_accesses_protected(record):
                    interfered.add(index)
            if not interfered:
                continue
            encoded = schedule.encode()
            result.witnesses[encoded] = sorted(interfered)
            if result.culprit is None:
                result.culprit = encoded
                result.culprit_records = list(receiver_result.records)
                result.culprit_diffs = [d for d in diffs
                                        if d.call_index in interfered]
                result.interfered = sorted(interfered)
        return result
