"""Functional interference bug detection (paper §4.3).

For each test case:

1. run both executions (§4.2) and build the receiver trace ASTs,
2. compare raw — no divergence means the case passes,
3. apply the receiver program's non-determinism marks (§4.3.2) and
   compare again — divergence that evaporates was timing noise,
4. keep only divergences on syscalls that access namespace-protected
   resources per the specification (§4.3.1),
5. what survives is a :class:`~repro.core.report.TestReport`.

The stage-by-stage outcome taxonomy feeds Table 5 (report filtering
effectiveness) directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..corpus.program import TestProgram
from ..vm.machine import Machine
from .execution import BaselineCache, SenderStateCache, TestCaseRunner
from .generation import TestCase
from .nondet import NondetAnalyzer
from .report import TestReport
from .schedule import ScheduleExplorer
from .spec import Specification
from .trace_ast import (
    NodeDiff,
    apply_nondet_marks,
    build_trace_ast,
    syscall_trace_cmp,
)


class Outcome(enum.Enum):
    """What happened to one executed test case."""

    PASS = "pass"                      # no divergence at all
    FILTERED_NONDET = "nondet"        # divergence was non-deterministic
    FILTERED_RESOURCE = "resource"    # divergence on unprotected resources
    REPORT = "report"                  # functional interference detected
    #: The case could not be executed because infrastructure faults
    #: exhausted their retry budget; it carries no verdict about the
    #: kernel and must never surface as a bug report.
    INFRA_FAILED = "infra_failed"
    #: The case was quarantined as a poison pair: it killed the worker
    #: running it ``poison_after`` times and is never retried — not in
    #: this run and (via the campaign journal) not in a resumed one.
    #: Like ``INFRA_FAILED`` it carries no verdict about the kernel.
    POISONED = "poisoned"


@dataclass
class DetectionResult:
    """Outcome of checking one test case."""

    case: TestCase
    outcome: Outcome
    report: Optional[TestReport] = None
    raw_diff_count: int = 0
    #: Interleaved schedules executed for this case (0 when the case was
    #: not explored — sequential report, unselected pair, or a campaign
    #: without ``--interleave``).
    schedules_run: int = 0


class Detector:
    """The §4.3 detection pipeline bound to one machine."""

    def __init__(self, machine: Machine, spec: Specification,
                 nondet: Optional[NondetAnalyzer] = None,
                 baselines: Optional[BaselineCache] = None,
                 sender_states: Optional[SenderStateCache] = None,
                 explorer: Optional[ScheduleExplorer] = None):
        self._machine = machine
        self._spec = spec
        # *baselines* and *sender_states* may be shared across the
        # detectors of a worker pool: both are keyed by
        # snapshot-relative program state.
        self._runner = TestCaseRunner(machine, baselines=baselines,
                                      sender_states=sender_states)
        self._nondet = nondet or NondetAnalyzer(machine)
        # Optional controlled-interleaving exploration: cases that are
        # clean sequentially get their bounded schedule set run too,
        # and any witnessing schedule upgrades them to a report.
        self._explorer = explorer

    @property
    def machine(self) -> Machine:
        return self._machine

    @property
    def runner(self) -> TestCaseRunner:
        return self._runner

    @property
    def nondet(self) -> NondetAnalyzer:
        return self._nondet

    # -- public API -------------------------------------------------------------

    def check_case(self, case: TestCase) -> DetectionResult:
        (interfered, diffs, raw_count,
         sender_result, alone_result, with_result) = self._analyze(
            case.sender, case.receiver)
        if interfered:
            protected_diffs = [d for d in diffs if d.call_index in interfered]
            report = TestReport(
                case=case,
                interfered_indices=sorted(interfered),
                diffs=protected_diffs,
                sender_records=sender_result.records,
                receiver_alone_records=alone_result.records,
                receiver_with_records=with_result.records,
            )
            return DetectionResult(case, Outcome.REPORT, report=report,
                                   raw_diff_count=raw_count)
        if raw_count == 0:
            sequential = DetectionResult(case, Outcome.PASS)
        elif not diffs:
            sequential = DetectionResult(case, Outcome.FILTERED_NONDET,
                                         raw_diff_count=raw_count)
        else:
            sequential = DetectionResult(case, Outcome.FILTERED_RESOURCE,
                                         raw_diff_count=raw_count)
        return self._explore_schedules(case, sequential, sender_result,
                                       alone_result)

    def _explore_schedules(self, case: TestCase, sequential: DetectionResult,
                           sender_result, alone_result) -> DetectionResult:
        """Quantify Algorithm 1 over the bounded schedule set (§7).

        Runs only for sequentially-clean cases the policy selects; a
        witnessing schedule upgrades the case to ``REPORT`` with the
        culprit :class:`~repro.core.schedule.ScheduleId` recorded for
        replay.
        """
        if self._explorer is None or \
                not self._explorer.selects(case.sender, case.receiver):
            return sequential
        exploration = self._explorer.explore(case.sender, case.receiver,
                                             alone_result.records)
        sequential.schedules_run = exploration.schedules_run
        if not exploration.found:
            return sequential
        report = TestReport(
            case=case,
            interfered_indices=exploration.interfered,
            diffs=exploration.culprit_diffs,
            sender_records=sender_result.records,
            receiver_alone_records=alone_result.records,
            receiver_with_records=exploration.culprit_records,
            witnesses=exploration.witnesses,
            culprit_schedule=exploration.culprit,
        )
        return DetectionResult(case, Outcome.REPORT, report=report,
                               raw_diff_count=sequential.raw_diff_count,
                               schedules_run=exploration.schedules_run)

    def interference_set(self, sender: TestProgram,
                         receiver: TestProgram) -> Set[int]:
        """Protected-interfered receiver call indices for (sender, receiver).

        This is ``TestFuncI`` in Algorithm 2 — diagnosis re-runs modified
        senders through the same full filter chain.
        """
        interfered, *_ = self._analyze(sender, receiver)
        return interfered

    # -- internals ----------------------------------------------------------------

    def _analyze(self, sender: TestProgram, receiver: TestProgram
                 ) -> Tuple[Set[int], List[NodeDiff], int, object, object, object]:
        alone_result = self._runner.receiver_alone(receiver)
        sender_result, with_result = self._runner.run_with_sender(
            sender, receiver)

        tree_alone = build_trace_ast(alone_result.records)
        tree_with = build_trace_ast(with_result.records)
        raw_diffs = syscall_trace_cmp(tree_alone, tree_with)
        if not raw_diffs:
            return set(), [], 0, sender_result, alone_result, with_result

        marks = self._nondet.nondet_paths(receiver)
        apply_nondet_marks(tree_alone, marks)
        apply_nondet_marks(tree_with, marks)
        diffs = syscall_trace_cmp(tree_alone, tree_with)
        if not diffs:
            return set(), [], len(raw_diffs), sender_result, alone_result, with_result

        interfered: Set[int] = set()
        for diff in diffs:
            index = diff.call_index
            if index is None:
                continue
            if self._call_protected(alone_result.records, with_result.records,
                                    index):
                interfered.add(index)
        return (interfered, diffs, len(raw_diffs),
                sender_result, alone_result, with_result)

    def _call_protected(self, alone_records, with_records, index: int) -> bool:
        for records in (with_records, alone_records):
            if 0 <= index < len(records):
                record = records[index]
                if record is not None and self._spec.call_accesses_protected(record):
                    return True
        return False
