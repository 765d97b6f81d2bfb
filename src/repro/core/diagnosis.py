"""Report diagnosis — Algorithm 2 (paper §4.4).

"To find the root-cause sender system calls, KIT uses a differential
testing approach — for every system call in the sender program, KIT
checks whether skipping this sender call during execution will mask the
functional interference."

The implementation follows the pseudocode exactly: iterate the sender's
calls in inverse order, remove each (cumulatively — ``PS`` keeps
shrinking), re-run the test case through the full detection filter
chain, and attribute every receiver call whose interference disappeared
(``ΔIR``) to the removed sender call.  Only the *first* receiver call of
``ΔIR`` joins the culprit list, because downstream receiver divergences
are dependency fallout of the first one.

Each variant runs through the detector like any test case, so the
campaign's sender-state cache serves the variants several reports
share (reports with one sender remove the same calls in the same
order).
"""

from __future__ import annotations

from typing import List, Set

from .detection import Detector
from .report import CulpritPair, TestReport


class Diagnoser:
    """Runs Algorithm 2 over confirmed reports."""

    def __init__(self, detector: Detector):
        self._detector = detector
        #: Differential re-executions performed (diagnosis cost metric).
        self.reruns = 0

    def diagnose(self, report: TestReport) -> List[CulpritPair]:
        """Identify the culprit (sender, receiver) syscall pairs."""
        sender = report.case.sender
        receiver = report.case.receiver
        remaining: Set[int] = set(report.interfered_indices)
        culprits: List[CulpritPair] = []
        for index in reversed(sender.live_call_indices()):
            if not remaining:
                break
            sender = sender.without_call(index)          # PS <- RemoveCall(PS, i)
            surviving = self._detector.interference_set(sender, receiver)
            self.reruns += 1
            masked = remaining - surviving                # delta-IR
            if not masked:
                continue
            culprits.append(CulpritPair(index, min(masked)))
            remaining -= masked
        report.culprit_pairs = culprits
        return culprits
