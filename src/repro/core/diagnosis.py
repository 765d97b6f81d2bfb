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

Because removal is cumulative *from the top*, every sender variant
Algorithm 2 executes is exactly a **prefix** of the original sender:
the variant tested after removing call *i* contains the live calls
below *i* and holes everywhere else, and holes execute as no-ops (no
state change, no timer tick).  So instead of replaying each prefix from
the snapshot, the diagnoser steps through the original sender *once*,
checkpointing a segmented state delta every few live calls — the
memoized machine states of every variant Algorithm 2 will ever need.
Each differential re-run then restores ``base + nearest checkpoint``,
replays at most a couple of slots, and runs only the receiver.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..corpus.program import TestProgram
from ..vm.machine import SENDER
from .detection import Detector
from .execution import PreparedSenderState
from .report import CulpritPair, TestReport

#: Live calls between prefix-state checkpoints.  A delta capture costs
#: roughly ten syscall executions, so checkpointing every call makes
#: the memo *slower* than plain prefix replay on long senders; stride 4
#: keeps the worst-case replay at three slots while cutting captures
#: fourfold, which is near the optimum for both short and long senders.
PREFIX_CHECKPOINT_STRIDE = 4


class Diagnoser:
    """Runs Algorithm 2 over confirmed reports."""

    def __init__(self, detector: Detector, prefix_memo: bool = True):
        self._detector = detector
        #: Reuse memoized sender prefix states instead of replaying
        #: each prefix from the snapshot.
        self._prefix_memo = prefix_memo
        #: Differential re-executions performed (diagnosis cost metric).
        self.reruns = 0
        #: Re-runs served from a memoized prefix state instead of a
        #: full sender replay (§6.5 sender-cache telemetry).
        self.prefix_reuses = 0

    def diagnose(self, report: TestReport) -> List[CulpritPair]:
        """Identify the culprit (sender, receiver) syscall pairs."""
        sender = report.case.sender
        receiver = report.case.receiver
        remaining: Set[int] = set(report.interfered_indices)
        culprits: List[CulpritPair] = []
        live = sender.live_call_indices()
        prefixes = self._capture_prefixes(sender, live) if remaining else None
        for index in reversed(live):
            if not remaining:
                break
            sender = sender.without_call(index)          # PS <- RemoveCall(PS, i)
            prepared = prefixes.get(index) if prefixes is not None else None
            surviving = self._detector.interference_set(sender, receiver,
                                                        prepared=prepared)
            self.reruns += 1
            if prepared is not None:
                self.prefix_reuses += 1
            masked = remaining - surviving                # delta-IR
            if not masked:
                continue
            culprits.append(CulpritPair(index, min(masked)))
            remaining -= masked
        report.culprit_pairs = culprits
        return culprits

    def _capture_prefixes(self, sender: TestProgram, live: List[int]
                          ) -> Optional[Dict[int, PreparedSenderState]]:
        """One stepped sender pass → a prefix state per live call.

        The state *before* live call ``i`` executes is the post-sender
        state of the variant whose calls ``>= i`` were all removed; its
        record list is the executed prefix padded with the holes the
        variant would have produced.  Capturing a delta at every live
        call would cost more than the replays it saves — one capture
        pickles every dirty group, an order of magnitude more than one
        syscall — so deltas are checkpointed every
        :data:`PREFIX_CHECKPOINT_STRIDE` live calls and the in-between
        variants record a ``(program, start, stop)`` replay range:
        restore the checkpoint, deterministically re-execute at most
        ``stride - 1`` slots.  Injected faults during the pass propagate
        to the per-report retry wrapper, exactly as a faulted replay
        would.
        """
        if not self._prefix_memo or not live:
            return None
        machine = self._detector.machine
        machine.reset()
        session = machine.begin_stepped(SENDER, sender)
        total = len(sender.calls)
        prefixes: Dict[int, PreparedSenderState] = {}
        checkpoint = None
        checkpoint_pos = 0
        since_checkpoint = 0
        for index in sorted(live):
            while session.position < index:
                session.step()
            records = session.records_so_far()
            records.extend([None] * (total - len(records)))
            if checkpoint is None \
                    or since_checkpoint >= PREFIX_CHECKPOINT_STRIDE:
                checkpoint = machine.capture_state_delta()
                checkpoint_pos = index
                since_checkpoint = 0
                prefixes[index] = PreparedSenderState(checkpoint, records)
            else:
                prefixes[index] = PreparedSenderState(
                    checkpoint, records,
                    replay=(sender, checkpoint_pos, index))
            since_checkpoint += 1
        return prefixes
