"""JSON codecs for syscall records, reports, and detection results.

Shared by the result document of
:meth:`repro.core.pipeline.CampaignResult.to_document` and
:mod:`repro.store` (the write-ahead campaign journal), which must not
import the pipeline module — keeping the codec here breaks the cycle.

The encoding round-trips everything detection and aggregation consume:
decoded reports re-aggregate into the same AGG-R / AGG-RS groups and
render byte-identically to the originals.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..corpus.program import TestProgram
from ..vm.executor import decode_record, encode_record
from .generation import TestCase
from .report import CulpritPair, TestReport
from .trace_ast import NodeDiff


def encode_report(report: TestReport) -> Dict[str, Any]:
    return {
        "sender": report.case.sender.serialize(),
        "receiver": report.case.receiver.serialize(),
        "sender_index": report.case.sender_index,
        "receiver_index": report.case.receiver_index,
        "interfered_indices": report.interfered_indices,
        "diffs": [
            {"path": list(d.path), "label": d.label,
             "value_a": d.value_a, "value_b": d.value_b}
            for d in report.diffs
        ],
        "sender_records": [encode_record(r) for r in report.sender_records],
        "receiver_alone_records": [
            encode_record(r) for r in report.receiver_alone_records],
        "receiver_with_records": [
            encode_record(r) for r in report.receiver_with_records],
        "culprit_pairs": [
            {"sender_index": p.sender_index, "receiver_index": p.receiver_index}
            for p in report.culprit_pairs
        ],
        "witnesses": {encoded: list(indices)
                      for encoded, indices in report.witnesses.items()},
        "culprit_schedule": report.culprit_schedule,
    }


def decode_report(data: Dict[str, Any],
                  case: Optional[TestCase] = None) -> TestReport:
    """Rebuild a report; *case*, when given, replaces the serialized pair.

    Journal replay passes the freshly regenerated :class:`TestCase` so
    the restored report aliases the same case object the rest of the
    resumed campaign uses (cluster keys included) — aggregation then
    cannot tell a restored report from a fresh one.
    """
    if case is None:
        case = TestCase(
            sender_index=data["sender_index"],
            receiver_index=data["receiver_index"],
            sender=TestProgram.parse(data["sender"]),
            receiver=TestProgram.parse(data["receiver"]),
        )
    report = TestReport(
        case=case,
        interfered_indices=list(data["interfered_indices"]),
        diffs=[
            NodeDiff(tuple(d["path"]), d["label"], d["value_a"], d["value_b"])
            for d in data["diffs"]
        ],
        sender_records=[decode_record(r) for r in data["sender_records"]],
        receiver_alone_records=[
            decode_record(r) for r in data["receiver_alone_records"]],
        receiver_with_records=[
            decode_record(r) for r in data["receiver_with_records"]],
    )
    report.culprit_pairs = [
        CulpritPair(p["sender_index"], p["receiver_index"])
        for p in data["culprit_pairs"]
    ]
    # Schedule evidence postdates the first journal format: tolerate its
    # absence so pre-existing journals still replay.
    report.witnesses = {encoded: list(indices) for encoded, indices
                        in (data.get("witnesses") or {}).items()}
    report.culprit_schedule = data.get("culprit_schedule")
    return report
