"""Human-readable and JSON reports for ``repro analyze``.

:func:`analyze` runs the full static pipeline for one kernel version —
access-map extraction, the namespace-escape lint, optionally the
race-pair join, and (optionally) the differential bug rediscovery — and
the two renderers turn the result into a terminal report or a JSON
document for tooling.

Finding order is fully deterministic — escape findings sort by
(rule, file, line, entry) — so two ``--json`` reports from the same
tree diff empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .accessmap import AccessMap, extract_access_map
from .escape import (
    EscapeFinding,
    EscapeLinter,
    RediscoveryReport,
    rediscover_bugs,
)
from .races import RaceCandidate, find_race_candidates
from .sources import KernelSourceIndex


@dataclass
class AnalysisReport:
    """Everything one ``repro analyze`` run produced."""

    kernel: str
    access_map: AccessMap
    escape_findings: List[EscapeFinding]
    rediscovery: Optional[RediscoveryReport] = None
    races: Optional[List[RaceCandidate]] = None

    def unsuppressed(self) -> List[EscapeFinding]:
        return [f for f in self.escape_findings if not f.suppressed]

    def clean(self) -> bool:
        """No unsuppressed escape findings."""
        return not self.unsuppressed()


def _escape_sort_key(finding: EscapeFinding):
    return (finding.rule, finding.access.file, finding.access.line,
            finding.entry)


def analyze(bugs=None, kernel_name: str = "",
            rediscovery: bool = False,
            races: bool = False) -> AnalysisReport:
    """Run the static analyses for the kernel version *bugs* selects.

    *races* adds the lockset race-pair join; *rediscovery* adds the
    differential bug rediscovery over the same source index.
    """
    kernel = kernel_name or (", ".join(bugs.enabled()) if bugs is not None
                             and bugs.enabled() else "fixed")
    index = KernelSourceIndex()
    access_map = extract_access_map(bugs, index)
    report = AnalysisReport(
        kernel=kernel,
        access_map=access_map,
        escape_findings=sorted(EscapeLinter(access_map).run(),
                               key=_escape_sort_key),
    )
    if races:
        report.races = find_race_candidates(access_map)
    if rediscovery:
        report.rediscovery = rediscover_bugs(index)
    return report


# -- text -------------------------------------------------------------------

def render_text(report: AnalysisReport, verbose: bool = False) -> str:
    """The terminal report."""
    entries = report.access_map.entries()
    shared = sum(1 for s in entries.values() if s.shared_accesses())
    lines = [
        f"static interference analysis — kernel: {report.kernel}",
        "",
        f"access map: {len(report.access_map.syscalls)} syscalls, "
        f"{len(report.access_map.proc_reads)} proc read keys, "
        f"{len(report.access_map.proc_writes)} proc write keys, "
        f"{len(report.access_map.paths())} state paths "
        f"({shared} entries touch shared-scope state)",
    ]
    if verbose:
        for name, summary in sorted(entries.items()):
            lines.append(f"  {name}: {len(summary.reads())}r/"
                         f"{len(summary.writes())}w")
            for access in summary.accesses:
                lines.append(f"    {access}")

    unsuppressed = report.unsuppressed()
    suppressed = len(report.escape_findings) - len(unsuppressed)
    lines += ["",
              f"namespace-escape lint: {len(unsuppressed)} finding(s)"
              + (f" ({suppressed} suppressed)" if suppressed else "")]
    for finding in report.escape_findings:
        if finding.suppressed and not verbose:
            continue
        lines.append(f"  {finding.render()}")

    if report.races is not None:
        by_rank: Dict[str, int] = {}
        for candidate in report.races:
            by_rank[candidate.code] = by_rank.get(candidate.code, 0) + 1
        summary = ", ".join(f"{code}={count}"
                            for code, count in sorted(by_rank.items()))
        lines += ["",
                  f"race-pair candidates: {len(report.races)}"
                  + (f" ({summary})" if summary else "")]
        shown = (report.races if verbose
                 else [c for c in report.races if c.rank == 0])
        for candidate in shown:
            lines.append(f"  {candidate.render()}")
        hidden = len(report.races) - len(shown)
        if hidden:
            lines.append(f"  ... {hidden} more (use --verbose)")

    if report.rediscovery is not None:
        r = report.rediscovery
        lines += ["",
                  f"bug rediscovery: {len(r.found)}/{len(r.per_bug)} "
                  f"({100 * r.rate():.0f}%), expectations "
                  + ("matched" if r.matches_expectations() else "VIOLATED")]
        for flag, outcome in sorted(r.per_bug.items()):
            status = "FOUND" if outcome.found else (
                "miss (by design)" if not outcome.expected else "MISSED")
            path = " @path" if outcome.hit_expected_path else ""
            lines.append(f"  {flag}: {status}{path}")
    return "\n".join(lines)


# -- json -------------------------------------------------------------------

def _finding_json(finding: EscapeFinding) -> Dict[str, Any]:
    return {
        "rule": finding.rule,
        "entry": finding.entry,
        "path": finding.access.path,
        "scope": finding.access.scope,
        "kind": finding.access.kind,
        "function": finding.access.function,
        "site": finding.access.site(),
        "spec_entries": list(finding.spec_entries),
        "suppressed": finding.suppressed,
        "message": finding.message,
    }


def render_json(report: AnalysisReport, indent: int = 2) -> str:
    """The machine-readable report."""
    entries = report.access_map.entries()
    doc: Dict[str, Any] = {
        "kernel": report.kernel,
        "access_map": {
            name: {
                "proc_wildcard": summary.proc_wildcard,
                "accesses": [
                    {
                        "path": access.path,
                        "scope": access.scope,
                        "kind": access.kind,
                        "function": access.function,
                        "site": access.site(),
                        "traced": access.traced,
                        "observable": access.observable,
                        "guarded": access.guarded,
                    }
                    for access in summary.accesses
                ],
            }
            for name, summary in sorted(entries.items())
        },
        "escape_findings": [_finding_json(f) for f in report.escape_findings],
        "clean": report.clean(),
    }
    if report.races is not None:
        doc["races"] = [
            {
                "code": c.code,
                "path": c.path,
                "scope": c.scope,
                "entries": [c.entry_a, c.entry_b],
                "rule": c.rule,
                "evidence": [
                    {"kind": a.kind, "site": a.site(),
                     "locks": list(a.locks)}
                    for a in (c.access_a, c.access_b)
                ],
            }
            for c in report.races
        ]
    if report.rediscovery is not None:
        doc["rediscovery"] = {
            "rate": report.rediscovery.rate(),
            "matches_expectations":
                report.rediscovery.matches_expectations(),
            "per_bug": {
                flag: {
                    "found": outcome.found,
                    "expected": outcome.expected,
                    "hit_expected_path": outcome.hit_expected_path,
                    "findings": [f.message for f in outcome.findings],
                }
                for flag, outcome in sorted(
                    report.rediscovery.per_bug.items())
            },
        }
    return json.dumps(doc, indent=indent)
