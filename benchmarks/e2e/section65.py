"""The §6.5 cost table, rendered from a report-mode results JSON.

The paper (§6.5) profiles 98,853 programs in under 9 hours on one
server, executes 1.13M test cases in 10 hours on 110 VMs (31.3
execs/s), and finishes analysis in under 30 minutes.  Each line here is
labelled ``measured`` or ``projected (linear from N=...)``; a projection
scales a measured per-item cost linearly to the paper's corpus.
"""

from __future__ import annotations

from typing import List, Optional

PAPER_PROGRAMS = 98_853
PAPER_CASES = 1_130_000


def _hours(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.2f} h"
    if seconds >= 60:
        return f"{seconds / 60:.1f} min"
    return f"{seconds:.1f} s"


def render(result: dict) -> str:
    workloads = result["workloads"]

    def layer(workload: str, name: str):
        """A per-layer number, or the reason there is none."""
        data = workloads.get(workload)
        if data is None or not data["per_layer"]:
            return f"unmeasured ({workload} not traced)"
        return data["per_layer"][name]["value"]

    def median(workload: str, name: str):
        data = workloads.get(workload)
        if data is None:
            return f"unmeasured ({workload} not run)"
        cell = data["end_to_end"][name]
        return cell.get("value", cell.get("median"))

    def number(*values) -> Optional[str]:
        """The first reason string among *values*, else None."""
        for value in values:
            if isinstance(value, str):
                return value
        return None

    rows: List[tuple] = []
    us_per_program = layer("profile-columnar-4k", "profile.us_per_program")
    reason = number(us_per_program)
    rows.append(("Profile 98,853 programs",
                 reason or _hours(us_per_program * PAPER_PROGRAMS / 1e6),
                 "<9 h, 1 server",
                 "" if reason else "projected (linear from N=4,000)"))
    rate = median("df-exec-200", "cases_per_s")
    cases = workloads.get("df-exec-200", {}).get("cases_total", 0)
    reason = number(rate)
    rows.append(("Execute 1.13M test cases",
                 reason or _hours(PAPER_CASES / rate),
                 "10 h, 110 VMs",
                 "" if reason else f"projected (linear from N={cases:,})"))
    add_ns = layer("profile-columnar-4k", "accessindex.add_ns_per_point")
    points = layer("profile-columnar-4k", "accessindex.points")
    generate_s = layer("profile-columnar-4k", "generation.generate_s")
    reason = number(add_ns, points, generate_s)
    if reason is None:
        scale = PAPER_PROGRAMS / 4000
        analysis_s = add_ns * points * scale / 1e9 + generate_s * scale
    rows.append(("Analyse 98,853 programs (index + generation)",
                 reason or _hours(analysis_s), "<30 min",
                 "" if reason else "projected (linear from N=4,000)"))
    reason = number(us_per_program)
    rows.append(("Profiling cost per program",
                 reason or f"{us_per_program:,.0f} us", "<330 ms (9 h/98,853)",
                 "" if reason else "measured (N=4,000, traced)"))
    reason = number(rate)
    rows.append(("Execution rate, df-exec-200",
                 reason or f"{rate:,.0f} cases/s", "31.3 execs/s, 110 VMs",
                 "" if reason else f"measured (N={cases:,})"))

    title = "§6.5 performance: this repro against the paper"
    lines = [
        title, "=" * len(title),
        f"commit {result['commit'][:12]}, seed {result['seed']}, "
        f"K={result['repeats']}, {result['cpu_count']} cpu, "
        f"Python {result['python']}",
        "",
        f"{'Cost':<46} {'This repro':<22} {'Paper':<22} Basis",
        "-" * 118,
    ]
    for label, ours, paper, basis in rows:
        if ours.startswith("unmeasured"):
            ours, basis = "-", ours
        lines.append(f"{label:<46} {ours:<22} {paper:<22} {basis}")
    lines += [
        "",
        "Where traced wall time goes: snapshot restore (reset + sender-delta",
        "apply + delta capture, self time) against syscall execution",
        "(Machine.run self time).",
        "",
        f"{'Workload':<22} {'restore share':<28} {'executor share':<28}",
        "-" * 78,
    ]
    for workload in workloads:
        shares = []
        for name in ("machine.restore_share", "executor.share"):
            value = layer(workload, name)
            shares.append(value if isinstance(value, str)
                          else f"{value:.1%}")
        lines.append(f"{workload:<22} {shares[0]:<28} {shares[1]:<28}")
    return "\n".join(lines) + "\n"
