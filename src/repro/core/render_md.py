"""Render a campaign result as a self-contained markdown document.

The artifact a campaign leaves behind for humans: the funnel, the group
table, one decoded representative per AGG-RS group, and (when available)
culprit pairs.  Pairs with the JSON result document
(:meth:`~repro.core.pipeline.CampaignResult.to_document`) — the JSON for
machines, the markdown for the review thread.
"""

from __future__ import annotations

from typing import List, Optional

from .decode import decode_record
from .oracle import classify
from .pipeline import CampaignResult


def campaign_markdown(result: CampaignResult,
                      title: str = "KIT campaign report") -> str:
    stats = result.stats
    lines: List[str] = [f"# {title}", ""]

    lines += [
        "## Summary",
        "",
        f"- corpus: **{stats.corpus_size}** programs "
        f"({stats.profile_runs} profiling runs)",
        f"- strategy: **{result.generation.strategy}** — "
        f"{stats.flow_count} candidate flows, "
        f"{stats.cluster_count} clusters, "
        f"{stats.cases_total} test cases executed",
        f"- funnel: {stats.initial_reports} candidates → "
        f"{stats.after_nondet} after non-det filtering → "
        f"**{stats.after_resource} reports**",
        f"- aggregation: **{result.groups.agg_rs_count} AGG-RS** / "
        f"**{result.groups.agg_r_count} AGG-R** groups",
        "",
    ]

    lines += ["## Groups", "",
              "| # | label | sender syscall | receiver syscall | reports |",
              "|---|-------|----------------|------------------|---------|"]
    ordered = sorted(result.groups.agg_rs.items(),
                     key=lambda item: (classify(item[1][0]), item[0]))
    for number, ((receiver_sig, sender_sig), members) in enumerate(ordered, 1):
        label = classify(members[0])
        lines.append(f"| {number} | {label} | `{sender_sig}` | "
                     f"`{receiver_sig}` | {len(members)} |")
    lines.append("")

    lines += ["## Representative reports", ""]
    for number, ((receiver_sig, sender_sig), members) in enumerate(ordered, 1):
        report = members[0]
        lines += [f"### Group {number}: `{sender_sig}` → `{receiver_sig}`",
                  "",
                  f"- oracle label: **{classify(report)}**",
                  f"- interfered receiver calls: "
                  f"{report.interfered_indices}",
                  "",
                  "```",
                  "# sender",
                  report.case.sender.serialize(),
                  "# receiver",
                  report.case.receiver.serialize(),
                  "```",
                  ""]
        first = report.first_interfered_record()
        alone = report.record_for(report.receiver_alone_records,
                                  report.interfered_indices[0]) \
            if report.interfered_indices else None
        if first is not None and alone is not None:
            lines += ["interfered call, receiver alone vs with sender:",
                      "",
                      "```",
                      decode_record(alone),
                      "--- vs ---",
                      decode_record(first),
                      "```",
                      ""]
    return "\n".join(lines)


def save_campaign_markdown(result: CampaignResult, path: str,
                           title: Optional[str] = None) -> None:
    with open(path, "w") as handle:
        handle.write(campaign_markdown(result, title or "KIT campaign report"))
        handle.write("\n")
