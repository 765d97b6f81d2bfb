"""Campaign persistence: save and reload results as JSON.

A testing campaign's valuable output — the reports, their diagnosis, the
per-stage statistics — should survive the process that produced it, so
triage can happen later or elsewhere (the paper's workflow spreads report
analysis over weeks).  ``save_campaign`` writes a self-contained JSON
document; ``load_campaign`` restores a fully usable
:class:`~repro.core.pipeline.CampaignResult` whose reports support
re-aggregation, oracle classification, and rendering.

Programs are stored in their text serialization; syscall records are
stored field-by-field.  The machine/spec configuration is summarized (not
round-tripped): reloading a campaign does not require rebuilding kernels.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict

from .aggregation import aggregate
from .generation import GenerationResult
from .pipeline import CampaignConfig, CampaignResult, CampaignStats
from .report import TestReport
from .reportcodec import decode_report, encode_report

FORMAT_VERSION = 1


# -- encoding -------------------------------------------------------------------

def _encode_report(report: TestReport):
    return encode_report(report)


def campaign_to_dict(result: CampaignResult) -> Dict[str, Any]:
    config = result.config
    return {
        "format_version": FORMAT_VERSION,
        "config": {
            "strategy": config.strategy,
            "corpus_size": config.corpus_size,
            "corpus_seed": config.corpus_seed,
            "rep_seed": config.rep_seed,
            "kernel_version": config.machine.kernel.version,
            "bugs_enabled": config.machine.bugs.enabled(),
        },
        "stats": dataclasses.asdict(result.stats),
        "generation": {
            "strategy": result.generation.strategy,
            "cluster_count": result.generation.cluster_count,
            "flow_count": result.generation.flow_count,
            "overlap_addresses": result.generation.overlap_addresses,
        },
        "reports": [_encode_report(r) for r in result.reports],
    }


def save_campaign(result: CampaignResult, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(campaign_to_dict(result), handle, indent=1)


# -- decoding -------------------------------------------------------------------

def _decode_report(data):
    return decode_report(data)


def campaign_from_dict(data: Dict[str, Any]) -> CampaignResult:
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported campaign format "
                         f"{data.get('format_version')!r}")
    # Decode only the fields CampaignStats still defines: documents
    # saved before a counter was retired keep loading.
    known = {stat.name for stat in dataclasses.fields(CampaignStats)}
    stats = CampaignStats(**{name: value
                             for name, value in data["stats"].items()
                             if name in known})
    reports = [_decode_report(r) for r in data["reports"]]
    generation = GenerationResult(
        strategy=data["generation"]["strategy"],
        test_cases=[],
        cluster_count=data["generation"]["cluster_count"],
        flow_count=data["generation"]["flow_count"],
        overlap_addresses=data["generation"]["overlap_addresses"],
    )
    config = CampaignConfig(
        strategy=data["config"]["strategy"],
        corpus_size=data["config"]["corpus_size"],
        corpus_seed=data["config"]["corpus_seed"],
        rep_seed=data["config"]["rep_seed"],
    )
    return CampaignResult(config, stats, generation, reports,
                          aggregate(reports))


def load_campaign(path: str) -> CampaignResult:
    with open(path) as handle:
        return campaign_from_dict(json.load(handle))
