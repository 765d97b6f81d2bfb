"""KIT's core: the paper's primary contribution.

Generation (§4.1) → execution (§4.2) → detection (§4.3) → aggregation
(§4.4), orchestrated by :class:`~repro.core.pipeline.Kit`.
"""

from .aggregation import ReportGroups, aggregate, call_signature
from .bounds import BoundsDetector, BoundViolation, PathProfile
from .coverage import CoverageReport, coverage_of_profiles
from .clustering import (
    ClusteringStrategy,
    DfFullStrategy,
    DfIaStrategy,
    DfStStrategy,
    strategy_by_name,
)
from .accessindex import ColumnarAccessIndex
from .dataflow import (
    AccessPoint,
    DataFlowIndex,
    iter_read_points,
    iter_write_points,
    stack_sha1,
)
from .decode import decode_record, decode_trace, side_by_side
from .detection import DetectionResult, Detector, Outcome
from .diagnosis import Diagnoser
from .execution import (
    BaselineCache,
    SenderState,
    SenderStateCache,
    TestCaseRunner,
)
from .factstore import FactStore, machine_fingerprint
from .generation import GenerationResult, TestCase, TestCaseGenerator
from .minimize import MinimizedCase, minimize_report, reduce_to
from .nondet import NondetAnalyzer, NondetStore
from .oracle import (
    FALSE_POSITIVE,
    REAL_BUG_LABELS,
    UNDER_INVESTIGATION,
    classify,
    classify_all,
)
from .pipeline import CampaignConfig, CampaignResult, CampaignStats, Kit
from .profile import ProgramProfile, Profiler, profile_corpus_distributed
from .regress import CampaignDiff, diff_campaigns
from .render_md import campaign_markdown, save_campaign_markdown
from .triage import GroupDecision, TriageSession, Verdict
from .report import CulpritPair, TestReport
from .spec import Specification, default_specification, select_dependent_calls
from .spec_report import SpecCoverage, spec_coverage
from .trace_ast import (
    NodeDiff,
    TraceNode,
    apply_nondet_marks,
    build_trace_ast,
    nondet_paths_from_runs,
    syscall_trace_cmp,
)

__all__ = [
    "AccessPoint",
    "BaselineCache",
    "BoundViolation",
    "BoundsDetector",
    "CampaignConfig",
    "CampaignResult",
    "CampaignDiff",
    "CampaignStats",
    "GroupDecision",
    "TriageSession",
    "Verdict",
    "diff_campaigns",
    "FactStore",
    "campaign_markdown",
    "machine_fingerprint",
    "save_campaign_markdown",
    "CoverageReport",
    "coverage_of_profiles",
    "ClusteringStrategy",
    "ColumnarAccessIndex",
    "CulpritPair",
    "DataFlowIndex",
    "iter_read_points",
    "iter_write_points",
    "DetectionResult",
    "Detector",
    "DfFullStrategy",
    "DfIaStrategy",
    "DfStStrategy",
    "Diagnoser",
    "FALSE_POSITIVE",
    "GenerationResult",
    "Kit",
    "NodeDiff",
    "NondetAnalyzer",
    "NondetStore",
    "Outcome",
    "ProgramProfile",
    "Profiler",
    "REAL_BUG_LABELS",
    "ReportGroups",
    "SenderState",
    "SenderStateCache",
    "Specification",
    "TestCase",
    "TestCaseGenerator",
    "TestCaseRunner",
    "TestReport",
    "TraceNode",
    "UNDER_INVESTIGATION",
    "aggregate",
    "apply_nondet_marks",
    "build_trace_ast",
    "call_signature",
    "classify",
    "decode_record",
    "decode_trace",
    "default_specification",
    "MinimizedCase",
    "minimize_report",
    "reduce_to",
    "nondet_paths_from_runs",
    "PathProfile",
    "profile_corpus_distributed",
    "side_by_side",
    "select_dependent_calls",
    "SpecCoverage",
    "spec_coverage",
    "stack_sha1",
    "strategy_by_name",
    "syscall_trace_cmp",
]
