"""The end-to-end KIT pipeline (paper Figure 3).

``Kit`` wires the four stages together — test case generation (§4.1),
execution (§4.2), detection (§4.3), and report aggregation (§4.4) — and
collects the bookkeeping the paper's evaluation tables are built from.

A campaign is fully described by a :class:`CampaignConfig`; results come
back as a :class:`CampaignResult` carrying the reports, the AGG-R /
AGG-RS groups, the per-stage statistics, and (via the evaluation-only
oracle) the set of injected bugs the campaign discovered.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Set

from ..corpus.generator import build_corpus
from ..corpus.program import TestProgram
from ..faults.plan import (
    FaultPlan,
    FaultRetriesExhausted,
    FaultStats,
    call_with_fault_retries,
)
from ..faults.retry import CAUSE_WORKER_DEATH, describe_failures
from ..store import (
    RECORD_END,
    CampaignHandle,
    CampaignStore,
    case_key,
    summarize_config,
)
from ..vm.machine import Machine, MachineConfig, MachineStats
from ..vm.shardpool import affinity_order, fork_available, run_sharded
from .aggregation import ReportGroups, aggregate
from .clustering import strategy_by_name
from .detection import DetectionResult, Detector, Outcome
from .diagnosis import Diagnoser
from .execution import BaselineCache, SenderStateCache
from .factstore import FactStore, machine_fingerprint
from .generation import GenerationResult, TestCase, TestCaseGenerator
from .nondet import NondetAnalyzer, NondetStore
from .oracle import FALSE_POSITIVE, UNDER_INVESTIGATION, classify_all
from .accessindex import ColumnarAccessIndex
from .profile import Profiler, profile_corpus_distributed, profile_range
from .report import TestReport
from .reportcodec import decode_report, encode_report
from .schedule import (
    GRANULARITY_KFUNC,
    STRATEGY_PCT,
    ScheduleExplorer,
    SchedulePolicy,
    ranked_pair_names,
)
from .spec import Specification, default_specification

Progress = Callable[[str], None]


@dataclass
class CampaignConfig:
    """Everything one KIT campaign needs."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    spec: Specification = field(default_factory=default_specification)
    #: Input corpus (syzkaller stand-in): size and generator seed, or an
    #: explicit program list overriding both.
    corpus_size: int = 200
    corpus_seed: int = 1
    corpus: Optional[List[TestProgram]] = None
    #: Table-4 strategy: df-ia | df-st-1 | df-st-2 | df | rand.
    strategy: str = "df-ia"
    #: Test-case budget for the RAND baseline (callers doing Table-4
    #: comparisons pass the DF budget explicitly).
    rand_budget: Optional[int] = None
    rand_seed: int = 7
    #: Seed for the weighted reservoir choosing cluster representatives.
    rep_seed: int = 0
    #: Cap on executed test cases (None = exercise every cluster).
    max_test_cases: Optional[int] = None
    #: Directory for the per-program fact store: profiles and non-det
    #: marks, keyed by machine fingerprint (None = compute every run).
    cache_dir: Optional[str] = None
    #: Pairing index.  ``columnar`` is the only one: the on-disk
    #: sorted-run merge-join of
    #: :class:`~repro.core.accessindex.ColumnarAccessIndex`, peak memory
    #: bounded by one address group (docs/CORPUS.md).
    index_backend: str = "columnar"
    #: Directory for the pairing index's run segments (None = private
    #: temp directory, deleted after generation).
    index_dir: Optional[str] = None
    #: Run Algorithm 2 on each report.
    diagnose: bool = True
    #: Parallel workers (0 = in-process).  Execution runs on that many
    #: forked process shards (in-process where ``fork`` is missing),
    #: each on its forked copy of the campaign machine and caches;
    #: profiling splits the corpus into that many contiguous ranges,
    #: each profiled on a thread with a machine of its own.
    workers: int = 0
    #: How distributed execution shards.  ``process`` is the only mode:
    #: forked shards that share nothing after the fork, each granted
    #: chunks of one supervisor-owned job list (docs/SHARDING.md).
    shard_mode: str = "process"
    #: Memoize post-sender machine state (segmented delta per sender)
    #: so test cases and Algorithm-2 re-runs sharing a sender restore
    #: it instead of re-running it; off re-executes every sender.
    sender_cache: bool = True
    #: Chaos fault plan (None = no injection).  When set, the plan is
    #: threaded through every layer — machines, shards, the store — and
    #: the campaign degrades gracefully instead of aborting: a test case
    #: whose retries are exhausted is recorded as ``infra_failed``.
    faults: Optional[FaultPlan] = None
    #: Durable result store root (None = no persistence).  When set the
    #: campaign appends every landed pair outcome to a write-ahead
    #: journal under ``store_dir/<campaign-id>/`` and publishes the
    #: final result document there — see ``docs/CAMPAIGN_STORE.md``.
    store_dir: Optional[str] = None
    #: Resume the campaign whose fingerprint matches this config from
    #: its journal in ``store_dir``: already-journaled pairs are
    #: restored instead of re-executed, in-flight pairs re-run.
    resume: bool = False
    #: Watchdog timeout in seconds for distributed execution: a shard
    #: from which no message (its boot's ``up``, a job's result) arrives
    #: for longer than this is SIGKILLed and its job re-queued.  None
    #: disables the watchdog.
    hang_timeout: Optional[float] = None
    #: Controlled-interleaving exploration (docs/SCHEDULING.md): run a
    #: bounded, deterministically replayable schedule set for every
    #: sequentially-clean case and report cases any schedule diverges
    #: on.  Off by default — sequential campaigns are byte-identical to
    #: the pre-scheduling pipeline.
    interleave: bool = False
    #: Schedule strategy: ``pct`` | ``sys`` | ``rand``.
    schedule_strategy: str = STRATEGY_PCT
    #: Schedules explored per selected case.
    schedule_budget: int = 24
    schedule_seed: int = 11
    #: PCT preemption-change points / systematic preemption bound.
    schedule_depth: int = 3
    #: Preemption granularity: ``kfunc`` | ``syscall``.
    schedule_points: str = GRANULARITY_KFUNC
    #: Explore only cases matching the top-N ranked R0/R1 race-candidate
    #: pairs from the static analyzer (0 = explore every case).
    schedule_pairs: int = 0

    def __post_init__(self) -> None:
        if self.shard_mode != "process":
            raise ValueError(f"unknown shard mode {self.shard_mode!r} "
                             "(only 'process' exists)")
        if self.index_backend != "columnar":
            raise ValueError(f"unknown index backend {self.index_backend!r} "
                             "(only 'columnar' exists)")


@dataclass
class CampaignStats:
    """Per-stage counters; the raw material of Tables 4-6 and §6.5."""

    corpus_size: int = 0
    profile_runs: int = 0
    profile_seconds: float = 0.0
    analysis_seconds: float = 0.0
    flow_count: int = 0
    cluster_count: int = 0
    overlap_addresses: int = 0
    cases_total: int = 0
    #: Verdicts this run landed: fresh results neither poisoned nor
    #: infra-failed (restored ones count in ``resumed_cases``).
    cases_executed: int = 0
    execution_seconds: float = 0.0
    #: How the execution stage actually ran: ``in-process`` (workers=0,
    #: or no ``fork`` on this platform) or ``process``, plus the
    #: resolved pool size.
    shard_mode: str = "in-process"
    execution_workers: int = 0
    #: Process-mode shard telemetry.
    shards_spawned: int = 0
    shards_died: int = 0
    #: Always 0 (shards share no memory, and granted chunks never move
    #: between shards); e2e benchmark metrics read them.
    shm_bytes: int = 0
    jobs_stolen: int = 0
    #: Table 5 counters.
    initial_reports: int = 0
    after_nondet: int = 0
    after_resource: int = 0
    nondet_runs: int = 0
    diagnosis_reruns: int = 0
    diagnosis_seconds: float = 0.0
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: §6.5 restore telemetry, summed over every machine the campaign
    #: booted (main + profiling workers + execution workers).
    restore_count: int = 0
    segments_restored: int = 0
    segments_skipped: int = 0
    restore_seconds: float = 0.0
    #: Restore time attributed to each pipeline stage.
    profile_restore_seconds: float = 0.0
    execution_restore_seconds: float = 0.0
    diagnosis_restore_seconds: float = 0.0
    #: Shared-cache effectiveness (receiver-alone baselines, §4.3.2
    #: non-determinism verdicts).
    baseline_hits: int = 0
    baseline_misses: int = 0
    nondet_cache_hits: int = 0
    nondet_cache_misses: int = 0
    #: Sender-state memoization effectiveness: a cache hit serves a
    #: test case or a diagnosis re-run by restoring base + post-sender
    #: delta instead of re-running the sender.
    sender_cache_hits: int = 0
    sender_cache_misses: int = 0
    #: Always 0 (no shared sender tier); e2e benchmark metrics read it.
    sender_cache_shared_hits: int = 0
    sender_cache_evictions: int = 0
    sender_cache_bytes: int = 0
    sender_cache_entries: int = 0
    #: Algorithm-2 re-runs the sender cache served: each re-run's
    #: sender is a prefix of the report's, memoized by an earlier one.
    diagnosis_prefix_reuses: int = 0
    #: Profile-store telemetry (zero unless cache_dir is set).
    profile_store_hits: int = 0
    profile_store_misses: int = 0
    profile_store_entries_written: int = 0
    profile_store_bytes_written: int = 0
    #: Pairing-index telemetry (zero for RAND campaigns).
    index_run_segments: int = 0
    index_bytes: int = 0
    index_points: int = 0
    #: Chaos telemetry (all zero/empty unless a fault plan was set):
    #: per-site injected/recovered/infra-failed counts and the number of
    #: test cases that degraded to ``infra_failed``.
    faults_injected: Dict[str, int] = field(default_factory=dict)
    faults_recovered: Dict[str, int] = field(default_factory=dict)
    faults_infra: Dict[str, int] = field(default_factory=dict)
    #: Injections settled by poison-pair quarantine, per site.
    faults_poisoned: Dict[str, int] = field(default_factory=dict)
    infra_failed_cases: int = 0
    #: Campaign-store telemetry (all zero/empty unless store_dir set).
    campaign_id: str = ""
    resumed_cases: int = 0
    poisoned_cases: int = 0
    journal_records_replayed: int = 0
    journal_torn_bytes: int = 0
    journal_fsync_degraded: int = 0
    #: Shards the watchdog wrote off as hung (silent past the timeout).
    worker_hangs: int = 0
    #: Controlled-interleaving telemetry (zero unless interleave is on):
    #: schedules executed across all explored cases, and how many
    #: reports were witnessed only under interleaving.
    schedules_executed: int = 0
    interleaved_reports: int = 0

    def executions_per_second(self) -> float:
        if self.execution_seconds <= 0:
            return 0.0
        return self.cases_executed / self.execution_seconds

    def baseline_hit_rate(self) -> float:
        total = self.baseline_hits + self.baseline_misses
        return self.baseline_hits / total if total else 0.0

    def nondet_cache_hit_rate(self) -> float:
        total = self.nondet_cache_hits + self.nondet_cache_misses
        return self.nondet_cache_hits / total if total else 0.0

    def sender_cache_hit_rate(self) -> float:
        total = self.sender_cache_hits + self.sender_cache_misses
        return self.sender_cache_hits / total if total else 0.0

    def segments_skipped_rate(self) -> float:
        """Fraction of snapshot segments a reset did *not* have to restore."""
        total = self.segments_restored + self.segments_skipped
        return self.segments_skipped / total if total else 0.0

    def faults_injected_total(self) -> int:
        return sum(self.faults_injected.values())

    def faults_recovered_total(self) -> int:
        return sum(self.faults_recovered.values())

    def faults_infra_total(self) -> int:
        return sum(self.faults_infra.values())

    def faults_poisoned_total(self) -> int:
        return sum(self.faults_poisoned.values())

    def faults_accounted(self) -> bool:
        """The chaos invariant, per site:
        ``injected == recovered + infra_failed + poisoned``."""
        sites = set(self.faults_injected) | set(self.faults_recovered) \
            | set(self.faults_infra) | set(self.faults_poisoned)
        return all(
            self.faults_injected.get(site, 0)
            == self.faults_recovered.get(site, 0)
            + self.faults_infra.get(site, 0)
            + self.faults_poisoned.get(site, 0)
            for site in sites
        )

    def merge(self, other: "CampaignStats") -> None:
        """Add *other* into these totals.

        Numbers sum, per-key counts sum per key, and strings (the
        campaign id, the shard mode) stay as they are: a shard's stats
        come home through this one rule.
        """
        for stat in fields(self):
            value = getattr(other, stat.name)
            if isinstance(value, dict):
                _add_counts(getattr(self, stat.name), value)
            elif not isinstance(value, str):
                setattr(self, stat.name, getattr(self, stat.name) + value)

    def absorb_machine(self, machine_stats: MachineStats,
                       stage: str = "") -> None:
        """Fold one machine's restore counters into the campaign totals."""
        self.restore_count += machine_stats.segmented_restores
        self.segments_restored += machine_stats.segments_restored
        self.segments_skipped += machine_stats.segments_skipped
        self.restore_seconds += machine_stats.restore_seconds
        if stage == "profile":
            self.profile_restore_seconds += machine_stats.restore_seconds
        elif stage == "execution":
            self.execution_restore_seconds += machine_stats.restore_seconds
        elif stage == "diagnosis":
            self.diagnosis_restore_seconds += machine_stats.restore_seconds

    def absorb_runner(self, runner: "_CaseRunner") -> None:
        """Fold one execution-stage case runner's counts into the totals."""
        detector = runner.detector
        if detector is not None:
            self.nondet_runs += detector.nondet.runs_executed

    def absorb_caches(self, caches: "_Caches") -> None:
        """Fold one process's cache counters and holdings into the totals."""
        self.baseline_hits += caches.baselines.hits
        self.baseline_misses += caches.baselines.misses
        self.nondet_cache_hits += caches.nondet.hits
        self.nondet_cache_misses += caches.nondet.misses
        sender_states = caches.sender_states
        if sender_states is not None:
            self.sender_cache_hits += sender_states.hits
            self.sender_cache_misses += sender_states.misses
            self.sender_cache_evictions += sender_states.evictions
            self.sender_cache_bytes += sender_states.bytes_held
            self.sender_cache_entries += len(sender_states)

    def absorb_faults(self, ledger: FaultStats) -> None:
        """Fold one process's fault ledger into the per-site totals."""
        for totals, counts in zip((self.faults_injected,
                                   self.faults_recovered, self.faults_infra,
                                   self.faults_poisoned), ledger.snapshot()):
            _add_counts(totals, counts)

    def absorb_profile_store(self, store: FactStore) -> None:
        """Fold one profiler's fact-store counters into the totals."""
        self.profile_store_hits += store.hits
        self.profile_store_misses += store.misses
        self.profile_store_entries_written += store.entries_written
        self.profile_store_bytes_written += store.bytes_written


def _add_counts(totals: Dict[str, int], counts: Dict[str, int]) -> None:
    for key, count in counts.items():
        totals[key] = totals.get(key, 0) + count


#: Version of the result document :meth:`CampaignResult.to_document`
#: writes and :meth:`CampaignResult.from_document` accepts.
RESULT_FORMAT_VERSION = 1


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    config: CampaignConfig
    stats: CampaignStats
    generation: GenerationResult
    reports: List[TestReport]
    groups: ReportGroups

    def labels(self) -> Dict[str, List[TestReport]]:
        """Oracle label -> reports witnessing it (evaluation only).

        A report can witness several bugs and thus appear under several
        labels (see :func:`repro.core.oracle.classify_all`).
        """
        labelled: Dict[str, List[TestReport]] = {}
        for report in self.reports:
            for label in classify_all(report):
                labelled.setdefault(label, []).append(report)
        return labelled

    def bugs_found(self) -> Set[str]:
        """The injected-bug labels witnessed by at least one report."""
        return {
            label for label in self.labels()
            if label not in (FALSE_POSITIVE, UNDER_INVESTIGATION)
        }

    def to_document(self) -> Dict[str, Any]:
        """The self-contained JSON result document.

        Reports keep their programs and records (``reportcodec``), so a
        reloaded result re-aggregates and classifies; the configuration
        is summarized, not round-tripped, so reloading rebuilds no
        kernel.
        """
        config = self.config
        generation = self.generation
        return {
            "format_version": RESULT_FORMAT_VERSION,
            "config": {
                "strategy": config.strategy,
                "corpus_size": config.corpus_size,
                "corpus_seed": config.corpus_seed,
                "rep_seed": config.rep_seed,
                "kernel_version": config.machine.kernel.version,
                "bugs_enabled": config.machine.bugs.enabled(),
            },
            "stats": asdict(self.stats),
            "generation": {
                "strategy": generation.strategy,
                "cluster_count": generation.cluster_count,
                "flow_count": generation.flow_count,
                "overlap_addresses": generation.overlap_addresses,
            },
            "reports": [encode_report(report) for report in self.reports],
        }

    @classmethod
    def from_document(cls, data: Dict[str, Any]) -> "CampaignResult":
        """Rebuild a result from :meth:`to_document`'s output.

        Raises ``ValueError`` for any ``format_version`` but
        :data:`RESULT_FORMAT_VERSION`, and for a missing or ill-typed
        key, which it names.
        """
        if data.get("format_version") != RESULT_FORMAT_VERSION:
            raise ValueError(f"unsupported campaign format "
                             f"{data.get('format_version')!r}")
        # Decode only the fields CampaignStats still defines: documents
        # saved before a counter was retired keep loading.
        known = {stat.name for stat in fields(CampaignStats)}
        stats = CampaignStats(**{name: value for name, value
                                 in _document_key(data, "stats", dict).items()
                                 if name in known})
        reports = []
        for index, report in enumerate(_document_key(data, "reports", list)):
            try:
                reports.append(decode_report(report))
            except (KeyError, TypeError, AttributeError) as error:
                raise ValueError(f"damaged report {index}: {error!r}")
        generation = GenerationResult(
            strategy=_document_key(data, "generation.strategy", str),
            test_cases=[],
            cluster_count=_document_key(data, "generation.cluster_count",
                                        int),
            flow_count=_document_key(data, "generation.flow_count", int),
            overlap_addresses=_document_key(
                data, "generation.overlap_addresses", int),
        )
        config = CampaignConfig(
            strategy=_document_key(data, "config.strategy", str),
            corpus_size=_document_key(data, "config.corpus_size", int),
            corpus_seed=_document_key(data, "config.corpus_seed", int),
            rep_seed=_document_key(data, "config.rep_seed", int),
        )
        return cls(config, stats, generation, reports, aggregate(reports))


def _document_key(data: Dict[str, Any], path: str, kind: type) -> Any:
    """The value at dotted *path* in a result document, if a *kind*.

    Raises ``ValueError`` naming the key when it is missing or holds
    anything else.
    """
    value: Any = data
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"missing key {path!r}")
        value = value[key]
    if not isinstance(value, kind):
        raise ValueError(f"key {path!r} is not a {kind.__name__}")
    return value


@dataclass
class _Caches:
    """The caches every detector of one campaign shares.

    The in-process detector, each shard's forked copy and the diagnosis
    detector all read and fill them.  Every cache is keyed by
    snapshot-relative program state, so a result computed on any
    machine is valid on all of them.
    """

    baselines: BaselineCache
    nondet: NondetStore
    sender_states: Optional[SenderStateCache]


#: Outcomes that carry no verdict about the kernel.
_NO_VERDICT = (Outcome.POISONED, Outcome.INFRA_FAILED)


def _verdict(detection: DetectionResult) -> tuple:
    """What a shard sends back for one case: everything but the case.

    ``(outcome value, raw_diff_count, schedules_run, report)``, the
    report with ``case=None``.  The supervisor holds the case already,
    so :meth:`Kit._land_job_result` rebuilds the result around it.
    """
    report = detection.report
    if report is not None:
        report = replace(report, case=None)
    return (detection.outcome.value, detection.raw_diff_count,
            detection.schedules_run, report)


class _CaseRunner:
    """Checks test cases: the one case runner of the execution stage.

    The in-process loop calls it with the campaign's machine, and every
    forked shard calls its own inherited copy with the shard's machine.
    The detector is built on the first case, against the machine that
    case runs on.  Every check is a pure function of (case, snapshot),
    so a faulted attempt is abandoned and re-run from a fresh restore;
    exhausted retries degrade to an ``infra_failed`` outcome — the case
    carries no verdict, but the campaign completes.
    """

    def __init__(self, kit: "Kit", caches: _Caches):
        self._kit = kit
        self._caches = caches
        self.detector: Optional[Detector] = None

    def __call__(self, machine: Machine, case: TestCase) -> DetectionResult:
        if self.detector is None:
            self.detector = self._kit._make_detector(machine, self._caches)
        try:
            return call_with_fault_retries(self._kit.config.faults,
                                           self.detector.check_case, case)
        except FaultRetriesExhausted:
            return DetectionResult(case, Outcome.INFRA_FAILED)


class Kit:
    """The KIT testing framework, end to end."""

    def __init__(self, config: Optional[CampaignConfig] = None):
        self.config = config or CampaignConfig()
        #: Open campaign-store handle while a stored run is in flight.
        self._store_handle: Optional[CampaignHandle] = None
        #: Shared schedule policy when interleaving is on (built once
        #: per run; every detector's explorer references it).
        self._sched_policy: Optional[SchedulePolicy] = None

    # -- pipeline ------------------------------------------------------------

    def run(self, progress: Optional[Progress] = None) -> CampaignResult:
        config = self.config
        plan = config.faults
        if plan is not None and config.machine.fault_plan is not plan:
            # Thread the plan into every machine the campaign boots —
            # the campaign machine and each profiling thread's.  Shards
            # run on forked copies of the campaign machine, plan and all.
            config = replace(config,
                             machine=replace(config.machine,
                                             fault_plan=plan))
            self.config = config
        stats = CampaignStats()
        say = progress or (lambda message: None)

        corpus = config.corpus if config.corpus is not None else build_corpus(
            config.corpus_size, seed=config.corpus_seed)
        stats.corpus_size = len(corpus)
        self._sched_policy = self._build_schedule_policy()
        self._open_store(stats)
        try:
            return self._run_stages(config, stats, corpus, say)
        finally:
            if self._store_handle is not None:
                self._store_handle.close()
                self._store_handle = None

    def _run_stages(self, config: CampaignConfig, stats: CampaignStats,
                    corpus: List[TestProgram],
                    say: Progress) -> CampaignResult:
        machine = Machine(config.machine)
        caches = _Caches(
            BaselineCache(),
            NondetStore(self._facts()),
            SenderStateCache() if config.sender_cache else None)

        generation = self._generate(machine, corpus, stats, say)
        cases = generation.test_cases
        if config.max_test_cases is not None:
            cases = cases[:config.max_test_cases]
        stats.cases_total = len(cases)

        say(f"executing {len(cases)} test cases ({generation.strategy})")
        results = self._execute(machine, cases, stats, caches)

        reports = [r.report for r in results if r.report is not None]
        stats.initial_reports = sum(
            1 for r in results if r.raw_diff_count > 0 or r.outcome is Outcome.REPORT
        )
        stats.after_nondet = sum(
            1 for r in results
            if r.outcome in (Outcome.FILTERED_RESOURCE, Outcome.REPORT)
        )
        stats.after_resource = len(reports)
        for result in results:
            key = result.outcome.value
            stats.outcomes[key] = stats.outcomes.get(key, 0) + 1
            stats.schedules_executed += result.schedules_run
        stats.poisoned_cases = stats.outcomes.get(Outcome.POISONED.value, 0)
        stats.interleaved_reports = sum(
            1 for report in reports if report.culprit_schedule is not None)

        if config.diagnose and reports:
            say(f"diagnosing {len(reports)} reports (Algorithm 2)")
            self._diagnose(machine, reports, stats, caches)

        groups = aggregate(reports)
        say(f"done: {len(reports)} reports, "
            f"{groups.agg_rs_count} AGG-RS / {groups.agg_r_count} AGG-R groups")
        result = CampaignResult(config, stats, generation, reports, groups)
        if self._store_handle is not None:
            self._finish_store(result, caches, say)
        else:
            self._close_books(stats, caches)
        return result

    def _close_books(self, stats: CampaignStats, caches: _Caches) -> None:
        """Add the campaign process's own counts to what each shard
        shipped at retirement."""
        stats.absorb_caches(caches)
        plan = self.config.faults
        if plan is not None:
            stats.absorb_faults(plan.stats)
            stats.infra_failed_cases = stats.outcomes.get(
                Outcome.INFRA_FAILED.value, 0)
        if self._store_handle is not None:
            stats.journal_fsync_degraded = \
                self._store_handle.journal.fsync_degraded

    # -- campaign store --------------------------------------------------------

    def _open_store(self, stats: CampaignStats) -> None:
        config = self.config
        if config.store_dir is None:
            return
        store = CampaignStore(config.store_dir)
        handle = store.open_campaign(summarize_config(config),
                                     resume=config.resume,
                                     faults=config.faults)
        self._store_handle = handle
        stats.campaign_id = handle.campaign_id
        stats.journal_records_replayed = handle.resume_state.records
        stats.journal_torn_bytes = handle.resume_state.torn_bytes

    def _finish_store(self, result: CampaignResult, caches: _Caches,
                      say: Progress) -> None:
        """Seal the campaign: end record, books, then the result document.

        The end record's sync can inject faults of its own, so the books
        close after it and the document holds every count.
        """
        handle = self._store_handle
        stats = result.stats
        infra = stats.outcomes.get(Outcome.INFRA_FAILED.value, 0)
        poisoned = stats.outcomes.get(Outcome.POISONED.value, 0)
        accounting = {
            "cases_total": stats.cases_total,
            "completed": stats.cases_total - infra - poisoned,
            "infra_failed": infra,
            "poisoned": poisoned,
            "resumed": stats.resumed_cases,
            "worker_hangs": stats.worker_hangs,
            "reports": len(result.reports),
            "agg_rs": result.groups.agg_rs_count,
            "bugs": sorted(result.bugs_found()),
        }
        handle.journal.append({"t": RECORD_END, "accounting": accounting})
        self._close_books(stats, caches)
        path = handle.write_result(result.to_document())
        say(f"campaign {handle.campaign_id}: "
            f"{accounting['completed']}/{stats.cases_total} completed, "
            f"{infra} infra_failed, {poisoned} poisoned "
            f"({stats.resumed_cases} resumed); result at {path}")

    @staticmethod
    def _case_journal_key(case: TestCase) -> str:
        return case_key(case.sender.hash_hex, case.receiver.hash_hex)

    def _journal_detection(self, detection: DetectionResult,
                           sync: bool = True) -> None:
        """Commit one landed outcome to the write-ahead journal.

        Without *sync* the record is flushed but its fsync waits for the
        next ``journal.sync()`` (the shard supervisor's group commit).
        """
        handle = self._store_handle
        if handle is None:
            return
        report_data = (encode_report(detection.report)
                       if detection.report is not None else None)
        handle.journal.append_case(self._case_journal_key(detection.case),
                                   detection.outcome.value,
                                   detection.raw_diff_count, report_data,
                                   sync=sync)

    def _land_job_result(self, job, result) -> None:
        """Supervisor on_result hook: rebuild the verdict, journal it.

        A shard ships only :func:`_verdict`; the supervisor already
        holds the case (``job.payload``), so merged results and reports
        reference the generator's own :class:`TestCase`, as in-process.
        """
        if result.error is not None:
            return
        outcome, raw_diff_count, schedules_run, report = result.outcome
        case = job.payload
        if report is not None:
            report.case = case
        result.outcome = DetectionResult(case, Outcome(outcome),
                                         report=report,
                                         raw_diff_count=raw_diff_count,
                                         schedules_run=schedules_run)
        self._journal_detection(result.outcome, sync=False)

    def _journal_job_failure(self, job, settlement: str) -> None:
        """Supervisor on_job_failure hook: attempts and quarantines.

        Real worker deaths become ``attempt`` records (they seed
        quarantine counts across resumed runs); injected kills and lost
        results do not.  A ``poisoned`` settlement is journaled durably
        so the pair is never retried again.
        """
        handle = self._store_handle
        if handle is None:
            return
        key = self._case_journal_key(job.payload)
        if job.last_cause == CAUSE_WORKER_DEATH:
            handle.journal.append_attempt(key, [job.last_cause])
        if settlement == "poisoned":
            handle.journal.append_poisoned(
                key, job.worker_deaths, describe_failures(job.site_failures))

    def _prior_deaths(self, scheduled: List[TestCase]
                      ) -> Optional[Dict[int, int]]:
        """Journal-replayed worker deaths, keyed by this run's job ids."""
        handle = self._store_handle
        if handle is None or not handle.resume_state.deaths:
            return None
        deaths = handle.resume_state.deaths
        mapping: Dict[int, int] = {}
        for job_id, case in enumerate(scheduled):
            count = deaths.get(self._case_journal_key(case), 0)
            if count:
                mapping[job_id] = count
        return mapping or None

    def _partition_resume(self, cases: List[TestCase], stats: CampaignStats
                          ) -> tuple:
        """Split cases into journal-restored results and work to run.

        Returns ``(results, todo_map, todo)``: *results* has a restored
        :class:`DetectionResult` at each terminal pair's index and None
        elsewhere; *todo* lists the cases still to execute and
        *todo_map* their indices in the original order.
        """
        results: List[Optional[DetectionResult]] = [None] * len(cases)
        handle = self._store_handle
        state = handle.resume_state if handle is not None else None
        if state is None or (not state.cases and not state.poisoned):
            return results, list(range(len(cases))), list(cases)
        todo_map: List[int] = []
        todo: List[TestCase] = []
        for index, case in enumerate(cases):
            key = self._case_journal_key(case)
            record = state.cases.get(key)
            if record is not None:
                results[index] = self._restore_detection(case, record)
                # Only a verdict counts as restored: a lost case counts
                # as lost, so executed + restored + lost tile the total.
                if results[index].outcome not in _NO_VERDICT:
                    stats.resumed_cases += 1
                continue
            if key in state.poisoned:
                # Quarantine is durable: a poison pair is never offered
                # to a worker again, in any resumed run.  A crash after
                # its poisoned record left it without a case record.
                results[index] = DetectionResult(case, Outcome.POISONED)
                self._journal_detection(results[index])
                continue
            todo_map.append(index)
            todo.append(case)
        return results, todo_map, todo

    @staticmethod
    def _restore_detection(case: TestCase,
                           record: Dict[str, Any]) -> DetectionResult:
        report = None
        if record.get("report") is not None:
            # Alias the freshly regenerated case object so aggregation
            # cannot tell a restored report from a fresh one.
            report = decode_report(record["report"], case=case)
        return DetectionResult(case, Outcome(record["outcome"]),
                               report=report,
                               raw_diff_count=record.get("raw", 0))

    # -- stages ----------------------------------------------------------------

    def _facts(self) -> Optional[FactStore]:
        """A handle of its own on the campaign's fact store, or None."""
        config = self.config
        if config.cache_dir is None:
            return None
        return FactStore(config.cache_dir, machine_fingerprint(config.machine))

    def _generate(self, machine: Machine, corpus: List[TestProgram],
                  stats: CampaignStats, say: Progress) -> GenerationResult:
        config = self.config
        if config.strategy.lower() == "rand":
            budget = config.rand_budget or len(corpus)
            say(f"RAND: sampling {budget} random pairs")
            return TestCaseGenerator(corpus).generate_random(
                budget, seed=config.rand_seed)

        say(f"profiling {len(corpus)} programs (4 runs each"
            + (f", {config.workers} workers)" if config.workers > 0 else ")"))
        start = time.monotonic()
        before = machine.stats.copy()
        if config.workers > 0:
            # Each pool thread profiles one contiguous corpus range on a
            # machine of its own, booted here before the pool starts.
            pool_machines = [Machine(config.machine)
                             for _ in range(min(config.workers, len(corpus)))]
            profilers = [Profiler(each, self._facts())
                         for each in pool_machines]
            profiles = profile_corpus_distributed(profilers, corpus,
                                                  config.faults)
        else:
            # The campaign machine profiles, and profiles stream in
            # corpus order straight into the index; the profile list is
            # never materialized.
            pool_machines = []
            profilers = [Profiler(machine, self._facts())]
            profiles = profile_range(profilers[0], corpus, 0, len(corpus),
                                     config.faults)
        index = ColumnarAccessIndex.build(profiles, config.spec,
                                          directory=config.index_dir)
        stats.profile_runs = sum(p.runs_executed for p in profilers)
        for each in profilers:
            if each.store is not None:
                stats.absorb_profile_store(each.store)
        # The campaign machine's delta is zero at workers > 0.
        stats.absorb_machine(machine.stats.since(before), stage="profile")
        for each in pool_machines:
            stats.absorb_machine(each.stats, stage="profile")
        stats.profile_seconds = time.monotonic() - start
        stats.index_run_segments = index.run_segments
        stats.index_bytes = index.bytes_on_disk()
        stats.index_points = index.write_points + index.read_points

        start = time.monotonic()
        try:
            result = TestCaseGenerator(corpus, index).generate(
                strategy_by_name(config.strategy),
                max_clusters=config.max_test_cases, rep_seed=config.rep_seed)
            stats.analysis_seconds = time.monotonic() - start
        finally:
            if config.index_dir is None:
                index.close()  # temp-owned run segments
        stats.flow_count = result.flow_count
        stats.cluster_count = result.cluster_count
        stats.overlap_addresses = result.overlap_addresses
        return result

    def _execute(self, machine: Machine, cases: List[TestCase],
                 stats: CampaignStats, caches: _Caches
                 ) -> List[DetectionResult]:
        config = self.config
        start = time.monotonic()
        before = machine.stats.copy()
        results, todo_map, todo = self._partition_resume(cases, stats)
        runner = _CaseRunner(self, caches)
        fresh: List[DetectionResult] = []
        if config.workers > 0 and fork_available():
            stats.shard_mode = "process"
            stats.execution_workers = min(config.workers, len(todo))
            if todo:
                fresh = self._execute_process(machine, todo, stats, caches,
                                              runner)
        else:
            # workers=0, or no fork on this platform: the same runner in
            # one in-process loop, identical verdicts (the shard merge
            # is order-free).
            for case in todo:
                outcome = runner(machine, case)
                # Commit as it lands: a crash after this append never
                # re-executes the pair.
                self._journal_detection(outcome)
                fresh.append(outcome)
            stats.absorb_machine(machine.stats.since(before),
                                 stage="execution")
            stats.absorb_runner(runner)
        for position, outcome in zip(todo_map, fresh):
            results[position] = outcome
        stats.cases_executed = sum(1 for outcome in fresh
                                   if outcome.outcome not in _NO_VERDICT)
        stats.execution_seconds = time.monotonic() - start
        return results

    def _merge_job_results(self, job_results, order: List[int],
                           scheduled: List[TestCase],
                           case_count: int) -> List[DetectionResult]:
        """Inverse-permutation merge back to original case order.

        Independent of which shard executed each job: job ids index
        the affinity schedule, and the inverse permutation restores
        caller order.  This is the one place that decides what a failed
        job becomes, after every shard has exited.  A poisoned job is
        ``POISONED`` and a job whose retries ran out is
        ``INFRA_FAILED`` under a fault plan; neither reached a commit
        hook, so its result is built and journaled here.  Retries
        exhausted without a plan, or a case runner that raised, fail
        the campaign, as they do in-process.
        """
        plan = self.config.faults
        results: List[Optional[DetectionResult]] = [None] * case_count
        for job in job_results:
            if job.error is None:
                # Rebuilt around its case by _land_job_result.
                results[order[job.job_id]] = job.outcome
                continue
            if job.poisoned:
                # Quarantined poison pair: no verdict about the kernel,
                # but the campaign completes and the books balance.
                outcome = Outcome.POISONED
            elif job.worker >= 0:
                # The case runner raised: a bug, not an infrastructure
                # fault, so no plan excuses it.
                raise RuntimeError(
                    f"worker failure on job {job.job_id}: {job.error}")
            elif plan is not None:
                # Retries exhausted under chaos: the case degrades to
                # infra_failed instead of failing the campaign.
                outcome = Outcome.INFRA_FAILED
            else:
                raise RuntimeError(
                    f"shard job {job.job_id} unfinished after "
                    f"{job.attempts} attempt(s), last cause "
                    f"{job.last_fault_site or 'unknown'}: {job.error}")
            detection = DetectionResult(scheduled[job.job_id], outcome)
            self._journal_detection(detection, sync=False)
            results[order[job.job_id]] = detection
        return results  # type: ignore[return-value]

    def _execute_process(self, machine: Machine, cases: List[TestCase],
                         stats: CampaignStats, caches: _Caches,
                         runner: _CaseRunner) -> List[DetectionResult]:
        """Execution on process shards that share only what fork gives.

        Every forked shard runs the job chunks it is granted on its own
        copy of the campaign *machine*, through its own copy of
        *runner*, filling its own copies of the campaign *caches*.
        Nothing crosses between processes after the fork except the
        shard protocol's pipe messages: verdicts (:func:`_verdict`), and
        the one :class:`CampaignStats` a shard ships when it retires
        cleanly.
        """
        config = self.config
        plan = config.faults

        def run_case(worker_machine: Machine, case: TestCase) -> tuple:
            # Runs in the shard; the supervisor rebuilds the result.
            return _verdict(runner(worker_machine, case))

        def boot() -> Machine:
            # Runs inside the freshly forked shard: fresh machine and
            # fault counters, so the shard counts only its own events.
            machine.stats = MachineStats()
            if plan is not None:
                plan.stats = FaultStats()
            return machine

        def retire(worker_machine: Machine) -> CampaignStats:
            # Runs in the shard at clean retirement.  Its caches'
            # counters were zero at the fork, like everything boot
            # zeroed, so the shard's stats are its own counts alone.
            shard = CampaignStats()
            shard.absorb_machine(worker_machine.stats, stage="execution")
            shard.absorb_runner(runner)
            shard.absorb_caches(caches)
            if plan is not None:
                shard.absorb_faults(plan.stats)
            return shard

        # Two-level affinity schedule: the sender-major level batches
        # every case sharing a sender consecutively (the first case of
        # a batch populates the sender-state cache, the rest restore
        # the memoized delta); the receiver-minor level clusters shared
        # receivers for the baseline and non-determinism caches.  Ties
        # break by original index inside affinity_order, so equal-hash
        # cases can never be reordered between runs; results are mapped
        # back through the inverse permutation, so callers still see
        # them in the original case order.
        order = affinity_order([(case.sender.hash_hex,
                                 case.receiver.hash_hex) for case in cases])
        scheduled = [cases[i] for i in order]
        handle = self._store_handle
        report = run_sharded(
            config.machine, scheduled, run_case,
            workers=config.workers, boot=boot, faults=plan,
            telemetry_hook=retire,
            hang_timeout=config.hang_timeout,
            on_result=self._land_job_result,
            on_job_failure=(self._journal_job_failure
                            if handle is not None else None),
            prior_deaths=self._prior_deaths(scheduled),
            # Group commit: one fsync per batch of landed results.
            before_wait=(handle.journal.sync if handle is not None
                         else None))
        stats.shards_spawned = report.shards_spawned
        stats.shards_died = report.shards_died
        stats.worker_hangs += len(report.hung_shards)
        results = self._merge_job_results(report.results, order, scheduled,
                                          len(cases))
        if handle is not None:
            handle.journal.sync()
        for shard_stats in report.telemetry:
            # A shard that died shipped nothing: its counts are lost
            # with it, never its verdicts (its jobs re-ran elsewhere).
            stats.merge(shard_stats)
        return results

    def _diagnose(self, machine: Machine, reports: List[TestReport],
                  stats: CampaignStats, caches: _Caches) -> None:
        start = time.monotonic()
        before = machine.stats.copy()
        sender_states = caches.sender_states
        hits_before = sender_states.hits if sender_states is not None else 0
        diagnoser = Diagnoser(self._make_detector(machine, caches))
        for index, report in enumerate(reports):
            if report.culprit_schedule is not None:
                # Algorithm 2 replays sender variants *sequentially*; an
                # interleaving-only report would just vanish under every
                # variant.  Its culprit evidence is the witnessing
                # schedule itself.
                continue
            try:
                call_with_fault_retries(self.config.faults,
                                        diagnoser.diagnose, report,
                                        context=f"diagnosis {index}")
            except FaultRetriesExhausted:
                # The report survives undiagnosed — diagnosis enriches a
                # report, it never decides whether one exists.
                continue
        stats.diagnosis_reruns = diagnoser.reruns
        if sender_states is not None:
            stats.diagnosis_prefix_reuses = sender_states.hits - hits_before
        stats.absorb_machine(machine.stats.since(before), stage="diagnosis")
        stats.diagnosis_seconds = time.monotonic() - start

    def _build_schedule_policy(self) -> Optional[SchedulePolicy]:
        config = self.config
        if not config.interleave:
            return None
        pair_names = None
        if config.schedule_pairs > 0:
            from ..analysis.accessmap import extract_access_map
            from ..analysis.races import find_race_candidates

            candidates = find_race_candidates(
                extract_access_map(config.machine.bugs))
            pair_names = ranked_pair_names(candidates, config.schedule_pairs)
        return SchedulePolicy(strategy=config.schedule_strategy,
                              budget=config.schedule_budget,
                              seed=config.schedule_seed,
                              depth=config.schedule_depth,
                              granularity=config.schedule_points,
                              pair_names=pair_names)

    def _make_detector(self, machine: Machine, caches: _Caches) -> Detector:
        config = self.config
        analyzer = NondetAnalyzer(machine, store=caches.nondet)
        explorer = None
        if self._sched_policy is not None:
            explorer = ScheduleExplorer(machine, config.spec, analyzer,
                                        self._sched_policy)
        return Detector(machine, config.spec, analyzer,
                        baselines=caches.baselines,
                        sender_states=caches.sender_states,
                        explorer=explorer)
