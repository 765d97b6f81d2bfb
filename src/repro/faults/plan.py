"""Deterministic, seed-driven fault injection for the campaign substrate.

OS-level failure-injection work (SystemTap fault seeding, eBPF-driven
concurrency perturbation) shows two things: recovery bugs hide on the
paths clean tests never take, and injected faults are only debuggable
when the injection schedule is *reproducible*.  This module provides the
reproducible half: a :class:`FaultPlan` decides, for every registered
injection *site*, whether its *k*-th occurrence fires — as a pure
function of ``(seed, site, k)``.  No global RNG stream is consumed, so
the decision for one site is independent of how occurrences of other
sites interleave; an in-process campaign is bit-reproducible, and a
sharded campaign keeps deterministic per-``(site, k)`` decisions (only
the *attribution* of a firing to a particular job can vary with shard
scheduling).

Every injection must eventually be accounted for: a recovery path either
absorbs it (``recovered``), gives up after bounded retries
(``infra_failed``), or quarantines a job that kept taking its shards
down (``poisoned``).  :meth:`FaultStats.accounted` checks the books:
``injected == recovered + infra_failed + poisoned``, per site and in
total.
"""

from __future__ import annotations

import random
import threading
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

#: Snapshot restore fails outright (vm/segments.py).
SITE_RESTORE_FAIL = "restore.fail"
#: A dirty segment is silently left unrestored; the canonical-form
#: consistency check is what must catch it (vm/segments.py).
SITE_SEGMENT_CORRUPT = "segment.corrupt"
#: A computed job result is lost before reaching the supervisor
#: (vm/shardpool.py).
SITE_RESULT_DROP = "result.drop"
#: A shard process SIGKILLs itself as it starts a job — no message, no
#: unwinding, no cleanup handlers.  The supervisor draws the same
#: decision to tell the death from a real one (vm/shardpool.py).
SITE_WORKER_KILL = "worker.kill"
#: A syscall execution times out mid-program (vm/executor.py).
SITE_EXEC_TIMEOUT = "exec.timeout"
#: A campaign-journal append is torn mid-record — only a prefix of the
#: line reaches the file, simulating a crash between ``write`` and the
#: trailing newline; the journal's tail-repair path must truncate the
#: torn bytes before the record is re-written (repro.store.journal).
SITE_JOURNAL_TORN = "journal.torn"
#: An ``fsync`` on the durable campaign store fails (repro.store); the
#: store retries within the plan budget and degrades to flushed-only
#: durability when the budget is exhausted.
SITE_STORE_FSYNC_FAIL = "store.fsync_fail"
#: A controlled-interleaving schedule execution dies mid-run — the
#: machine state is torn between sender and receiver progress, so the
#: whole test case must be retried from the snapshot
#: (repro.core.schedule).
SITE_SCHED_PREEMPT = "sched.preempt"

ALL_SITES: Tuple[str, ...] = (
    SITE_RESTORE_FAIL,
    SITE_SEGMENT_CORRUPT,
    SITE_RESULT_DROP,
    SITE_WORKER_KILL,
    SITE_EXEC_TIMEOUT,
    SITE_JOURNAL_TORN,
    SITE_STORE_FSYNC_FAIL,
    SITE_SCHED_PREEMPT,
)

#: Occurrence-frequency compensation applied to the blanket campaign
#: rate.  ``exec.timeout`` fires per *syscall* — orders of magnitude
#: more occurrences than the per-reset / per-job sites — so without
#: scaling, one campaign rate would make nearly every multi-call run
#: fail and bounded retries could never converge.  Explicit per-site
#: ``rates`` overrides are taken verbatim (no scaling): the blanket
#: rate expresses campaign intensity, an override expresses an exact
#: per-occurrence probability.
SITE_RATE_SCALE: Dict[str, float] = {
    SITE_EXEC_TIMEOUT: 0.01,
    # sched.preempt fires once per explored schedule — dozens of
    # occurrences per interleaved case vs. one per-reset occurrence.
    SITE_SCHED_PREEMPT: 0.02,
}


class FaultInjectedError(Exception):
    """Base of every exception raised *by* an injection site."""

    def __init__(self, site: str, message: str = ""):
        self.site = site
        super().__init__(message or f"injected fault at {site}")


class RestoreFaultInjected(FaultInjectedError):
    """A snapshot restore was made to fail."""


class ExecTimeoutInjected(FaultInjectedError):
    """A syscall execution was made to time out."""


class SchedulePreemptInjected(FaultInjectedError):
    """A controlled-interleaving schedule execution was made to die."""


class FaultRetriesExhausted(RuntimeError):
    """A recovery path gave up after its bounded retries."""

    def __init__(self, sites: Sequence[str], context: str = ""):
        self.sites = list(sites)
        detail = f" ({context})" if context else ""
        super().__init__(
            f"fault recovery exhausted after {len(self.sites)} injected "
            f"fault(s) [{', '.join(self.sites)}]{detail}")


class FaultStats:
    """Thread-safe injected/recovered/infra-failed/poisoned counters.

    ``poisoned`` is the quarantine column: injections charged to a job
    whose real worker deaths got it quarantined as a poison pair (see
    :mod:`repro.faults.retry`) land here instead of infra.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.injected: Dict[str, int] = {}
        self.recovered: Dict[str, int] = {}
        self.infra_failed: Dict[str, int] = {}
        self.poisoned: Dict[str, int] = {}

    def note_injected(self, site: str) -> None:
        with self._lock:
            self.injected[site] = self.injected.get(site, 0) + 1

    def note_recovered(self, sites: Iterable[str]) -> None:
        with self._lock:
            for site in sites:
                self.recovered[site] = self.recovered.get(site, 0) + 1

    def note_infra_failed(self, sites: Iterable[str]) -> None:
        with self._lock:
            for site in sites:
                self.infra_failed[site] = self.infra_failed.get(site, 0) + 1

    def note_poisoned(self, sites: Iterable[str]) -> None:
        with self._lock:
            for site in sites:
                self.poisoned[site] = self.poisoned.get(site, 0) + 1

    @property
    def injected_total(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    @property
    def recovered_total(self) -> int:
        with self._lock:
            return sum(self.recovered.values())

    @property
    def infra_failed_total(self) -> int:
        with self._lock:
            return sum(self.infra_failed.values())

    @property
    def poisoned_total(self) -> int:
        with self._lock:
            return sum(self.poisoned.values())

    def accounted(self) -> bool:
        """Every injection was recovered, charged to infra, or poisoned."""
        with self._lock:
            sites = set(self.injected) | set(self.recovered) \
                | set(self.infra_failed) | set(self.poisoned)
            return all(
                self.injected.get(site, 0)
                == self.recovered.get(site, 0)
                + self.infra_failed.get(site, 0)
                + self.poisoned.get(site, 0)
                for site in sites
            )

    def snapshot(self) -> Tuple[Dict[str, int], Dict[str, int],
                                Dict[str, int], Dict[str, int]]:
        with self._lock:
            return (dict(self.injected), dict(self.recovered),
                    dict(self.infra_failed), dict(self.poisoned))

    def merge_delta(self, injected: Mapping[str, int],
                    recovered: Mapping[str, int],
                    infra_failed: Mapping[str, int],
                    poisoned: Mapping[str, int]) -> None:
        """Fold another process's counter growth into these books.

        Shard processes each carry a forked copy of the plan; they ship
        per-site counter *deltas* (growth since fork) back to the
        supervisor, which merges them here so :meth:`accounted` sees one
        campaign-wide ledger.
        """
        with self._lock:
            for site, count in injected.items():
                self.injected[site] = self.injected.get(site, 0) + count
            for site, count in recovered.items():
                self.recovered[site] = self.recovered.get(site, 0) + count
            for site, count in infra_failed.items():
                self.infra_failed[site] = \
                    self.infra_failed.get(site, 0) + count
            for site, count in poisoned.items():
                self.poisoned[site] = self.poisoned.get(site, 0) + count


def decision(seed: int, site: str, occurrence: int) -> float:
    """The deterministic draw for one (site, occurrence) pair.

    Seeding :class:`random.Random` with a string goes through SHA-512,
    so the value is stable across processes and unaffected by
    ``PYTHONHASHSEED`` — the reproducibility the whole design rests on.
    """
    return random.Random(f"{seed}:{site}:{occurrence}").random()


class FaultPlan:
    """One campaign's seeded injection schedule, with accounting.

    Probability mode: every enabled site fires its *k*-th occurrence iff
    ``decision(seed, site, k) < rate``.  Schedule mode: a site with an
    explicit occurrence-index set fires exactly at those indices —
    deterministic single-shot placement for targeted tests.
    """

    def __init__(self, seed: int = 0, rate: float = 0.0,
                 rates: Optional[Mapping[str, float]] = None,
                 schedule: Optional[Mapping[str, Iterable[int]]] = None,
                 sites: Optional[Iterable[str]] = None,
                 max_retries: int = 5):
        self.seed = seed
        enabled = tuple(sites) if sites is not None else ALL_SITES
        for site in enabled:
            if site not in ALL_SITES:
                raise ValueError(f"unknown fault site {site!r} "
                                 f"(known: {', '.join(ALL_SITES)})")
        self._rates: Dict[str, float] = {
            site: rate * SITE_RATE_SCALE.get(site, 1.0) for site in enabled}
        for site, site_rate in (rates or {}).items():
            if site not in ALL_SITES:
                raise ValueError(f"unknown fault site {site!r}")
            self._rates[site] = site_rate
        self._schedule: Dict[str, frozenset] = {
            site: frozenset(indices)
            for site, indices in (schedule or {}).items()
        }
        for site in self._schedule:
            if site not in ALL_SITES:
                raise ValueError(f"unknown fault site {site!r}")
        #: Bounded-retry budget of :func:`call_with_fault_retries` and
        #: the store's recovery paths (shard jobs settle by a
        #: :class:`~repro.faults.retry.RetryPolicy` instead).
        self.max_retries = max_retries
        self.stats = FaultStats()
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}

    # -- the injection decision ---------------------------------------------

    def should_inject(self, site: str) -> bool:
        """Advance *site*'s occurrence counter and decide injection."""
        with self._lock:
            occurrence = self._counters.get(site, 0)
            self._counters[site] = occurrence + 1
        fired = self._fires(site, occurrence)
        if fired:
            self.stats.note_injected(site)
        return fired

    def _fires(self, site: str, occurrence: int) -> bool:
        scheduled = self._schedule.get(site)
        if scheduled is not None:
            return occurrence in scheduled
        rate = self._rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return decision(self.seed, site, occurrence) < rate

    def preview(self, site: str, count: int) -> List[bool]:
        """The first *count* decisions for *site*, without side effects."""
        return [self._fires(site, k) for k in range(count)]

    def fires_at(self, site: str, occurrence: int) -> bool:
        """Decision for an explicit occurrence index — no counter, no books.

        Process shards each fork a copy of the plan, so per-site counter
        streams would restart identically in every shard (a scheduled
        occurrence would fire in all of them, every round).  The
        ``worker.kill`` site therefore keys the decision on a globally
        meaningful index — ``job_id + attempt * stride`` — which the
        shard pool's supervisor draws again, and accounts, when it
        settles the shard's death.
        """
        return self._fires(site, occurrence)

    def occurrences(self, site: str) -> int:
        with self._lock:
            return self._counters.get(site, 0)

    # -- accounting ----------------------------------------------------------

    def record_recovered(self, sites: Iterable[str]) -> None:
        self.stats.note_recovered(sites)

    def record_infra_failed(self, sites: Iterable[str]) -> None:
        self.stats.note_infra_failed(sites)

    def record_poisoned(self, sites: Iterable[str]) -> None:
        self.stats.note_poisoned(sites)

    def signature(self) -> Dict[str, Any]:
        """The plan's result-affecting identity, for config fingerprints.

        Two plans with equal signatures make identical injection
        decisions, so a resumed campaign replays the same chaos schedule
        an uninterrupted run would have seen.
        """
        return {
            "seed": self.seed,
            "rates": {site: rate for site, rate
                      in sorted(self._rates.items()) if rate > 0.0},
            "schedule": {site: sorted(indices) for site, indices
                         in sorted(self._schedule.items())},
            "max_retries": self.max_retries,
            # Retired option (shard jobs settle by RetryPolicy), kept
            # constant so existing journals resume.
            "max_job_retries": 12,
        }

    # -- construction helpers ------------------------------------------------

    @classmethod
    def parse(cls, spec: str, **kwargs) -> "FaultPlan":
        """Build a plan from the CLI's ``seed:rate[:site,site…]`` spec.

        ``7:0.2`` enables every site at rate 0.2 with seed 7;
        ``7:0.2:worker.kill,exec.timeout`` restricts to two sites.
        A bare ``7`` uses the default rate 0.1.
        """
        parts = spec.split(":")
        try:
            seed = int(parts[0])
        except ValueError:
            raise ValueError(f"bad fault spec {spec!r}: seed must be an int")
        rate = 0.1
        if len(parts) > 1 and parts[1]:
            try:
                rate = float(parts[1])
            except ValueError:
                raise ValueError(
                    f"bad fault spec {spec!r}: rate must be a float")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"bad fault spec {spec!r}: rate must be in [0, 1]")
        sites = None
        if len(parts) > 2 and parts[2]:
            sites = tuple(part.strip() for part in parts[2].split(","))
        if len(parts) > 3:
            raise ValueError(f"bad fault spec {spec!r}: "
                             "expected seed:rate[:site,site…]")
        return cls(seed=seed, rate=rate, sites=sites, **kwargs)


def call_with_fault_retries(plan: Optional[FaultPlan], fn, *args,
                            context: str = ""):
    """Run *fn*, retrying on injected faults within the plan's budget.

    The universal recovery wrapper for operations that are pure
    functions of the snapshot (profiling runs, test-case checks,
    diagnosis re-runs): an injected fault aborts the attempt, the next
    attempt starts from a fresh restore, and the result is provably the
    one the clean run would have produced.  On success every absorbed
    injection is recorded as recovered; on exhaustion they are charged
    to infra and :class:`FaultRetriesExhausted` is raised for the caller
    to degrade gracefully.
    """
    if plan is None:
        return fn(*args)
    pending: List[str] = []
    while True:
        try:
            value = fn(*args)
        except FaultInjectedError as error:
            pending.append(error.site)
            if len(pending) > plan.max_retries:
                plan.record_infra_failed(pending)
                raise FaultRetriesExhausted(pending, context=context)
            continue
        if pending:
            plan.record_recovered(pending)
        return value
