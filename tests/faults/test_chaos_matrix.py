"""Chaos property: a faulted campaign finds the same bugs (satellite 3).

For every seed, every injection site, and every kernel: running the
campaign under fault injection must report exactly the bug set the
fault-free campaign reports, with every injection accounted for.  A
light slice runs in tier-1; the full sweep is behind ``-m chaos``.
"""

from __future__ import annotations

import pytest

from repro.core.known_bugs import SCENARIOS, TABLE3_ROWS, scenario_machine_config
from repro.core.pipeline import CampaignConfig, Kit
from repro.core.race_scenarios import race_campaign_config
from repro.faults.plan import (
    ALL_SITES,
    SITE_EXEC_TIMEOUT,
    SITE_RESULT_DROP,
    SITE_SCHED_PREEMPT,
    SITE_STORE_FSYNC_FAIL,
    SITE_WORKER_KILL,
    FaultPlan,
)
from repro.kernel import linux_5_13
from repro.vm import fork_available
from repro.vm.machine import MachineConfig

CORPUS_SIZE = 16
MAX_CASES = 16

KERNELS = {"5.13": MachineConfig(bugs=linux_5_13())}
KERNELS.update({row: scenario_machine_config(SCENARIOS[row])
                for row in TABLE3_ROWS})


def _campaign(kernel_name, faults=None, workers=0, **overrides):
    config = CampaignConfig(machine=KERNELS[kernel_name],
                            corpus_size=CORPUS_SIZE,
                            max_test_cases=MAX_CASES,
                            workers=workers, faults=faults, **overrides)
    return Kit(config).run()


@pytest.fixture(scope="module")
def clean_bugs():
    cache = {}

    def bugs_for(kernel_name):
        if kernel_name not in cache:
            cache[kernel_name] = sorted(_campaign(kernel_name).bugs_found())
        return cache[kernel_name]

    return bugs_for


def _assert_equivalent(result, plan, expected_bugs):
    assert sorted(result.bugs_found()) == expected_bugs
    assert result.stats.faults_accounted(), plan.stats.snapshot()
    assert result.stats.faults_injected_total() \
        == result.stats.faults_recovered_total() \
        + result.stats.faults_infra_total() \
        + result.stats.faults_poisoned_total()
    # No infra failure may masquerade as a bug report.
    assert all(r.case is not None for r in result.reports)


# -- tier-1 slice -------------------------------------------------------------


def test_chaos_in_process_campaign(clean_bugs):
    # In process and without a store, only exec.timeout has an
    # occurrence; the explicit rate is taken unscaled.
    plan = FaultPlan(seed=2, rate=0.2, rates={SITE_EXEC_TIMEOUT: 0.03})
    result = _campaign("5.13", faults=plan, workers=0)
    _assert_equivalent(result, plan, clean_bugs("5.13"))
    assert result.stats.faults_injected_total() > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_chaos_interleaved_campaign_reports_race_bugs(seed):
    """The interleaving leg: schedule exploration under blanket fault
    injection — including ``sched.preempt`` deaths mid-interleaving —
    still converges on the full race-bug set with balanced books.  The
    blanket rate alone draws no preemption on these seeds, so the site
    gets an explicit rate."""
    plan = FaultPlan(seed=seed, rate=0.15, rates={SITE_SCHED_PREEMPT: 0.03})
    result = Kit(race_campaign_config(faults=plan, workers=2)).run()
    _assert_equivalent(result, plan, ["T1", "T2", "T3"])
    assert result.stats.faults_injected.get(SITE_SCHED_PREEMPT, 0) > 0


def test_sched_preempt_site_alone():
    """Every injection at the schedule-execution site recovers via the
    whole-case retry and no witness is lost."""
    plan = FaultPlan(seed=3, rate=0.5, sites=(SITE_SCHED_PREEMPT,))
    result = Kit(race_campaign_config(faults=plan)).run()
    _assert_equivalent(result, plan, ["T1", "T2", "T3"])
    assert result.stats.faults_injected.get(SITE_SCHED_PREEMPT, 0) > 0


needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="process shards require fork")


def _storm(plan):
    """The 6-case campaign on two shards, without a store."""
    # rand has no profiling stage, so the storm hits execution only.
    config = CampaignConfig(machine=KERNELS["5.13"], corpus_size=6,
                            strategy="rand", rand_budget=6, workers=2,
                            faults=plan, diagnose=False)
    return Kit(config).run()


@needs_fork
def test_graceful_degradation_when_every_result_is_dropped():
    """Every result is lost in transit: no shard dies, so nothing is
    poisoned, and each case degrades to infra_failed once it has lost
    more results than the default budget allows."""
    plan = FaultPlan(seed=0, rates={SITE_RESULT_DROP: 1.0})
    result = _storm(plan)
    assert result.reports == []
    assert result.stats.outcomes == {"infra_failed": 6}
    assert result.stats.infra_failed_cases == 6
    assert result.stats.shards_died == 0
    # Thirteen lost results per case: the twelve-retry budget, plus one.
    assert result.stats.faults_injected == {SITE_RESULT_DROP: 6 * 13}
    assert result.stats.faults_infra == {SITE_RESULT_DROP: 6 * 13}
    assert result.stats.faults_accounted(), plan.stats.snapshot()
    assert result.bugs_found() == set()


@needs_fork
@pytest.mark.parametrize("seed", [0, 1])
def test_chaos_campaign_reports_same_bugs(seed, clean_bugs):
    """Blanket injection on an odd shard count (three shards over the
    corpus), so stolen ranges and respawns split unevenly."""
    plan = FaultPlan(seed=seed, rate=0.15)
    result = _campaign("5.13", faults=plan, workers=3)
    _assert_equivalent(result, plan, clean_bugs("5.13"))
    assert result.stats.faults_injected_total() > 0


@needs_fork
@pytest.mark.parametrize("seed", [0, 1])
def test_chaos_process_campaign_reports_same_bugs(seed, clean_bugs):
    """The tier-1 process-mode slice: forked shards under blanket
    injection (worker.kill included) find exactly the clean bug set."""
    plan = FaultPlan(seed=seed, rate=0.15)
    result = _campaign("5.13", faults=plan, workers=2)
    _assert_equivalent(result, plan, clean_bugs("5.13"))
    assert result.stats.faults_injected_total() > 0


@needs_fork
def test_graceful_degradation_when_every_shard_is_killed():
    """Every job attempt SIGKILLs its shard, yet the campaign completes
    with balanced books.  Injected kills never quarantine a pair, so
    each case degrades to infra_failed once it has been killed more
    often than the default budget allows."""
    plan = FaultPlan(seed=0, rates={SITE_WORKER_KILL: 1.0})
    result = _storm(plan)
    assert result.reports == []
    assert result.stats.outcomes == {"infra_failed": 6}
    assert result.stats.poisoned_cases == 0
    # Thirteen kills per case: the twelve-retry budget, plus one.
    assert result.stats.faults_injected == {SITE_WORKER_KILL: 6 * 13}
    assert result.stats.faults_infra == {SITE_WORKER_KILL: 6 * 13}
    assert result.stats.faults_accounted(), plan.stats.snapshot()
    assert result.bugs_found() == set()
    assert result.stats.shards_died > 0


# -- the full sweep (deselected by default; run with -m chaos) ----------------


#: The single-site sweep's exact (unscaled) rate per site.  The
#: per-syscall and per-schedule sites fire dozens of times per case, so
#: their rate is a tenth of the per-job sites'.
SWEEP_RATES = {SITE_RESULT_DROP: 0.3, SITE_WORKER_KILL: 0.3,
               SITE_EXEC_TIMEOUT: 0.03, SITE_STORE_FSYNC_FAIL: 0.3,
               SITE_SCHED_PREEMPT: 0.03}


@needs_fork
@pytest.mark.chaos
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("site", ALL_SITES)
def test_process_single_site_sweep(site, seed, clean_bugs, tmp_path):
    """Every injection site, one at a time, against forked shards.  The
    campaign is stored, so the journal's fsync has occurrences, and
    ``sched.preempt`` runs the race campaign, the one that explores
    schedules."""
    plan = FaultPlan(seed=seed, rates={site: SWEEP_RATES[site]})
    if site == SITE_SCHED_PREEMPT:
        result = Kit(race_campaign_config(faults=plan, workers=2)).run()
        expected = ["T1", "T2", "T3"]
    else:
        result = _campaign("5.13", faults=plan, workers=2,
                           store_dir=str(tmp_path))
        expected = clean_bugs("5.13")
    _assert_equivalent(result, plan, expected)
    assert result.stats.faults_injected.get(site, 0) > 0


@needs_fork
@pytest.mark.chaos
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_process_all_sites_all_kernels_sweep(kernel_name, seed, clean_bugs):
    # The Table-3 kernels run few cases, so the shard sites alone may
    # not fire; exec.timeout's explicit rate is taken unscaled.
    plan = FaultPlan(seed=seed, rate=0.15, rates={SITE_EXEC_TIMEOUT: 0.03})
    result = _campaign(kernel_name, faults=plan, workers=2)
    _assert_equivalent(result, plan, clean_bugs(kernel_name))
    assert result.stats.faults_injected_total() > 0
