"""FaultPlan determinism, parsing, and accounting (ISSUE 4, satellite 4).

The property the whole chaos suite rests on: a plan is a pure function
of its seed.  Same seed ⇒ identical injection schedule, and two
identical single-threaded campaigns produce identical fault counters.
"""

from __future__ import annotations

import os

import pytest

from repro.core.pipeline import CampaignConfig, Kit
from repro.faults.plan import (
    ALL_SITES,
    SITE_EXEC_TIMEOUT,
    SITE_RATE_SCALE,
    SITE_WORKER_KILL,
    FaultInjectedError,
    FaultPlan,
    FaultRetriesExhausted,
    FaultStats,
    call_with_fault_retries,
    decision,
)
from repro.kernel import linux_5_13
from repro.vm.machine import MachineConfig

DOCS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(__file__))), "docs")


def test_decision_is_pure_and_seed_sensitive():
    assert decision(7, "worker.kill", 3) == decision(7, "worker.kill", 3)
    draws = [decision(7, "worker.kill", k) for k in range(64)]
    other_seed = [decision(8, "worker.kill", k) for k in range(64)]
    other_site = [decision(7, "result.drop", k) for k in range(64)]
    assert draws != other_seed
    assert draws != other_site
    assert all(0.0 <= d < 1.0 for d in draws)


@pytest.mark.parametrize("site", ALL_SITES)
def test_same_seed_same_schedule(site):
    first = FaultPlan(seed=11, rate=0.3)
    second = FaultPlan(seed=11, rate=0.3)
    assert first.preview(site, 300) == second.preview(site, 300)


def test_different_seeds_diverge_somewhere():
    first = FaultPlan(seed=1, rate=0.3)
    second = FaultPlan(seed=2, rate=0.3)
    assert any(first.preview(site, 200) != second.preview(site, 200)
               for site in ALL_SITES)


def test_should_inject_matches_preview_and_counts():
    plan = FaultPlan(seed=3, rate=0.4)
    site = SITE_WORKER_KILL
    expected = plan.preview(site, 50)
    observed = [plan.should_inject(site) for _ in range(50)]
    assert observed == expected
    assert plan.occurrences(site) == 50
    assert plan.stats.injected.get(site, 0) == sum(expected)


def test_schedule_mode_fires_exactly_at_indices():
    plan = FaultPlan(seed=0, rate=0.9,
                     schedule={SITE_WORKER_KILL: {1, 4}})
    fired = [k for k in range(8) if plan.should_inject(SITE_WORKER_KILL)]
    assert fired == [1, 4]


def test_rate_shortcuts_and_site_scaling():
    assert not any(FaultPlan(seed=0, rate=0.0).preview(SITE_WORKER_KILL, 50))
    assert all(FaultPlan(seed=0, rate=1.0).preview(SITE_WORKER_KILL, 50))
    # The blanket rate is frequency-compensated for the per-syscall
    # site; an explicit per-site override is taken verbatim.
    assert SITE_RATE_SCALE[SITE_EXEC_TIMEOUT] < 1.0
    scaled = FaultPlan(seed=0, rate=1.0)
    assert not all(scaled.preview(SITE_EXEC_TIMEOUT, 50))
    exact = FaultPlan(seed=0, rates={SITE_EXEC_TIMEOUT: 1.0})
    assert all(exact.preview(SITE_EXEC_TIMEOUT, 50))


def _table_sites(doc, heading):
    """The first column of the site table under *heading* in *doc*."""
    with open(os.path.join(DOCS, doc)) as handle:
        section = handle.read().split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [line.split("|")[1].strip().strip("`")
            for line in section.splitlines() if line.startswith("| `")]


def test_site_tables_in_docs_match_the_catalogue():
    """The site tables in docs/FAULTS.md and docs/EXECUTION_CACHE.md
    list exactly the sites the plan knows, each once."""
    sites = _table_sites("FAULTS.md", "Injection sites")
    assert len(sites) == len(set(sites))
    assert set(sites) == set(ALL_SITES)
    cache_sites = _table_sites("EXECUTION_CACHE.md", "Fault injection")
    assert sorted(cache_sites) == sorted(
        site for site in ALL_SITES if site.startswith("sender_cache."))


def test_unknown_site_rejected():
    with pytest.raises(ValueError):
        FaultPlan(sites=("no.such.site",))
    with pytest.raises(ValueError):
        FaultPlan(rates={"no.such.site": 0.5})
    with pytest.raises(ValueError):
        FaultPlan(schedule={"no.such.site": {0}})


def test_parse_specs():
    plan = FaultPlan.parse("7:0.2")
    assert plan.seed == 7
    bare = FaultPlan.parse("7")
    assert bare.seed == 7  # default rate applies
    narrowed = FaultPlan.parse("7:0.2:worker.kill,exec.timeout")
    assert narrowed.preview(SITE_WORKER_KILL, 40).count(True) > 0
    assert not any(narrowed.preview("restore.fail", 40))
    for bad in ("x:0.2", "7:high", "7:2.0", "7:0.2:bogus.site", "7:0.2:a:b"):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)


def test_fault_stats_accounting():
    stats = FaultStats()
    assert stats.accounted()
    stats.note_injected("worker.kill")
    assert not stats.accounted()
    stats.note_recovered(["worker.kill"])
    assert stats.accounted()
    stats.note_injected("worker.kill")
    stats.note_infra_failed(["worker.kill"])
    assert stats.accounted()
    assert stats.injected_total == 2
    assert stats.recovered_total == 1
    assert stats.infra_failed_total == 1


def test_call_with_fault_retries_recovers_and_accounts():
    plan = FaultPlan(seed=0)
    attempts = []

    def flaky():
        attempts.append(True)
        if len(attempts) < 3:
            # Real sites record the injection at the point of failure.
            plan.stats.note_injected("exec.timeout")
            raise FaultInjectedError("exec.timeout")
        return "done"

    assert call_with_fault_retries(plan, flaky) == "done"
    assert plan.stats.recovered.get("exec.timeout") == 2
    assert plan.stats.accounted()


def test_call_with_fault_retries_exhaustion_charges_infra():
    plan = FaultPlan(seed=0, max_retries=2)

    def always_fails():
        plan.stats.note_injected("exec.timeout")
        raise FaultInjectedError("exec.timeout")

    with pytest.raises(FaultRetriesExhausted) as excinfo:
        call_with_fault_retries(plan, always_fails, context="unit")
    assert excinfo.value.sites == ["exec.timeout"] * 3
    assert plan.stats.infra_failed.get("exec.timeout") == 3
    assert plan.stats.accounted()


def test_identical_campaigns_identical_fault_counters():
    """Satellite 4: same seed ⇒ identical schedule AND identical
    CampaignStats fault counters across two single-threaded runs."""

    def campaign():
        plan = FaultPlan(seed=5, rate=0.2)
        config = CampaignConfig(machine=MachineConfig(bugs=linux_5_13()),
                                corpus_size=10, max_test_cases=8,
                                workers=0, faults=plan)
        return Kit(config).run(), plan

    first, first_plan = campaign()
    second, second_plan = campaign()
    assert first.stats.faults_injected == second.stats.faults_injected
    assert first.stats.faults_recovered == second.stats.faults_recovered
    assert first.stats.faults_infra == second.stats.faults_infra
    assert first.stats.faults_injected_total() > 0
    assert first.stats.faults_accounted()
    assert first.stats.outcomes == second.stats.outcomes
    # The occurrence streams themselves replayed identically.
    assert {site: first_plan.occurrences(site) for site in ALL_SITES} \
        == {site: second_plan.occurrences(site) for site in ALL_SITES}
    assert sorted(first.bugs_found()) == sorted(second.bugs_found())
