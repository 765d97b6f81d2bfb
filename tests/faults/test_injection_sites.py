"""Per-site injection + recovery semantics.

Each test drives exactly one site through its recovery path and checks
the two things that matter: the recovered state is equivalent to the
clean run's, and the books balance (injected == recovered + infra).
A fault is injected only where it can leave the call that injected it,
so a reset and an unsynced journal append have no site at all.
"""

from __future__ import annotations

import pytest

from repro.corpus.seeds import seed_programs
from repro.faults.plan import (
    SITE_EXEC_TIMEOUT,
    ExecTimeoutInjected,
    FaultPlan,
    call_with_fault_retries,
)
from repro.kernel import linux_5_13
from repro.store.journal import RECORD_CASE, CampaignJournal, scan
from repro.vm import Machine, MachineConfig
from repro.vm.machine import RECEIVER


def _machine(plan):
    return Machine(MachineConfig(bugs=linux_5_13(), fault_plan=plan))


def test_exec_timeout_rerun_matches_clean_run():
    program = seed_programs()["read_uptime"]
    clean = Machine(MachineConfig(bugs=linux_5_13()))
    clean.reset()
    clean_records = clean.run(RECEIVER, program).records

    plan = FaultPlan(seed=0, schedule={SITE_EXEC_TIMEOUT: {0}})
    machine = _machine(plan)

    def run_case():
        machine.reset()
        return machine.run(RECEIVER, program)

    with pytest.raises(ExecTimeoutInjected):
        run_case()  # first attempt aborts mid-program
    plan.stats.note_recovered([SITE_EXEC_TIMEOUT])  # manual resolution here
    result = run_case()  # fresh restore -> the clean execution
    assert [(r.name, r.retval, r.errno) for r in result.records] \
        == [(r.name, r.retval, r.errno) for r in clean_records]
    assert plan.stats.accounted()


def test_exec_timeout_with_retry_wrapper():
    program = seed_programs()["read_uptime"]
    plan = FaultPlan(seed=0, schedule={SITE_EXEC_TIMEOUT: {0}})
    machine = _machine(plan)

    def run_case():
        machine.reset()
        return machine.run(RECEIVER, program)

    result = call_with_fault_retries(plan, run_case)
    assert result.live_records()
    assert plan.stats.recovered == {SITE_EXEC_TIMEOUT: 1}
    assert plan.stats.accounted()


def test_resets_and_unsynced_appends_inject_nothing(tmp_path):
    """Every site enabled at rate 1.0: a reset restores the snapshot
    and an unsynced append writes its line, with nothing injected."""
    plan = FaultPlan(seed=0, rate=1.0)
    machine = _machine(plan)
    for _ in range(3):
        machine.reset()
    path = str(tmp_path / "journal.jsonl")
    journal = CampaignJournal(path, faults=plan)
    for index in range(3):
        assert journal.append({"t": RECORD_CASE, "k": f"k{index}:r"},
                              sync=False)
    assert plan.stats.injected == {}
    journal.close()  # the batch's fsync is a site: it may inject
    assert [record["k"] for record in scan(path).records] \
        == ["k0:r", "k1:r", "k2:r"]
    assert machine.stats.segmented_restores == 3
