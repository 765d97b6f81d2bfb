"""Per-site injection + recovery semantics (ISSUE 4 tentpole).

Each test drives exactly one site through its recovery path and checks
the two things that matter: the recovered state is equivalent to the
clean run's, and the books balance (injected == recovered + infra).
"""

from __future__ import annotations

import pytest

from repro.corpus.seeds import seed_programs
from repro.faults.plan import (
    SITE_EXEC_TIMEOUT,
    SITE_RESTORE_FAIL,
    SITE_SEGMENT_CORRUPT,
    ExecTimeoutInjected,
    FaultPlan,
    call_with_fault_retries,
)
from repro.kernel import linux_5_13
from repro.vm import (
    Machine,
    MachineConfig,
    state_fingerprint,
)
from repro.vm.machine import RECEIVER


def _machine(plan):
    return Machine(MachineConfig(bugs=linux_5_13(), fault_plan=plan))


def test_segmented_restore_failure_falls_back_to_restore_all():
    reference_machine = Machine(MachineConfig(bugs=linux_5_13()))
    reference = state_fingerprint(reference_machine.snapshot.restore())

    # One failed reset, then a failure on every reset: the fallback is
    # injection-free, so no failure streak can exhaust it into infra.
    for resets in (1, 4):
        plan = FaultPlan(seed=0,
                         schedule={SITE_RESTORE_FAIL: set(range(resets))})
        machine = _machine(plan)
        for _ in range(resets):
            machine.run(RECEIVER, seed_programs()["read_uptime"])
            machine.reset()  # injected failure -> restore_all_in_place
            assert state_fingerprint(machine.kernel) == reference
        assert machine.stats.recovery_restores == resets
        assert plan.stats.recovered == {SITE_RESTORE_FAIL: resets}
        assert plan.stats.injected == plan.stats.recovered
        assert not plan.stats.infra_failed
        assert plan.stats.accounted()


def test_segment_corruption_detected_and_repaired():
    reference_machine = Machine(MachineConfig(bugs=linux_5_13()))
    reference = state_fingerprint(reference_machine.snapshot.restore())

    plan = FaultPlan(seed=0, schedule={SITE_SEGMENT_CORRUPT: {0}})
    machine = _machine(plan)
    machine.run(RECEIVER, seed_programs()["udp_send"])
    machine.reset()  # drops one dirty group; verify() must catch it
    assert not machine.snapshot.image.corruption_pending
    assert state_fingerprint(machine.kernel) == reference
    assert plan.stats.recovered == {SITE_SEGMENT_CORRUPT: 1}
    assert plan.stats.accounted()


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

