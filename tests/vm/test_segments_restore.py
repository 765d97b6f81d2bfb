"""Segmented snapshot engine: consistency, dirty tracking, telemetry.

The load-bearing property is at the top: for every seed program and
every Table-3 bug kernel, restoring only dirty segments in place lands
on *byte-identical* kernel state to deserializing the full snapshot.
Identity is judged by :func:`repro.vm.state_fingerprint`, the canonical
serialization both the consistency check and these tests share.
"""

from __future__ import annotations

import pytest

from repro.core.known_bugs import SCENARIOS, TABLE3_ROWS, scenario_machine_config
from repro.corpus.seeds import seed_programs
from repro.kernel import linux_5_13
from repro.vm import (
    Machine,
    MachineConfig,
    MachineStats,
    RestoreConsistencyError,
    state_fingerprint,
)
from repro.vm.machine import RECEIVER, SENDER

CONFIGS = {"5.13": MachineConfig(bugs=linux_5_13())}
CONFIGS.update({row: scenario_machine_config(SCENARIOS[row])
                for row in TABLE3_ROWS})


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_segmented_restore_matches_full_restore(config_name):
    """Property: segmented reset ≡ full restore, for all seed programs."""
    machine = Machine(CONFIGS[config_name])
    assert machine.snapshot.image is not None
    reference = state_fingerprint(machine.snapshot.restore())
    # The freshly-booted machine already matches the snapshot.
    assert state_fingerprint(machine.kernel) == reference

    for name, program in sorted(seed_programs().items()):
        machine.reset()
        machine.run(SENDER, program)
        machine.run(RECEIVER, program)
        machine.reset()
        assert state_fingerprint(machine.kernel) == reference, \
            f"divergence after seed {name!r} on config {config_name}"

    # Boot-offset rebases (the §4.3.2 re-run mechanism) must also agree.
    offset_ns = machine.kernel.clock.boot_offset_ns + 7_000_000_000
    machine.reset(boot_offset_ns=offset_ns)
    assert state_fingerprint(machine.kernel) == \
        state_fingerprint(machine.snapshot.restore(boot_offset_ns=offset_ns))


def test_verify_catches_untracked_mutation():
    """A mutation the dirty tracker never saw fails the consistency check."""
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    image = machine.snapshot.image
    # Bypass every kernel API: poke a plain list on a snapshotted object.
    machine.kernel.init_mnt_ns.mounts.append("bogus-mount")
    machine.reset()
    with pytest.raises(RestoreConsistencyError) as excinfo:
        image.verify()
    assert excinfo.value.offenders


def test_verify_passes_after_ordinary_runs():
    machine = Machine(MachineConfig(bugs=linux_5_13(), verify_restore=True))
    seeds = seed_programs()
    for program_name in ("udp_send", "read_sockstat", "mount_and_stat"):
        machine.reset()  # verifies on every reset (verify_restore=True)
        machine.run(SENDER, seeds[program_name])
        machine.run(RECEIVER, seeds[program_name])
    machine.reset()
    assert machine.stats.segmented_restores >= 4


def test_segmented_machine_preserves_kernel_identity():
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    kernel = machine.kernel
    task = machine.receiver_task
    machine.reset()
    assert machine.kernel is kernel
    assert machine.receiver_task is task  # in-place restore keeps roots


def test_reset_restores_only_dirty_segments():
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    total = machine.snapshot.segment_count
    assert total > 10
    machine.reset()
    machine.run(RECEIVER, seed_programs()["read_uptime"])
    before = machine.stats.copy()
    machine.reset()
    delta = machine.stats.since(before)
    assert delta.segmented_restores == 1
    assert 0 < delta.segments_restored < total
    assert delta.segments_restored + delta.segments_skipped == total


def test_machine_stats_merge_and_since():
    a = MachineStats(segmented_restores=2, segments_restored=10,
                     segments_skipped=30, restore_seconds=0.5)
    b = MachineStats(segmented_restores=3, segments_restored=5,
                     segments_skipped=15, restore_seconds=0.25)
    a.merge(b)
    assert a.segmented_restores == 5
    assert a.segments_restored == 15 and a.segments_skipped == 45
    assert a.restore_seconds == pytest.approx(0.75)
    delta = a.since(MachineStats(segmented_restores=2, segments_restored=10,
                                 segments_skipped=30, restore_seconds=0.5))
    assert delta.segmented_restores == 3
    assert delta.restore_seconds == pytest.approx(0.25)
