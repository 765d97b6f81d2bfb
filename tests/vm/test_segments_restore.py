"""Segmented snapshot engine: consistency, dirty tracking, telemetry.

The load-bearing property is at the top: for every seed program and
every Table-3 bug kernel, restoring only dirty segments in place lands
on *byte-identical* kernel state to deserializing the full snapshot.
Identity is judged by :func:`repro.vm.state_fingerprint`, the canonical
serialization both the consistency check and these tests share.
"""

from __future__ import annotations

import dataclasses
import io
import pickle

import pytest

from repro.core.known_bugs import SCENARIOS, TABLE3_ROWS, scenario_machine_config
from repro.corpus.seeds import seed_programs
from repro.kernel import KernelConfig, linux_5_13
from repro.vm import (
    Machine,
    MachineConfig,
    MachineStats,
    RestoreConsistencyError,
    state_fingerprint,
)
from repro.vm.machine import RECEIVER, SENDER
from repro.vm.segments import _CanonicalWalker

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


def _immutable(value, root_pids):
    """A root, a scalar, or a frozen dataclass of scalars."""
    if id(value) in root_pids or value is None \
            or type(value) in (bool, int, float, str, bytes):
        return True
    return (dataclasses.is_dataclass(value)
            and type(value).__dataclass_params__.frozen
            and all(_immutable(getattr(value, field.name), root_pids)
                    for field in dataclasses.fields(value)))


def test_flat_templates_match_their_payloads(preset_config):
    """A flat group's copied template and its unpickled payload are the
    same state, and no template value is mutable, so copying a template
    can never alias live state."""
    image = Machine(preset_config).snapshot.image
    flat = [group for group, template in enumerate(image._templates)
            if template is not None]
    assert {("kernel",), ("arena",), ("clock",)} <= {
        key for group in flat for key in image.group_members[group]}

    def walk(state):
        return _CanonicalWalker(image._root_pids).walk_state(state)

    for group in flat:
        unpickler = pickle.Unpickler(io.BytesIO(image.payloads[group]))
        unpickler.persistent_load = image.roots.__getitem__
        loaded = unpickler.load()
        template = image._templates[group]
        assert [key for key, __ in template] == [key for key, __ in loaded]
        for (key, state), (__, payload_state) in zip(template, loaded):
            assert walk(state) == walk(payload_state), key
            for name, value in state.items():
                assert _immutable(value, image._root_pids), (key, name)


def test_kernel_config_and_bug_flags_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        KernelConfig().jump_label = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        linux_5_13().ptype_leak = False


def test_reset_keeps_the_live_dirty_root_set():
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    dirty_roots = machine.kernel._dirty_roots
    machine.run(SENDER, seed_programs()["udp_send"])
    assert dirty_roots  # the run marked its caller task
    machine.reset()
    assert machine.kernel._dirty_roots is dirty_roots and not dirty_roots


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
    a = MachineStats(segmented_restores=5, segments_restored=15,
                     segments_skipped=45, restore_seconds=0.75)
    delta = a.since(MachineStats(segmented_restores=2, segments_restored=10,
                                 segments_skipped=30, restore_seconds=0.5))
    assert delta.segmented_restores == 3
    assert delta.segments_restored == 5 and delta.segments_skipped == 15
    assert delta.restore_seconds == pytest.approx(0.25)
