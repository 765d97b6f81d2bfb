"""Crash/resume property: a resumed campaign equals an uninterrupted one.

The contract under test is the tentpole of the durable store: kill the
campaign at *any* journal position — every record boundary, and mid-way
through a torn record — then ``resume`` and the final bug sets, rendered
reports (culprit pairs included), and AGG-RS groups are identical to the
run that was never interrupted.  A light slice runs in tier-1; the full
seeds x kernels x chaos-seeds sweep is behind ``-m chaos``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.detection import Outcome
from repro.core.known_bugs import (
    SCENARIOS,
    TABLE3_ROWS,
    scenario_machine_config,
)
from repro.core.pipeline import CampaignConfig, Kit
from repro.faults.plan import FaultPlan
from repro.kernel import linux_5_13
from repro.store import RECORD_CASE, CampaignJournal, scan
from repro.vm import fork_available
from repro.vm.machine import MachineConfig

CORPUS_SIZE = 10

KERNELS = {"5.13": MachineConfig(bugs=linux_5_13())}
KERNELS.update({row: scenario_machine_config(SCENARIOS[row])
                for row in TABLE3_ROWS})

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="process shards require fork")


def _config(store_dir, kernel_name="5.13", **overrides):
    overrides.setdefault("corpus_size", CORPUS_SIZE)
    return CampaignConfig(machine=KERNELS[kernel_name],
                          store_dir=store_dir, **overrides)


def _signature(result):
    """Everything resume must reproduce byte-for-byte."""
    return (sorted(result.bugs_found()),
            [report.render() for report in result.reports],
            result.groups.agg_rs_count,
            result.groups.agg_r_count,
            dict(result.stats.outcomes))


def _journal_path(store_dir, campaign_id):
    return os.path.join(store_dir, campaign_id, "journal.jsonl")


def _truncate_to(path, data, size):
    with open(path, "wb") as handle:
        handle.write(data[:size])


class TestResumeEverywhere:
    def test_kill_at_every_record_boundary(self, tmp_path):
        """The flagship property: for every prefix of the journal, a
        resumed run converges to the uninterrupted run's exact output."""
        store_dir = str(tmp_path)
        clean = Kit(_config(store_dir)).run()
        expected = _signature(clean)
        path = _journal_path(store_dir, clean.stats.campaign_id)
        with open(path, "rb") as handle:
            journal = handle.read()
        boundaries = [0]
        offset = 0
        for line in journal.splitlines(keepends=True):
            offset += len(line)
            boundaries.append(offset)
        assert len(boundaries) > CORPUS_SIZE  # begin + cases + end
        for size in boundaries:
            _truncate_to(path, journal, size)
            resumed = Kit(_config(store_dir, resume=True)).run()
            assert _signature(resumed) == expected, f"boundary {size}"
            restored = resumed.stats.resumed_cases
            assert restored + len(scan(path).by_type(RECORD_CASE)) \
                >= resumed.stats.cases_total

    def test_kill_mid_record_torn_write(self, tmp_path):
        """A crash half-way through a write leaves a torn line; resume
        repairs the tail and re-executes the lost pair."""
        store_dir = str(tmp_path)
        clean = Kit(_config(store_dir)).run()
        expected = _signature(clean)
        path = _journal_path(store_dir, clean.stats.campaign_id)
        with open(path, "rb") as handle:
            journal = handle.read()
        lines = journal.splitlines(keepends=True)
        for keep in (1, len(lines) // 2, len(lines) - 1):
            torn = b"".join(lines[:keep]) + lines[keep][:-7]
            with open(path, "wb") as handle:
                handle.write(torn)
            resumed = Kit(_config(store_dir, resume=True)).run()
            assert _signature(resumed) == expected, f"torn after {keep}"
            assert resumed.stats.journal_torn_bytes == len(lines[keep]) - 7

    def test_resume_completed_campaign_executes_nothing(self, tmp_path):
        # A pool with nothing left to run reports no workers either.
        for workers in (0, 2):
            store_dir = str(tmp_path / f"workers-{workers}")
            clean = Kit(_config(store_dir, workers=workers)).run()
            resumed = Kit(_config(store_dir, resume=True,
                                  workers=workers)).run()
            assert _signature(resumed) == _signature(clean)
            assert resumed.stats.resumed_cases == resumed.stats.cases_total
            assert resumed.stats.execution_workers == 0, workers
            assert resumed.stats.shards_spawned == 0

    def test_resume_across_pool_shapes(self, tmp_path):
        """The fingerprint excludes perf knobs, so one journal resumes
        under any pool shape with identical output."""
        store_dir = str(tmp_path)
        clean = Kit(_config(store_dir)).run()
        expected = _signature(clean)
        path = _journal_path(store_dir, clean.stats.campaign_id)
        with open(path, "rb") as handle:
            journal = handle.read()
        lines = journal.splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[:len(lines) // 2]))
        resumed = Kit(_config(store_dir, resume=True, workers=3)).run()
        assert _signature(resumed) == expected


class TestGroupCommittedShards:
    @needs_fork
    def test_sharded_campaign_group_commits_and_resumes(self, tmp_path,
                                                        monkeypatch):
        """The shard supervisor journals every case but fsyncs per batch
        of landed results; the journal still resumes completely."""
        fsyncs = []
        real_fsync = os.fsync

        def disk_fsync(fd):
            # An fsync takes milliseconds on a disk, and results keep
            # landing meanwhile; the stand-in does not depend on how
            # fast the test's filesystem syncs.
            fsyncs.append(fd)
            time.sleep(0.02)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", disk_fsync)
        store_dir = str(tmp_path)
        clean = Kit(_config(store_dir, corpus_size=30, strategy="df",
                            workers=2)).run()
        assert clean.stats.shard_mode == "process"
        path = _journal_path(store_dir, clean.stats.campaign_id)
        case_records = scan(path).by_type(RECORD_CASE)
        assert len(case_records) == clean.stats.cases_total > 100
        # One fsync per batch, not per record, nor per supervisor wakeup
        # (a wakeup reads at most one message per shard).
        assert len(fsyncs) < len(case_records) // 4
        resumed = Kit(_config(store_dir, corpus_size=30, strategy="df",
                              workers=2, resume=True)).run()
        assert resumed.stats.resumed_cases == resumed.stats.cases_total
        assert resumed.stats.cases_executed == 0
        assert _signature(resumed) == _signature(clean)


class TestResumeInterleaved:
    def test_kill_and_resume_interleaved_campaign(self, tmp_path):
        """Byte parity for interleaved campaigns: culprit schedules and
        witness lists survive the journal, so a killed-and-resumed run
        renders the exact reports of the uninterrupted one."""
        from repro.core.race_scenarios import race_campaign_config

        store_dir = str(tmp_path)
        clean = Kit(race_campaign_config(store_dir=store_dir)).run()
        expected = _signature(clean)
        assert sorted(clean.bugs_found()) == ["T1", "T2", "T3"]
        assert all(report.culprit_schedule is not None
                   for report in clean.reports)
        path = _journal_path(store_dir, clean.stats.campaign_id)
        with open(path, "rb") as handle:
            journal = handle.read()
        lines = journal.splitlines(keepends=True)
        for keep in (1, len(lines) // 2, len(lines) - 1):
            with open(path, "wb") as handle:
                handle.write(b"".join(lines[:keep]))
            resumed = Kit(race_campaign_config(store_dir=store_dir,
                                               resume=True)).run()
            assert _signature(resumed) == expected, f"boundary {keep}"


class TestResumeChaos:
    def test_chaos_resume_finds_same_bugs(self, tmp_path):
        """Interrupt a faulted campaign and resume it under a fresh plan
        with the same signature: the bug set survives and the fault
        books balance in both halves."""
        baseline = Kit(_config(None)).run()
        store_dir = str(tmp_path)

        def plan():
            return FaultPlan(seed=1, rate=0.15)

        clean = Kit(_config(store_dir, faults=plan(), workers=2)).run()
        assert sorted(clean.bugs_found()) == sorted(baseline.bugs_found())
        path = _journal_path(store_dir, clean.stats.campaign_id)
        with open(path, "rb") as handle:
            journal = handle.read()
        lines = journal.splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[:len(lines) // 2]))
        resumed = Kit(_config(store_dir, resume=True, faults=plan(),
                              workers=2)).run()
        assert sorted(resumed.bugs_found()) == sorted(baseline.bugs_found())
        assert resumed.stats.faults_accounted()
        assert resumed.stats.resumed_cases > 0


class TestPoisonQuarantineDurability:
    def test_poisoned_record_survives_resume(self, tmp_path):
        """A pair journaled as poisoned is never offered to a worker
        again: the resumed run restores it as ``Outcome.POISONED``."""
        store_dir = str(tmp_path)
        clean = Kit(_config(store_dir)).run()
        path = _journal_path(store_dir, clean.stats.campaign_id)
        cases = scan(path).by_type(RECORD_CASE)
        victim = cases[-1]["k"]
        # Drop the victim's terminal record, then quarantine it the way
        # a crashed run's journal would.
        with open(path, "rb") as handle:
            journal = handle.read()
        kept = [line for line in journal.splitlines(keepends=True)
                if f'"{victim}"'.encode() not in line]
        with open(path, "wb") as handle:
            handle.write(b"".join(kept))
        with CampaignJournal(path) as journal_handle:
            journal_handle.append_poisoned(victim, 5, "killed 5 worker(s)")
        resumed = Kit(_config(store_dir, resume=True)).run()
        assert resumed.stats.poisoned_cases == 1
        assert resumed.stats.outcomes.get(Outcome.POISONED.value) == 1
        # Quarantine must subtract at most the victim from the bug set.
        assert set(resumed.bugs_found()) <= set(clean.bugs_found())
        # The resumed run gives the victim its one case record.
        victim_cases = [record for record in scan(path).by_type(RECORD_CASE)
                        if record["k"] == victim]
        assert [record["outcome"] for record in victim_cases] \
            == [Outcome.POISONED.value]


# -- the full sweep (deselected by default; run with -m chaos) ----------------


@pytest.mark.chaos
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_resume_sweep_all_kernels(kernel_name, seed, tmp_path):
    """Boundary-kill + resume across corpus seeds and Table-3 kernels."""
    store_dir = str(tmp_path)
    clean = Kit(_config(store_dir, kernel_name, corpus_seed=seed)).run()
    expected = _signature(clean)
    path = _journal_path(store_dir, clean.stats.campaign_id)
    with open(path, "rb") as handle:
        journal = handle.read()
    lines = journal.splitlines(keepends=True)
    for keep in (1, len(lines) // 3, 2 * len(lines) // 3):
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[:keep]))
        resumed = Kit(_config(store_dir, kernel_name, corpus_seed=seed,
                              resume=True)).run()
        assert _signature(resumed) == expected, (kernel_name, seed, keep)


@pytest.mark.chaos
@pytest.mark.parametrize("chaos_seed", [0, 1])
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_chaos_resume_sweep(kernel_name, chaos_seed, tmp_path):
    """Faulted run, interrupted and resumed, per kernel x chaos seed."""
    baseline = Kit(_config(None, kernel_name)).run()
    store_dir = str(tmp_path)
    plan = FaultPlan(seed=chaos_seed, rate=0.15)
    clean = Kit(_config(store_dir, kernel_name, faults=plan,
                        workers=2)).run()
    path = _journal_path(store_dir, clean.stats.campaign_id)
    with open(path, "rb") as handle:
        journal = handle.read()
    lines = journal.splitlines(keepends=True)
    with open(path, "wb") as handle:
        handle.write(b"".join(lines[:len(lines) // 2]))
    resumed = Kit(_config(store_dir, kernel_name, resume=True,
                          faults=FaultPlan(seed=chaos_seed, rate=0.15),
                          workers=2)).run()
    assert sorted(resumed.bugs_found()) == sorted(baseline.bugs_found())
    assert resumed.stats.faults_accounted()
