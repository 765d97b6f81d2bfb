"""Shard pool edge cases: pool sizing, failure propagation, determinism.

Every test runs several shards at once; the single-shard forms of the
same contracts live in ``tests/vm/test_shardpool.py``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.faults.retry import RetryPolicy
from repro.kernel import linux_5_13
from repro.vm import Machine, MachineConfig, fork_available, run_sharded

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process shards require fork")

CONFIG = MachineConfig(bugs=linux_5_13())


def test_more_workers_than_jobs():
    """The pool clamps to the job count: no machine boots for nothing."""
    report = run_sharded(CONFIG, ["a", "b"],
                         lambda machine, payload: payload.upper(),
                         workers=8)
    assert [r.outcome for r in report.results] == ["A", "B"]
    assert report.shards_spawned == 2
    assert {r.worker for r in report.results} <= {0, 1}


def test_empty_payload_list():
    report = run_sharded(CONFIG, [], lambda machine, payload: payload,
                         workers=3)
    assert report.results == [] and report.shards_spawned == 0


def test_runner_exception_carries_job_id_and_spares_others():
    """One raising job reports its error; every other job still runs."""

    def runner(machine, payload):
        if payload == 2:
            raise ValueError("boom on two")
        return payload * 10

    results = run_sharded(CONFIG, [0, 1, 2, 3], runner, workers=2).results
    assert len(results) == 4
    failed = results[2]
    assert failed.job_id == 2
    assert failed.outcome is None
    assert "ValueError" in failed.error and "boom on two" in failed.error
    assert [r.outcome for r in results if r.job_id != 2] == [0, 10, 30]
    assert all(r.error is None for r in results if r.job_id != 2)


def test_results_in_order_under_scheduling_jitter():
    """Job-id ordering is independent of which shard finishes when."""

    def runner(machine, payload):
        # Earlier jobs sleep longer, so completion order inverts
        # submission order whenever more than one shard is running.
        time.sleep(0.02 if payload < 2 else 0.0)
        return payload

    payloads = list(range(6))
    results = run_sharded(CONFIG, payloads, runner, workers=3).results
    assert [r.job_id for r in results] == payloads
    assert [r.outcome for r in results] == payloads


def test_worker_machines_get_worker_ids():
    def runner(machine, payload):
        return machine.cluster_worker_id

    report = run_sharded(CONFIG, list(range(8)), runner, workers=2,
                         telemetry_hook=lambda m: m.cluster_worker_id)
    assert {r.outcome for r in report.results} <= {0, 1}
    assert all(r.outcome == r.worker for r in report.results)
    assert sorted(report.telemetry) == [0, 1]


def test_boot_failure_reports_unfinished_jobs():
    """A pool dying at boot returns every job unfinished, never a
    short list: under the default policy each round charges every job,
    so the run ends once the budget is spent."""

    def exploding_boot():
        raise RuntimeError("no memory for VM")

    report = run_sharded(CONFIG, ["x", "y", "z"],
                         lambda machine, payload: payload, workers=2,
                         boot=exploding_boot)
    assert [r.job_id for r in report.results] == [0, 1, 2]
    for result in report.results:
        assert result.outcome is None and not result.poisoned
        assert result.attempts == RetryPolicy().budget + 1
        assert "no memory for VM" in result.error


def test_one_worker_booting_still_drains_queue(tmp_path):
    """If only some shards boot, the jobs of the dead ones re-run on a
    replacement without being charged a failed attempt."""
    flag = str(tmp_path / "one-boot-failed")

    def flaky_boot():
        try:
            # Exactly one shard (whichever wins the race) fails to boot.
            os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return Machine(CONFIG)
        raise RuntimeError("second VM failed to boot")

    report = run_sharded(CONFIG, list(range(5)),
                         lambda machine, payload: payload, workers=2,
                         boot=flaky_boot)
    assert [r.outcome for r in report.results] == list(range(5))
    assert report.shards_died == 1 and report.rounds == 2
    assert all(r.attempts == 0 for r in report.results)
