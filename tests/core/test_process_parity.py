"""Process-shard campaigns are bit-equivalent to serial execution.

Chunk grants decide *where* test cases execute; the inverse-permutation
merge guarantees the campaign cannot tell.  These tests pin the
strongest form of that claim against the in-process (``workers=0``)
reference: identical bug sets, identical outcomes, identical culprit
pairs, and byte-identical rendered reports.  A light slice runs in
tier-1; the seeds-by-kernels sweep is behind ``-m chaos``.
"""

from __future__ import annotations

import pytest

from repro.core import pipeline
from repro.core.known_bugs import SCENARIOS, TABLE3_ROWS, scenario_machine_config
from repro.core.pipeline import CampaignConfig, Kit
from repro.faults.plan import SITE_WORKER_KILL, FaultPlan
from repro.kernel import linux_5_13
from repro.vm import MachineConfig, fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process shards require fork")

KERNELS = {"5.13": MachineConfig(bugs=linux_5_13())}
KERNELS.update({row: scenario_machine_config(SCENARIOS[row])
                for row in TABLE3_ROWS})


def _campaign(kernel_name, seed=3, **overrides):
    config = CampaignConfig(machine=KERNELS[kernel_name], corpus_size=16,
                            corpus_seed=seed, max_test_cases=16,
                            diagnose=True, **overrides)
    return Kit(config).run()


def _signature(result):
    """Everything execution order could conceivably perturb."""
    return {
        "bugs": sorted(result.bugs_found()),
        "outcomes": sorted(result.stats.outcomes.items()),
        "culprits": sorted(
            (report.case.sender.hash_hex, report.case.receiver.hash_hex,
             tuple(report.interfered_indices),
             tuple((pair.sender_index, pair.receiver_index)
                   for pair in report.culprit_pairs))
            for report in result.reports),
        "renders": sorted(report.render() for report in result.reports),
    }


# -- tier-1 slice -------------------------------------------------------------


def test_process_mode_matches_in_process():
    in_process = _campaign("5.13", workers=0)
    sharded = _campaign("5.13", workers=2)
    assert _signature(sharded) == _signature(in_process)


def test_process_mode_telemetry_accounts_for_the_pool():
    in_process = _campaign("5.13", workers=0)
    sharded = _campaign("5.13", workers=2)
    stats = sharded.stats
    assert stats.shard_mode == "process"
    assert stats.execution_workers == 2
    assert stats.shards_spawned >= 2 and stats.shards_died == 0
    # Shard-local execution telemetry merges losslessly: the §6.5
    # funnel sees exactly the cases the in-process run executed.
    assert stats.cases_executed == in_process.stats.cases_executed
    assert stats.shard_mode != in_process.stats.shard_mode


def test_shard_results_reference_the_generated_cases(monkeypatch):
    """Shards send verdicts, not cases: the supervisor rebuilds every
    result, and its report, around the generator's own TestCase."""
    merged = {}
    execute = Kit._execute

    def spy(self, machine, cases, stats, caches):
        results = execute(self, machine, cases, stats, caches)
        merged.update(cases=cases, results=results)
        return results

    monkeypatch.setattr(Kit, "_execute", spy)
    sharded = _campaign("5.13", workers=2)
    assert sharded.stats.shard_mode == "process"
    cases, results = merged["cases"], merged["results"]
    assert len(results) == len(cases) == sharded.stats.cases_total > 0
    assert all(result.case is case for result, case in zip(results, cases))
    reported = [result for result in results if result.report is not None]
    assert reported
    assert all(result.report.case is result.case for result in reported)
    generated = {id(case) for case in sharded.generation.test_cases}
    assert all(id(report.case) in generated for report in sharded.reports)


def test_forkless_fallback_runs_in_process(monkeypatch):
    """Without ``fork``, ``workers > 0`` executes in-process: the same
    verdicts as ``workers=0``, and no shard telemetry."""
    in_process = _campaign("5.13", workers=0)
    monkeypatch.setattr(pipeline, "fork_available", lambda: False)
    fallback = _campaign("5.13", workers=2)
    assert _signature(fallback) == _signature(in_process)
    assert fallback.stats.shard_mode == "in-process"
    assert fallback.stats.execution_workers == 0
    assert fallback.stats.shards_spawned == 0


def test_process_shards_need_no_shared_memory(monkeypatch):
    """Shards get the campaign machine and caches through fork alone.

    With POSIX shared memory refused, a 2-shard campaign that loses a
    shard to SIGKILL still matches the in-process run."""
    from multiprocessing import shared_memory

    def refuse(*args, **kwargs):
        raise OSError("shared memory refused")

    in_process = _campaign("5.13", seed=1, workers=0)
    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
    # The first attempt of job 0 SIGKILLs its shard; the retry budget
    # re-runs the job on a replacement shard.
    plan = FaultPlan(seed=0, schedule={SITE_WORKER_KILL: {0}})
    sharded = _campaign("5.13", seed=1, workers=2, faults=plan)
    stats = sharded.stats
    assert stats.shard_mode == "process"
    assert stats.shards_died >= 1
    assert stats.faults_injected == {SITE_WORKER_KILL: 1}
    assert stats.faults_accounted(), plan.stats.snapshot()
    assert _signature(sharded) == _signature(in_process)


def test_only_process_shard_mode_exists():
    with pytest.raises(ValueError, match="shard mode"):
        CampaignConfig(shard_mode="serial")


# -- the seeds-by-kernels sweep (deselected; run with -m chaos) ---------------


@pytest.mark.chaos
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_process_parity_sweep(kernel_name, seed):
    in_process = _campaign(kernel_name, seed=seed, workers=0)
    sharded = _campaign(kernel_name, seed=seed, workers=2)
    assert _signature(sharded) == _signature(in_process)
