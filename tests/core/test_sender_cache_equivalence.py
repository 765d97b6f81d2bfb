"""Sender-state memoization property: cached-restore ≡ re-execution.

The load-bearing property of the SenderStateCache: serving a test case
by restoring *base snapshot + memoized post-sender delta* must be
indistinguishable from re-executing the sender from the snapshot —
byte-identical receiver traces, byte-identical machine state, identical
bug sets and culprit pairs — for every seed program, every Table-3
kernel, and under chaos fault seeds.
"""

from __future__ import annotations

import pytest

from repro.core import CampaignConfig, Kit
from repro.core.decode import decode_trace
from repro.core.execution import SenderStateCache, TestCaseRunner
from repro.core.known_bugs import SCENARIOS, TABLE3_ROWS, scenario_machine_config
from repro.corpus.seeds import seed_programs
from repro.faults.plan import FaultPlan
from repro.kernel import linux_5_13
from repro.vm import Machine, MachineConfig, state_fingerprint

CONFIGS = {"5.13": MachineConfig(bugs=linux_5_13())}
CONFIGS.update({row: scenario_machine_config(SCENARIOS[row])
                for row in TABLE3_ROWS})

#: Chaos seeds for the faulted half of the property (acceptance: >= 2).
CHAOS_SEEDS = (5, 9)


def _campaign(config_name, cache=True, faults=None, workers=0):
    return Kit(CampaignConfig(
        machine=CONFIGS[config_name],
        corpus_size=16, max_test_cases=16, workers=workers,
        sender_cache=cache, faults=faults)).run()


def _assert_reports_identical(cached, uncached):
    assert sorted(cached.bugs_found()) == sorted(uncached.bugs_found())
    assert len(cached.reports) == len(uncached.reports)
    for a, b in zip(cached.reports, uncached.reports):
        assert decode_trace(a.receiver_with_records) \
            == decode_trace(b.receiver_with_records)
        assert decode_trace(a.receiver_alone_records) \
            == decode_trace(b.receiver_alone_records)
        assert decode_trace(a.sender_records) == decode_trace(b.sender_records)
        assert a.interfered_indices == b.interfered_indices
        assert a.culprit_pairs == b.culprit_pairs


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_cached_restore_equals_sender_reexecution(config_name):
    """Property: for every seed program pair, a run served from the
    memoized post-sender delta is byte-identical — traces *and* final
    machine state — to one that re-executed the sender."""
    config = CONFIGS[config_name]
    cached_machine = Machine(config)
    uncached_machine = Machine(config)
    cache = SenderStateCache()
    cached = TestCaseRunner(cached_machine, sender_states=cache)
    uncached = TestCaseRunner(uncached_machine)

    seeds = sorted(seed_programs().items())
    receivers = [program for _, program in seeds[:2]]
    for name, sender in seeds:
        # Two receivers per sender: the first run populates the cache,
        # the second is served from the memoized delta.
        for receiver in receivers:
            sent_c, recv_c = cached.run_with_sender(sender, receiver)
            sent_u, recv_u = uncached.run_with_sender(sender, receiver)
            context = f"sender {name!r} on {config_name}"
            assert decode_trace(recv_c.records) \
                == decode_trace(recv_u.records), context
            assert decode_trace(sent_c.records) \
                == decode_trace(sent_u.records), context
            assert state_fingerprint(cached_machine.kernel) \
                == state_fingerprint(uncached_machine.kernel), context
    # Every sender's second case must have hit the cache.
    assert cache.hits >= len(seeds)
    assert len(cache) == len(seeds)
    assert cache.bytes_held > 0


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_campaign_equivalence(config_name):
    """Property: cache-enabled campaigns report byte-identical traces,
    bug sets, and culprits to cache-disabled ones, on every kernel."""
    cached = _campaign(config_name, cache=True)
    uncached = _campaign(config_name, cache=False)
    _assert_reports_identical(cached, uncached)
    # The disabled run must not touch the cache at all.
    assert uncached.stats.sender_cache_hits == 0
    assert uncached.stats.sender_cache_misses == 0
    assert uncached.stats.diagnosis_prefix_reuses == 0
    if cached.stats.cases_executed:
        assert cached.stats.sender_cache_misses > 0
    # Each Algorithm-2 re-run looks its sender variant up once; only
    # a variant an earlier re-run memoized is served.
    assert cached.stats.diagnosis_prefix_reuses \
        <= cached.stats.diagnosis_reruns


def test_long_sender_diagnosis_matches_reexecution():
    """Long senders give Algorithm 2 many variants per report, each
    looked up in the sender cache — reports must stay identical to the
    cache-disabled campaign's."""
    programs = [program for _, program in sorted(seed_programs().items())]

    def wide(start):
        sender = programs[start % len(programs)]
        for step in range(1, 8):
            sender = sender.concatenate(
                programs[(start + step) % len(programs)])
        return sender

    corpus = [wide(start) for start in range(8)]
    config = dict(machine=CONFIGS["5.13"], corpus=corpus)
    cached = Kit(CampaignConfig(sender_cache=True, **config)).run()
    uncached = Kit(CampaignConfig(sender_cache=False, **config)).run()
    _assert_reports_identical(cached, uncached)
    assert cached.stats.diagnosis_reruns > 0
    assert cached.stats.diagnosis_prefix_reuses \
        <= cached.stats.diagnosis_reruns


def test_distributed_campaign_equivalence():
    """The cache is shared across cluster workers; results must still
    match the sequential cache-disabled reference exactly."""
    cached = _campaign("5.13", cache=True, workers=3)
    uncached = _campaign("5.13", cache=False)
    _assert_reports_identical(cached, uncached)
    total = cached.stats.sender_cache_hits + cached.stats.sender_cache_misses
    assert total > 0


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_campaign_equivalence_under_chaos(seed):
    """Under fault injection the cached campaign must still find exactly
    the clean bug set, with every injection accounted for."""
    reference = _campaign("5.13", cache=False)
    plan = FaultPlan(seed=seed, rate=0.15)
    chaotic = _campaign("5.13", cache=True, faults=plan, workers=2)
    assert sorted(chaotic.bugs_found()) == sorted(reference.bugs_found())
    assert chaotic.stats.faults_accounted(), plan.stats.snapshot()
    assert chaotic.stats.faults_injected_total() > 0
