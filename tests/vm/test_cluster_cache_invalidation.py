"""Cache entries and worker death.

A cache keeps the first entry put for a key.  A dead shard's cache
entries die with its process, and the shard pool calls its death hook
only for shards that die.
"""

from __future__ import annotations

import pytest

from repro.core.execution import BaselineCache
from repro.vm.machine import MachineConfig
from repro.vm.shardpool import fork_available, run_sharded


class TestBaselineCacheOwnership:
    def test_first_put_keeps_its_owner(self):
        cache = BaselineCache()
        first = object()
        cache.put("a", first)
        cache.put("a", object())  # lost the race: ignored
        assert cache.get("a") is first
        assert len(cache) == 1


@pytest.mark.skipif(not fork_available(),
                    reason="process shards require fork")
class TestWorkerDeath:
    def test_clean_run_never_calls_the_hook(self):
        calls = []
        report = run_sharded(
            MachineConfig(), ["a", "b", "c"],
            lambda machine, payload: payload, workers=2,
            on_worker_death=calls.append)
        assert [r.outcome for r in report.results] == ["a", "b", "c"]
        assert calls == []
