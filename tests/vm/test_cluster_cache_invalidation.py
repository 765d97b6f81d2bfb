"""Worker death releases the dead worker's shared-cache entries.

A dead shard's local cache entries die with its process; its published
shared-memory deltas are unlinked by the shard pool's death hooks.
"""

from __future__ import annotations

import pytest

from repro.core.execution import BaselineCache
from repro.vm.machine import MachineConfig
from repro.vm.shardpool import fork_available, run_sharded
from repro.vm.shm import DeltaStore, SegmentStore


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
    def test_death_invalidates_owned_entries(self):
        """A shard dying mid-range triggers on_worker_death and hands
        every delta it published to on_owner_segments, which unlinks
        them; deltas the shard did not publish survive."""
        store = SegmentStore()
        deltas = DeltaStore(store)
        dead_workers = []

        def case_runner(machine, payload):
            deltas.publish(("snap", payload), b"x" * 8)
            if payload == "die":
                raise SystemExit("worker crashed")
            return payload

        def retire(names):
            for name in names:
                deltas.unlink(name)

        try:
            deltas.publish(("snap", "preexisting"), b"p")
            deltas.take_published()  # the supervisor's, not a shard's
            with pytest.raises(RuntimeError) as failure:
                run_sharded(MachineConfig(), ["a", "die", "unreached"],
                            case_runner, workers=1,
                            on_worker_death=dead_workers.append,
                            on_owner_segments=retire,
                            published_names=deltas.take_published)
            assert "SystemExit" in str(failure.value)
            assert "unfinished" in str(failure.value)
            assert dead_workers == [0]
            # Everything the dead shard published is gone...
            assert deltas.fetch(("snap", "a")) is None
            assert deltas.fetch(("snap", "die")) is None
            # ...while the replacement's and the supervisor's survive.
            assert deltas.fetch(("snap", "unreached")) is not None
            assert deltas.fetch(("snap", "preexisting")) is not None
        finally:
            store.cleanup()

    def test_clean_run_never_calls_the_hook(self):
        calls = []
        report = run_sharded(
            MachineConfig(), ["a", "b", "c"],
            lambda machine, payload: payload, workers=2,
            on_worker_death=calls.append, on_owner_segments=calls.append)
        assert [r.outcome for r in report.results] == ["a", "b", "c"]
        assert calls == []
