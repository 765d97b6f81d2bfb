"""SenderStateCache unit behaviour: LRU budget and first put."""

from __future__ import annotations

from repro.core.execution import SenderState, SenderStateCache
from repro.vm.executor import ExecutionResult
from repro.vm.segments import StateDelta

SNAP = "snap0"


def entry(size):
    return SenderState(StateDelta((), b"x" * size, 0), ExecutionResult([]))


class TestByteBudget:
    def test_lru_evicts_oldest_unused_entry(self):
        cache = SenderStateCache(max_bytes=30)
        cache.put(SNAP, "a", entry(10))
        cache.put(SNAP, "b", entry(10))
        cache.put(SNAP, "c", entry(10))
        assert cache.get(SNAP, "a") is not None  # refresh: b is now oldest
        cache.put(SNAP, "d", entry(10))
        assert cache.evictions == 1
        assert cache.get(SNAP, "b") is None
        assert cache.get(SNAP, "a") is not None
        assert cache.get(SNAP, "c") is not None
        assert cache.get(SNAP, "d") is not None
        assert cache.bytes_held == 30

    def test_eviction_loop_frees_enough_bytes(self):
        cache = SenderStateCache(max_bytes=30)
        for name in "abc":
            cache.put(SNAP, name, entry(10))
        cache.put(SNAP, "big", entry(25))
        # Only the 25-byte newcomer fits under the 30-byte cap, so all
        # three 10-byte residents are evicted oldest-first.
        assert cache.evictions == 3
        assert len(cache) == 1
        assert cache.bytes_held == 25
        assert cache.get(SNAP, "big") is not None

    def test_oversize_entry_is_never_admitted(self):
        cache = SenderStateCache(max_bytes=10)
        cache.put(SNAP, "huge", entry(11))
        assert len(cache) == 0
        assert cache.bytes_held == 0
        assert cache.evictions == 0

    def test_last_resident_entry_is_not_evicted_by_itself(self):
        """The budget never thrashes the only entry: an admitted entry
        at/below max_bytes stays resident even if a later admission
        leaves the pair momentarily over budget."""
        cache = SenderStateCache(max_bytes=10)
        cache.put(SNAP, "a", entry(9))
        cache.put(SNAP, "b", entry(9))
        assert len(cache) == 1
        assert cache.get(SNAP, "b") is not None

    def test_snapshot_id_is_part_of_the_key(self):
        cache = SenderStateCache()
        first = entry(4)
        cache.put("snapA", "s", first)
        cache.put("snapB", "s", entry(4))
        assert cache.get("snapA", "s") is first
        assert cache.get("snapB", "s") is not first
        assert len(cache) == 2


class TestOwnership:
    def test_first_put_wins_and_keeps_its_owner(self):
        cache = SenderStateCache()
        first = entry(4)
        cache.put(SNAP, "s", first)
        cache.put(SNAP, "s", entry(8))  # lost the race: ignored
        assert cache.get(SNAP, "s") is first
        assert len(cache) == 1
        assert cache.bytes_held == 4

