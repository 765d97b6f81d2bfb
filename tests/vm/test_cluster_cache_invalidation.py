"""Cache entries keep the first put for a key.

A dead shard's cache entries die with its process
(``tests/faults/test_cluster_recovery.py``).
"""

from __future__ import annotations

from repro.core.execution import BaselineCache


class TestBaselineCacheOwnership:
    def test_first_put_keeps_its_owner(self):
        cache = BaselineCache()
        first = object()
        cache.put("a", first)
        cache.put("a", object())  # lost the race: ignored
        assert cache.get("a") is first
        assert len(cache) == 1
