"""Premise of the lock-free caches: one thread per campaign process.

``BaselineCache``, ``SenderStateCache``, ``NondetStore``,
``CampaignJournal`` and the segmented image's delta binding take no
lock, because outside the profiling pool a campaign touches them from
one thread only: the campaign's main thread, or the main thread of a
forked shard.  These tests watch every entry point of those objects
through a whole campaign, with a store and a fault plan, and fail if
any other thread reaches one.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.core.execution import BaselineCache, SenderStateCache
from repro.core.nondet import NondetStore
from repro.core.pipeline import CampaignConfig, Kit
from repro.faults.plan import FaultPlan
from repro.kernel import linux_5_13
from repro.store.journal import CampaignJournal
from repro.vm import MachineConfig, fork_available
from repro.vm.segments import SegmentedImage

WATCHED = (
    (BaselineCache, ("get", "put")),
    (SenderStateCache, ("get", "put")),
    (NondetStore, ("get", "put")),
    (CampaignJournal, ("append", "sync", "close")),
    (SegmentedImage, ("apply_delta",)),
)


def _watch(monkeypatch, log_path: str) -> None:
    """Log each (pid, class, on main thread) the first time it occurs.

    The log is a file because forked shards inherit the wrapped
    classes but not the test's memory.
    """
    seen = set()

    def wrap(cls, name):
        original = getattr(cls, name)

        def watched(self, *args, **kwargs):
            main = threading.current_thread() is threading.main_thread()
            entry = (os.getpid(), cls.__name__, main)
            if entry not in seen:
                seen.add(entry)
                with open(log_path, "a") as handle:
                    handle.write(f"{entry[0]} {entry[1]} {int(main)}\n")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, watched)

    for cls, names in WATCHED:
        for name in names:
            wrap(cls, name)


@pytest.mark.parametrize("workers", [0, 2])
def test_only_main_threads_touch_unlocked_state(tmp_path, monkeypatch,
                                                workers):
    log_path = str(tmp_path / "touches.log")
    _watch(monkeypatch, log_path)
    config = CampaignConfig(
        machine=MachineConfig(bugs=linux_5_13()), corpus_size=30,
        workers=workers, faults=FaultPlan(seed=7, rate=0.2),
        store_dir=str(tmp_path / "store"),
        nondet_dir=str(tmp_path / "nondet"))
    result = Kit(config).run()
    assert result.stats.faults_accounted()

    with open(log_path) as handle:
        touches = [line.split() for line in handle]
    off_main = [line for line in touches if line[2] != "1"]
    assert off_main == []
    touched = {name for _pid, name, _main in touches}
    assert touched == {cls.__name__ for cls, _names in WATCHED}
    parent = str(os.getpid())
    shard_touches = {name for pid, name, _main in touches if pid != parent}
    if workers and fork_available():
        # The shards did the executing: the check reached inside them.
        assert {"BaselineCache", "NondetStore",
                "SenderStateCache"} <= shard_touches
        assert "CampaignJournal" not in shard_touches
    else:
        assert shard_touches == set()
