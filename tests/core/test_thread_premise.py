"""Premise of the lock-free pipeline: threads in a campaign share nothing.

``BaselineCache``, ``SenderStateCache``, ``NondetStore``,
``CampaignJournal`` and the segmented image's delta binding take no
lock, because a campaign touches them from one thread only: the
campaign's main thread, or the main thread of a forked shard.  The
profiling pool's threads take no lock either, because each profiles
its own corpus range on a machine and profiler of its own.  These tests
watch every entry point of those objects, and every machine reset,
through whole campaigns with a fault plan, and fail if a second thread
reaches any of them.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict

import pytest

from repro.core.execution import BaselineCache, SenderStateCache
from repro.core.nondet import NondetStore
from repro.core.pipeline import CampaignConfig, Kit
from repro.core.profile import Profiler, profile_corpus_distributed
from repro.corpus import build_corpus
from repro.faults.plan import SITE_EXEC_TIMEOUT, FaultPlan
from repro.kernel import linux_5_13
from repro.store.journal import CampaignJournal
from repro.vm import Machine, MachineConfig, fork_available
from repro.vm.segments import SegmentedImage

WATCHED = (
    (BaselineCache, ("get", "put")),
    (SenderStateCache, ("get", "put")),
    (NondetStore, ("get", "put")),
    (CampaignJournal, ("append", "sync", "close")),
    (SegmentedImage, ("apply_delta",)),
)


def _plan() -> FaultPlan:
    """Every site at 0.2, and ``exec.timeout`` at an unscaled 0.03, so
    the in-process leg (no shards) injects too."""
    return FaultPlan(seed=7, rate=0.2, rates={SITE_EXEC_TIMEOUT: 0.03})


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
        workers=workers, faults=_plan(),
        store_dir=str(tmp_path / "store"),
        cache_dir=str(tmp_path / "cache"))
    result = Kit(config).run()
    assert result.stats.faults_accounted()
    assert result.stats.faults_injected_total() > 0

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


@pytest.mark.parametrize("workers", [0, 2])
def test_each_machine_resets_on_one_thread(tmp_path, monkeypatch, workers):
    """Every (pid, machine) pair is reset by exactly one thread, and at
    ``workers > 0`` each profiling thread has a machine of its own."""
    log_path = str(tmp_path / "resets.log")
    seen = set()
    pinned = []  # keeps each logged machine alive, so no id is reused
    reset = Machine.reset

    def watched(self, *args, **kwargs):
        main = threading.current_thread() is threading.main_thread()
        entry = (os.getpid(), id(self), threading.get_ident(), int(main))
        if entry not in seen:
            seen.add(entry)
            pinned.append(self)
            with open(log_path, "a") as handle:
                handle.write(" ".join(map(str, entry)) + "\n")
        return reset(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "reset", watched)
    config = CampaignConfig(
        machine=MachineConfig(bugs=linux_5_13()), corpus_size=30,
        workers=workers, faults=_plan(),
        cache_dir=str(tmp_path / "cache"))
    result = Kit(config).run()
    assert result.stats.faults_accounted()
    assert result.stats.faults_injected_total() > 0

    threads = defaultdict(set)
    off_main = set()
    with open(log_path) as handle:
        for line in handle:
            pid, machine, thread, main = line.split()
            threads[pid, machine].add(thread)
            if main != "1":
                off_main.add((pid, machine))
    assert all(len(each) == 1 for each in threads.values())
    assert len(off_main) == workers


def test_pool_threads_profile_contiguous_ranges_in_corpus_order():
    """Three profilers over seven programs profile ranges of 2, 2 and 3
    programs, each on its own profiler, joined back in corpus order."""
    config = MachineConfig(bugs=linux_5_13())
    corpus = build_corpus(7, seed=1)
    serial = Profiler(Machine(config)).profile_corpus(corpus)
    profilers = [Profiler(Machine(config)) for _ in range(3)]
    pooled = profile_corpus_distributed(profilers, corpus)
    assert [p.index for p in pooled] == list(range(7))
    assert [(p.sender, p.receiver) for p in pooled] == \
        [(p.sender, p.receiver) for p in serial]
    assert [p.runs_executed for p in profilers] == [8, 8, 12]


def test_empty_corpus_boots_no_profiling_machine(monkeypatch):
    booted = []
    init = Machine.__init__

    def counted(self, *args, **kwargs):
        booted.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "__init__", counted)
    Kit(CampaignConfig(machine=MachineConfig(bugs=linux_5_13()), corpus=[],
                       workers=2)).run()
    assert len(booted) == 1  # the campaign machine only
