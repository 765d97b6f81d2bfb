"""The lockset race analyzer: joins, ranks, rediscovery."""

from __future__ import annotations

import pytest

from repro.analysis import extract_access_map
from repro.analysis.accessmap import AccessMap, SyscallSummary
from repro.analysis.locations import (
    BROADCAST,
    GLOBAL,
    NAMESPACE,
    READ,
    TASK,
    WRITE,
    Access,
    StateLocation,
)
from repro.analysis.races import find_race_candidates, rediscover_races
from repro.analysis.sources import KernelSourceIndex
from repro.kernel.bugs import fixed_kernel, linux_5_13


@pytest.fixture(scope="module")
def index():
    return KernelSourceIndex()


@pytest.fixture(scope="module")
def clean_map(index):
    return extract_access_map(fixed_kernel(), index)


def _access(path, scope, kind, locks=(), line=1, guarded=False):
    return Access(location=StateLocation(path, scope), kind=kind,
                  file="src/x.py", line=line, function="f",
                  guarded=guarded, locks=tuple(locks))


def _map(**entries):
    return AccessMap(syscalls={
        name: SyscallSummary(name=name, accesses=tuple(accesses))
        for name, accesses in entries.items()
    })


# -- the join on synthetic handler pairs --------------------------------------

def test_exact_candidate_set_with_locksets():
    """Disjoint locksets pair; a shared lock proves mutual exclusion."""
    candidates = find_race_candidates(_map(
        alloc=[_access("kernel.ctr", GLOBAL, WRITE)],
        alloc_locked=[_access("kernel.ctr", GLOBAL, WRITE,
                              locks=("kernel.lock",))],
        reader=[_access("kernel.ctr", GLOBAL, READ)],
    ))
    pairs = {(c.entry_a, c.entry_b) for c in candidates}
    assert pairs == {
        ("alloc", "alloc"),                # two concurrent invocations
        ("alloc", "alloc_locked"),         # one side holds, one does not
        ("alloc", "reader"),
        ("alloc_locked", "reader"),
        # NOT (alloc_locked, alloc_locked): both hold kernel.lock.
        # NOT (reader, reader): no write on either side.
    }
    by_pair = {(c.entry_a, c.entry_b): c for c in candidates}
    # The unguarded global read carries an escape rule: boundary rank.
    assert by_pair[("alloc", "reader")].code == "R0"
    # Write/write pairs have no read-side escape fact: shared rank.
    assert by_pair[("alloc", "alloc")].code == "R1"


def test_same_lock_on_both_sides_is_dropped():
    candidates = find_race_candidates(_map(
        a=[_access("kernel.tbl", GLOBAL, WRITE, locks=("kernel.l",))],
        b=[_access("kernel.tbl", GLOBAL, READ, locks=("kernel.l",))],
    ))
    assert candidates == []


def test_namespace_scope_ranks_same_container():
    candidates = find_race_candidates(_map(
        a=[_access("ns:uts.hostname", NAMESPACE, WRITE)],
        b=[_access("ns:uts.hostname", NAMESPACE, READ)],
    ))
    assert {c.code for c in candidates} == {"R2"}


def test_task_scope_pairs_only_through_broadcast():
    """Two tasks' own structs are distinct; an enumeration aliases all."""
    candidates = find_race_candidates(_map(
        setter=[_access("task.nice", TASK, WRITE)],
        walker=[_access("task.nice", BROADCAST, READ)],
    ))
    pairs = {(c.entry_a, c.entry_b) for c in candidates}
    assert ("setter", "walker") in pairs
    assert ("setter", "setter") not in pairs


def test_fresh_allocations_never_pair():
    candidates = find_race_candidates(_map(
        a=[_access("new.Socket.ino", GLOBAL, WRITE)],
        b=[_access("new.Socket.ino", GLOBAL, READ)],
    ))
    assert candidates == []


def test_candidates_rank_then_sort_deterministically():
    candidates = find_race_candidates(_map(
        a=[_access("ns:x.v", NAMESPACE, WRITE),
           _access("kernel.g", GLOBAL, WRITE)],
        b=[_access("ns:x.v", NAMESPACE, READ),
           _access("kernel.g", GLOBAL, READ)],
    ))
    assert [c.rank for c in candidates] == sorted(c.rank for c in candidates)
    assert candidates == find_race_candidates(_map(
        a=[_access("ns:x.v", NAMESPACE, WRITE),
           _access("kernel.g", GLOBAL, WRITE)],
        b=[_access("ns:x.v", NAMESPACE, READ),
           _access("kernel.g", GLOBAL, READ)],
    ))


def test_render_shows_held_lockset_evidence():
    candidates = find_race_candidates(_map(
        a=[_access("kernel.ctr", GLOBAL, WRITE, locks=("kernel.lock",))],
        b=[_access("kernel.ctr", GLOBAL, READ)],
    ))
    assert len(candidates) == 1
    rendered = candidates[0].render()
    assert "kernel.lock" in rendered and "no lock" in rendered


# -- lockset annotations on the real kernel -----------------------------------

def test_kernel_map_carries_must_held_locksets(clean_map):
    """The KLock `with` blocks annotate the allocator accesses, and the
    annotation propagates through inlined helpers (unshare reaches the
    mount-id allocator via copy_mnt_ns with the lock held)."""
    held = {(entry, a.path, a.kind): a.locks
            for entry, s in clean_map.entries().items()
            for a in s.accesses if a.locks}
    assert held[("mount", "kernel.vfs.anon_dev_next", WRITE)] \
        == ("kernel.vfs.lock",)
    assert held[("unshare", "kernel.vfs.mnt_id_next", WRITE)] \
        == ("kernel.vfs.lock",)
    assert held[("socket", "kernel.net.unix.ino_next", WRITE)] \
        == ("kernel.net.unix.lock",)


def test_locked_allocator_pair_is_proven_exclusive(clean_map):
    """mount vs unshare both bump mnt_id_next under sb_lock: no
    candidate for that path; the unlocked diag read of the unix table
    still pairs with the locked socket insert."""
    candidates = find_race_candidates(clean_map)
    keyed = {(c.path, c.entry_a, c.entry_b) for c in candidates}
    assert ("kernel.vfs.mnt_id_next", "mount", "unshare") not in keyed
    assert any(path == "kernel.net.unix.by_ino"
               for path, *_ in keyed)


def test_summary_cache_is_deterministic(index):
    """Two independent extractions produce identical candidate sets —
    the interprocedural summary cache must not leak walk order into
    the annotations."""
    first = find_race_candidates(
        extract_access_map(linux_5_13(), index))
    second = find_race_candidates(
        extract_access_map(linux_5_13(), KernelSourceIndex()))
    assert [c.render() for c in first] == [c.render() for c in second]


# -- differential rediscovery -------------------------------------------------

def test_race_rediscovery_mirrors_escape_expectations(index):
    """Every statically detectable injected bug perturbs the candidate
    set (the 17/18 mirror of the escape lint's rediscovery)."""
    report = rediscover_races(index)
    assert report.matches_expectations()
    assert report.missed == ["msg_stat_global_pid"]  # value-level by design
    assert len(report.found) == len(report.per_bug) - 1


def test_race_rediscovery_hits_registered_paths(index):
    report = rediscover_races(index)
    for flag in ("ptype_leak", "uevent_broadcast_all_ns"):
        outcome = report.per_bug[flag]
        assert outcome.found and outcome.hit_expected_path, flag
    # The prio bug registers the enumeration structure (kernel.tasks);
    # the race join names the field the broadcast actually scribbles
    # on — finer-grained evidence, not a miss.
    prio = report.per_bug["prio_user_crosses_pidns"]
    assert prio.found
    assert {c.path for c in prio.candidates} == {"task.nice"}
