"""Static race-pair candidates from lockset-annotated access maps.

The abstract interpreter (:mod:`repro.analysis.interp`) stamps every
:class:`~repro.analysis.locations.Access` with the *must-held* lockset
at that program point — the ``KLock`` objects whose ``with`` blocks
enclose it, propagated through inlined helpers.  This module joins
those annotated summaries across entry-point pairs:

    (entry_a, entry_b, location) is a **race-pair candidate** when both
    entries touch the location, at least one access is a write, and the
    two accesses' held-lockset intersection is empty.

Must-held is exact for the model (``with`` is lexical), so a non-empty
intersection is a proof of mutual exclusion and the pair is dropped;
an empty intersection is only a *candidate* — the runtime may still
serialize the pair some other way, which is exactly why the output
feeds the dynamic layers (interleaved campaigns) rather than a
verdict.

Candidates are ranked by how interesting the location is for
*namespace isolation*:

``R0``
    Shared-scope location on which an escape rule
    (:meth:`~repro.analysis.escape.EscapeLinter.rule_for`) fires — the
    race crosses a namespace boundary, KIT's target class.
``R1``
    Shared-scope location with no escape fact (guarded or allocator
    pattern) — a kernel-wide race that namespace mediation does not
    excuse.
``R2``
    Namespace-scope location — both entries must run in the *same*
    container to collide; only an interleaving campaign can exercise
    it.

Self-pairs (``entry_a == entry_b``) are included: two concurrent
invocations of one syscall race the same way two different syscalls do.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .accessmap import AccessMap, extract_access_map
from .escape import EscapeLinter
from .locations import (
    BROADCAST,
    GLOBAL,
    INIT,
    NAMESPACE,
    TASK,
    WRITE,
    Access,
)
from .sources import KernelSourceIndex

#: Ranks, smallest first in reports.
RANK_BOUNDARY = 0   #: shared scope, escape rule fires (R0)
RANK_SHARED = 1     #: shared scope, no escape fact (R1)
RANK_SAME_NS = 2    #: namespace scope, same-container only (R2)

#: Scope width order for naming a mixed-scope pair's collision scope.
_SCOPE_WIDTH = {BROADCAST: 4, INIT: 3, GLOBAL: 2, NAMESPACE: 1, TASK: 0}


def _scopes_alias(sa: str, sb: str) -> bool:
    """Can two accesses to the same path hit the same allocation?

    Mirrors the arena's aliasing semantics: a BROADCAST access
    *enumerates* instances, so it aliases every scope of the path
    (``task.uid`` read via ``all_tasks()`` collides with each task's
    own TASK-scope write); the INIT instance is one of the per-ns
    instances, so INIT aliases NAMESPACE; same-scope pairs alias except
    TASK — two tasks' own structs are distinct allocations.
    """
    if BROADCAST in (sa, sb):
        return True
    if sa == sb:
        return sa != TASK
    return {sa, sb} == {INIT, NAMESPACE}


@dataclass(frozen=True)
class RaceCandidate:
    """One (entry_a, entry_b, location) static race-pair candidate."""

    path: str
    scope: str
    entry_a: str                #: sorted: entry_a <= entry_b
    entry_b: str
    access_a: Access            #: representative access from entry_a
    access_b: Access            #: representative access from entry_b
    rank: int
    rule: Optional[str] = None  #: escape rule evidencing the boundary

    def key(self) -> Tuple[str, str, str, str, int]:
        """Identity for diffing candidate sets across kernel versions.

        Scope and rank are part of the identity: an injected bug often
        does not create a *new* (pair, path) triple but flips an
        existing one across a namespace boundary — a per-ns write that
        becomes a broadcast (scope change), or a guarded read that
        loses its namespace check (rank change R1 -> R0).  Those flips
        are exactly the bug's static race signature.
        """
        return (self.path, self.scope, self.entry_a, self.entry_b,
                self.rank)

    @property
    def code(self) -> str:
        return f"R{self.rank}"

    def render(self) -> str:
        def side(access: Access) -> str:
            held = ("{" + ", ".join(access.locks) + "}" if access.locks
                    else "no lock")
            return f"{access.kind} at {access.site()} holds {held}"

        boundary = f" [{self.rule}]" if self.rule else ""
        return (f"{self.code} {self.entry_a} <-> {self.entry_b}: "
                f"{self.path} [{self.scope}]{boundary} — "
                f"{side(self.access_a)}; {side(self.access_b)}")


def _relevant(access: Access) -> bool:
    """Can this access participate in an inter-invocation race?

    ``new.*`` paths name objects allocated by the current call — fresh
    per invocation, so two invocations never share them.  TASK-scope
    accesses stay in: they alias a BROADCAST enumeration of the same
    path (and nothing else — :func:`_scopes_alias` gates the pairing).
    """
    return not access.path.startswith("new.")


def _disjoint(a: Access, b: Access) -> bool:
    return not (set(a.locks) & set(b.locks))


def _pick_pair(accs_a: List[Access],
               accs_b: List[Access]) -> Optional[Tuple[Access, Access]]:
    """First aliasing (write, any) pair with disjoint locksets.

    Both lists arrive sorted writes-first; scanning in order makes the
    representative stable across runs and prefers write/write evidence.
    """
    for x in accs_a:
        for y in accs_b:
            if x.kind != WRITE and y.kind != WRITE:
                continue
            if _scopes_alias(x.scope, y.scope) and _disjoint(x, y):
                return x, y
    return None


def _sort_key(access: Access) -> Tuple[int, int, int, str, int]:
    return (0 if access.kind == WRITE else 1, len(access.locks),
            -_SCOPE_WIDTH.get(access.scope, 0), access.file, access.line)


def find_race_candidates(access_map: AccessMap) -> List[RaceCandidate]:
    """Join the annotated map into ranked race-pair candidates.

    Dispatch-layer bookkeeping (``AccessMap.dispatch``) is excluded:
    every syscall funnels through it, so pairing it would only restate
    "any two syscalls share the dispatcher".
    """
    by_path: Dict[str, Dict[str, List[Access]]] = {}
    for entry, summary in access_map.entries().items():
        for access in summary.accesses:
            if not _relevant(access):
                continue
            slot = by_path.setdefault(access.path, {})
            slot.setdefault(entry, []).append(access)

    candidates: List[RaceCandidate] = []
    for path, per_entry in sorted(by_path.items()):
        for entry in per_entry:
            # Dedup identical (kind, scope, lockset) facts; order
            # writes-first (widest scope, fewest locks) so _pick_pair's
            # first hit is the strongest evidence.
            unique: Dict[Tuple[str, str, Tuple[str, ...]], Access] = {}
            for access in sorted(per_entry[entry], key=_sort_key):
                unique.setdefault(
                    (access.kind, access.scope, access.locks), access)
            per_entry[entry] = list(unique.values())
        entries = sorted(per_entry)
        for i, entry_a in enumerate(entries):
            for entry_b in entries[i:]:
                pair = _pick_pair(per_entry[entry_a], per_entry[entry_b])
                if pair is None:
                    continue
                access_a, access_b = pair
                scope = max((access_a.scope, access_b.scope),
                            key=lambda s: _SCOPE_WIDTH.get(s, 0))
                rule = next(
                    (r for r in map(EscapeLinter.rule_for,
                                    per_entry[entry_a] + per_entry[entry_b])
                     if r is not None), None)
                if scope == NAMESPACE:
                    rank = RANK_SAME_NS
                elif rule is not None:
                    rank = RANK_BOUNDARY
                else:
                    rank = RANK_SHARED
                candidates.append(RaceCandidate(
                    path=path, scope=scope,
                    entry_a=entry_a, entry_b=entry_b,
                    access_a=access_a, access_b=access_b,
                    rank=rank, rule=rule,
                ))
    candidates.sort(key=lambda c: (c.rank, c.path, c.entry_a, c.entry_b))
    return candidates


# -- bug rediscovery ----------------------------------------------------------

@dataclass
class RaceRediscovery:
    """Per-injected-bug outcome of the differential race join."""

    flag: str
    expected: bool              #: statically detectable per the registry
    found: bool                 #: any fresh candidate vs the clean kernel
    hit_expected_path: bool     #: a fresh candidate names the bug's path
    candidates: Tuple[RaceCandidate, ...] = ()


@dataclass
class RaceRediscoveryReport:
    """Differential race-candidate rediscovery across single-bug kernels."""

    per_bug: Dict[str, RaceRediscovery] = field(default_factory=dict)

    @property
    def found(self) -> List[str]:
        return sorted(f for f, r in self.per_bug.items() if r.found)

    @property
    def missed(self) -> List[str]:
        return sorted(f for f, r in self.per_bug.items() if not r.found)

    def rate(self) -> float:
        if not self.per_bug:
            return 0.0
        return len(self.found) / len(self.per_bug)

    def matches_expectations(self) -> bool:
        return all(r.found == r.expected for r in self.per_bug.values())


def rediscover_races(index: Optional[KernelSourceIndex] = None,
                     src_dir: Optional[str] = None) -> RaceRediscoveryReport:
    """Differentially join every single-bug kernel against the clean one.

    Mirror of :func:`repro.analysis.escape.rediscover_bugs`: candidates
    present with only one bug flag set and absent from the clean
    kernel's candidate set are that bug's static race signature.
    """
    from ..kernel import bugs as bugs_mod

    index = index or KernelSourceIndex(src_dir)
    clean = find_race_candidates(
        extract_access_map(bugs_mod.fixed_kernel(), index))
    clean_keys = {c.key() for c in clean}

    specs = {s.flag: s for s in bugs_mod.BUG_SPECS}
    report = RaceRediscoveryReport()
    for flag_field in dataclasses.fields(bugs_mod.BugFlags):
        flag = flag_field.name
        buggy = find_race_candidates(extract_access_map(
            bugs_mod.BugFlags(**{flag: True}), index))
        fresh = tuple(c for c in buggy if c.key() not in clean_keys)
        bug_spec = specs.get(flag)
        expected = bug_spec.statically_detectable if bug_spec else True
        hit = bool(bug_spec) and any(
            c.path == bug_spec.state_path for c in fresh)
        report.per_bug[flag] = RaceRediscovery(
            flag=flag, expected=expected, found=bool(fresh),
            hit_expected_path=hit, candidates=fresh,
        )
    return report
