"""Cross-cutting invariants the fault-injection campaign must uphold.

The shared caches (``BaselineCache``, ``NondetStore``) tag entries with
the shard worker that computed them so a dead worker's possibly
corrupt results can be dropped.  Two things can break that protocol:

* a worker dies between its baseline insert and its nondet insert, and
  the death hook is not wired — the baseline entry then outlives its
  owner;
* a :data:`~repro.faults.plan.SITE_CACHE_STALE_OWNER` injection tags an
  entry with an owner id invalidation can never match.

:func:`verify_owner_invariant` audits any set of owner-tagged caches
after the shard pool has retired workers; the pipeline runs it at
campaign end.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from .plan import STALE_OWNER


class CacheOwnerLeakError(AssertionError):
    """An owner-tagged cache entry outlived its (dead) owner."""

    def __init__(self, leaks: Dict[str, List[int]]):
        self.leaks = leaks
        detail = "; ".join(
            f"{name}: owner(s) {sorted(set(owners))} "
            f"({len(owners)} entr{'y' if len(owners) == 1 else 'ies'})"
            for name, owners in sorted(leaks.items()))
        super().__init__(
            f"owner-tagged cache entries leaked past worker death: {detail}")


def verify_owner_invariant(retired_owners: Iterable[int], **caches) -> None:
    """Assert no cache entry is still owned by a retired worker.

    *caches* maps a display name to any object exposing
    ``owner_tags() -> List[Optional[int]]`` (one tag per live entry).
    Entries tagged :data:`STALE_OWNER` are also leaks — they were meant
    to be swept before this check runs.  Raises
    :class:`CacheOwnerLeakError` naming every offender.
    """
    retired = set(retired_owners)
    retired.add(STALE_OWNER)
    leaks: Dict[str, List[int]] = {}
    for name, cache in caches.items():
        offenders = [tag for tag in cache.owner_tags()
                     if tag is not None and tag in retired]
        if offenders:
            leaks[name] = offenders
    if leaks:
        raise CacheOwnerLeakError(leaks)
