"""Self-healing retry policy: a per-cause budget and poison quarantine.

The shard supervisor in :mod:`repro.vm.shardpool` settles every job
whose attempt failed (its shard died, or its result was lost) by one
:class:`RetryPolicy`, on every ``run_sharded`` call.  A dropped result
(cheap, transient) and a job that SIGKILLs its worker every single
time (expensive, almost certainly deterministic) are told apart by two
mechanisms:

* **a per-cause budget** — each failure is attributed to a cause (the
  injected fault site that produced it, or the synthetic
  :data:`CAUSE_WORKER_DEATH` / :data:`CAUSE_TRANSIT` /
  :data:`CAUSE_BOOT` causes for real deaths, lost results and rounds
  in which no shard booted), and a job whose failures of any one cause
  exceed ``budget`` is exhausted (the pipeline records it as
  ``infra_failed`` under a fault plan, and fails the campaign without
  one);
* **poison quarantine** — a job that *kills its worker*
  ``poison_after`` times is quarantined as a poison pair: it is
  reported with ``JobResult.poisoned`` set (the pipeline records the
  case as ``Outcome.POISONED``), and is never retried again in this
  run.  A stored campaign journals the quarantine, so no resumed run
  retries the pair either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

#: Synthetic failure cause for a worker that died holding the job when
#: no injected fault site can be blamed (a real crash, a watchdog kill).
CAUSE_WORKER_DEATH = "worker.death"
#: Synthetic failure cause for a result lost in transit with no site
#: attribution (should not occur outside chaos, but the books need a
#: column for it).
CAUSE_TRANSIT = "transit"
#: Synthetic failure cause charged to every open job in a round in
#: which no shard booted.
CAUSE_BOOT = "boot"


@dataclass(frozen=True)
class RetryPolicy:
    """A per-cause retry budget with poison quarantine."""

    #: Retries per cause: a job is exhausted once its failures
    #: attributed to any one cause exceed this.
    budget: int = 12
    #: Worker deaths (crashes, SIGKILLs, watchdog kills) attributed to
    #: one job before it is quarantined as a poison pair (0 = never).
    poison_after: int = 5

    def should_poison(self, worker_deaths: int) -> bool:
        return self.poison_after > 0 and worker_deaths >= self.poison_after

    def exhausted_cause(self, site_failures: Mapping[str, int]
                        ) -> Optional[str]:
        """The first cause over the budget, or None while it holds."""
        for cause, count in sorted(site_failures.items()):
            if count > self.budget:
                return cause
        return None


def describe_failures(site_failures: Mapping[str, int]) -> str:
    """Render a per-cause failure ledger for error messages."""
    if not site_failures:
        return "no attributed causes"
    return ", ".join(f"{cause}x{count}"
                     for cause, count in sorted(site_failures.items()))


def tally(site_failures: Dict[str, int], cause: str) -> None:
    site_failures[cause] = site_failures.get(cause, 0) + 1
