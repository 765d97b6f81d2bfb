"""Self-healing retry policy: per-site budgets and poison quarantine.

The flat ``max_job_retries`` budget of the original supervisor treats
every failure the same: a dropped result (cheap, transient) and a job
that SIGKILLs its worker every single time (expensive, almost certainly
deterministic) both get the same number of blind re-runs.  A
:class:`RetryPolicy` replaces that with two mechanisms:

* **per-site budgets** — each failure is attributed to a cause (the
  injected fault site that produced it, or the synthetic
  :data:`CAUSE_WORKER_DEATH` / :data:`CAUSE_TRANSIT` causes for real
  deaths and lost results), and each cause has its own retry budget;
* **poison quarantine** — a job that *kills its worker*
  ``poison_after`` times is quarantined as a poison pair: it is
  reported with ``JobResult.poisoned`` set (the pipeline records the
  case as ``Outcome.POISONED`` and journals it), and is never retried
  again — not in this run, and, via the campaign journal, not in any
  resumed run either.

The policy is pure configuration: the shard supervisor in
:mod:`repro.vm.shardpool` consults it when one is passed and keeps the
historical flat-budget behaviour when not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

#: Synthetic failure cause for a worker that died holding the job when
#: no injected fault site can be blamed (a real crash, a watchdog kill).
CAUSE_WORKER_DEATH = "worker.death"
#: Synthetic failure cause for a result lost in transit with no site
#: attribution (should not occur outside chaos, but the books need a
#: column for it).
CAUSE_TRANSIT = "transit"


@dataclass(frozen=True)
class RetryPolicy:
    """Per-site retry budgets with poison quarantine."""

    #: Retry budget per failure cause; causes not listed fall back to
    #: ``default_budget``.  A job whose failures attributed to one cause
    #: exceed that cause's budget is exhausted (``infra_failed``).
    site_budgets: Mapping[str, int] = field(default_factory=dict)
    default_budget: int = 12
    #: Worker deaths (crashes, SIGKILLs, watchdog kills) attributed to
    #: one job before it is quarantined as a poison pair.
    poison_after: int = 5

    def budget_for(self, cause: str) -> int:
        return self.site_budgets.get(cause, self.default_budget)

    def should_poison(self, worker_deaths: int) -> bool:
        return self.poison_after > 0 and worker_deaths >= self.poison_after

    def exhausted_cause(self, site_failures: Mapping[str, int]
                        ) -> Optional[str]:
        """The first cause over its budget, or None while budgets hold."""
        for cause, count in sorted(site_failures.items()):
            if count > self.budget_for(cause):
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
