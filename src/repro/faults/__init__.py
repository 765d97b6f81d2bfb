"""Deterministic fault injection + chaos recovery for the campaign.

See :mod:`repro.faults.plan` for the injection model and
``docs/FAULTS.md`` for the site catalogue and recovery semantics.
"""

from .plan import (
    ALL_SITES,
    SITE_EXEC_TIMEOUT,
    SITE_JOURNAL_TORN,
    SITE_RESTORE_FAIL,
    SITE_RESULT_DROP,
    SITE_SEGMENT_CORRUPT,
    SITE_STORE_FSYNC_FAIL,
    ExecTimeoutInjected,
    FaultInjectedError,
    FaultPlan,
    FaultRetriesExhausted,
    FaultStats,
    RestoreFaultInjected,
    call_with_fault_retries,
    decision,
)
from .retry import CAUSE_BOOT, CAUSE_WORKER_DEATH, RetryPolicy

__all__ = [
    "ALL_SITES",
    "CAUSE_BOOT",
    "CAUSE_WORKER_DEATH",
    "ExecTimeoutInjected",
    "FaultInjectedError",
    "FaultPlan",
    "FaultRetriesExhausted",
    "FaultStats",
    "RestoreFaultInjected",
    "RetryPolicy",
    "SITE_EXEC_TIMEOUT",
    "SITE_JOURNAL_TORN",
    "SITE_RESTORE_FAIL",
    "SITE_RESULT_DROP",
    "SITE_SEGMENT_CORRUPT",
    "SITE_STORE_FSYNC_FAIL",
    "call_with_fault_retries",
    "decision",
]
