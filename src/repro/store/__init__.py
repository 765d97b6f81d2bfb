"""Crash-safe campaign persistence: write-ahead journal + durable store.

See ``docs/CAMPAIGN_STORE.md`` for the journal format, resume
semantics, and the poison-pair quarantine policy.
"""

from .journal import (
    RECORD_ATTEMPT,
    RECORD_BEGIN,
    RECORD_CASE,
    RECORD_END,
    RECORD_POISONED,
    CampaignJournal,
    JournalReplay,
    decode_line,
    encode_line,
    iter_records,
    scan,
)
from .store import (
    CampaignEntry,
    CampaignHandle,
    CampaignStore,
    ResumeMismatchError,
    ResumeState,
    StoreError,
    campaign_fingerprint,
    case_key,
    publish_document,
    read_document,
    summarize_config,
)

__all__ = [
    "CampaignEntry",
    "CampaignHandle",
    "CampaignJournal",
    "CampaignStore",
    "JournalReplay",
    "RECORD_ATTEMPT",
    "RECORD_BEGIN",
    "RECORD_CASE",
    "RECORD_END",
    "RECORD_POISONED",
    "ResumeMismatchError",
    "ResumeState",
    "StoreError",
    "campaign_fingerprint",
    "case_key",
    "decode_line",
    "encode_line",
    "iter_records",
    "publish_document",
    "read_document",
    "scan",
    "summarize_config",
]
