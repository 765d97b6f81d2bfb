"""Unit tests for the write-ahead campaign journal and the store layout."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.pipeline import CampaignConfig, CampaignResult, Kit
from repro.faults.plan import SITE_STORE_FSYNC_FAIL, FaultPlan
from repro.store import (
    RECORD_ATTEMPT,
    RECORD_BEGIN,
    RECORD_CASE,
    RECORD_END,
    RECORD_POISONED,
    CampaignJournal,
    CampaignStore,
    ResumeMismatchError,
    ResumeState,
    campaign_fingerprint,
    case_key,
    decode_line,
    encode_line,
    read_document,
    scan,
    summarize_config,
)


#: Damage that ends a journal's valid prefix at the line it hits: a set
#: high bit (the line is no longer UTF-8), or a line nested deeper than
#: ``json.loads`` can follow.
DAMAGES = ("high-bit", "too-deep")


def _write_with_a_damaged_line(path, damage):
    """Write [good, damaged, after] case lines, the middle one damaged
    as *damage* names; returns the three lines as bytes."""
    good, damaged, after = (encode_line({"t": RECORD_CASE, "k": key})
                            .encode() for key in ("good", "damaged", "after"))
    if damage == "too-deep":
        damaged = b"[" * 100_000 + b"\n"
    else:
        damaged = bytearray(damaged)
        damaged[len(damaged) // 2] |= 0x80
    with open(path, "wb") as handle:
        handle.write(good + damaged + after)
    return good, bytes(damaged), after


class TestLineCodec:
    def test_roundtrip(self):
        record = {"t": RECORD_CASE, "k": "a:b", "outcome": "pass"}
        assert decode_line(encode_line(record)) == record

    def test_missing_newline_is_torn(self):
        line = encode_line({"t": RECORD_CASE, "k": "a:b"})
        assert decode_line(line.rstrip("\n")) is None

    def test_bit_flip_rejected(self):
        line = encode_line({"t": RECORD_CASE, "k": "a:b", "outcome": "pass"})
        flipped = line.replace('"pass"', '"fail"')
        assert flipped != line
        assert decode_line(flipped) is None

    def test_garbage_rejected(self):
        assert decode_line("not json at all\n") is None
        assert decode_line('{"c": 1}\n') is None
        assert decode_line('{"c": 1, "r": [1, 2]}\n') is None

    def test_encoding_is_canonical(self):
        # Key order in the caller's dict must not change the line.
        a = encode_line({"t": RECORD_CASE, "k": "x"})
        b = encode_line({"k": "x", "t": RECORD_CASE})
        assert a == b


class TestScan:
    def _write(self, path, lines):
        with open(path, "w") as handle:
            handle.write("".join(lines))

    def test_longest_valid_prefix(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        lines = [encode_line({"t": RECORD_CASE, "k": str(i)})
                 for i in range(4)]
        torn = encode_line({"t": RECORD_CASE, "k": "torn"})[:10]
        self._write(path, lines + [torn])
        replay = scan(path)
        assert [r["k"] for r in replay.records] == ["0", "1", "2", "3"]
        assert replay.torn_bytes == len(torn)
        assert replay.valid_bytes == sum(len(l) for l in lines)

    def test_mid_file_corruption_discards_suffix(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        good = encode_line({"t": RECORD_CASE, "k": "good"})
        after = encode_line({"t": RECORD_CASE, "k": "after"})
        self._write(path, [good, "corrupted line\n", after])
        replay = scan(path)
        assert [r["k"] for r in replay.records] == ["good"]
        assert replay.torn_bytes == len("corrupted line\n") + len(after)

    def test_non_utf8_line_ends_the_valid_prefix(self, tmp_path):
        for damage in DAMAGES:
            path = str(tmp_path / f"{damage}.jsonl")
            good, damaged, after = _write_with_a_damaged_line(path, damage)
            replay = scan(path)
            assert [r["k"] for r in replay.records] == ["good"]
            assert replay.valid_bytes == len(good)
            assert replay.torn_bytes == len(damaged) + len(after)

    def test_first_write_wins_dedup(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        first = encode_line({"t": RECORD_CASE, "k": "a:b", "outcome": "pass"})
        second = encode_line({"t": RECORD_CASE, "k": "a:b",
                              "outcome": "report"})
        self._write(path, [first, second])
        replay = scan(path)
        assert len(replay.records) == 1
        assert replay.records[0]["outcome"] == "pass"
        assert replay.duplicates == 1

    def test_missing_file_is_empty(self, tmp_path):
        replay = scan(str(tmp_path / "absent.jsonl"))
        assert replay.records == []
        assert replay.torn_bytes == 0


class TestCampaignJournal:
    def test_append_and_replay(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CampaignJournal(path) as journal:
            assert journal.append_case("a:b", "pass", 0, None)
            assert journal.append_attempt("c:d", ["worker.death"])
            assert journal.append_poisoned("c:d", 5, "killed 5 workers")
        records = scan(path).records
        assert [r["t"] for r in records] == [RECORD_CASE, RECORD_ATTEMPT,
                                             RECORD_POISONED]

    def test_open_repairs_torn_tail(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CampaignJournal(path) as journal:
            journal.append_case("a:b", "pass", 0, None)
        size = os.path.getsize(path)
        torn = '{"c": 123, "r": {"t": "ca'
        with open(path, "a") as handle:
            handle.write(torn)  # a crash mid-write leaves this behind
        journal = CampaignJournal(path)
        assert journal.replayed.torn_bytes == len(torn)
        assert os.path.getsize(path) == size
        journal.close()

    def test_open_truncates_at_a_non_utf8_line(self, tmp_path):
        for damage in DAMAGES:
            path = str(tmp_path / f"{damage}.jsonl")
            good, damaged, after = _write_with_a_damaged_line(path, damage)
            with CampaignJournal(path) as journal:
                assert journal.replayed.torn_bytes \
                    == len(damaged) + len(after)
                assert os.path.getsize(path) == len(good)
                assert journal.append_case("next:r", "pass", 0, None)
            assert [r["k"] for r in scan(path).records] == ["good", "next:r"]

    def test_append_dedup_within_writer(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CampaignJournal(path) as journal:
            assert journal.append_case("a:b", "pass", 0, None)
            assert not journal.append_case("a:b", "report", 1, None)
        assert scan(path).records[0]["outcome"] == "pass"

    def test_append_dedup_across_writers(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CampaignJournal(path) as journal:
            journal.append_case("a:b", "pass", 0, None)
        with CampaignJournal(path) as journal:
            assert not journal.append_case("a:b", "report", 1, None)
            assert journal.append_case("c:d", "pass", 0, None)
        assert len(scan(path).records) == 2

    def test_fsync_fault_recovers_within_budget(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        plan = FaultPlan(seed=3, rates={SITE_STORE_FSYNC_FAIL: 0.5},
                         max_retries=5)
        with CampaignJournal(path, faults=plan) as journal:
            for i in range(20):
                journal.append_case(f"k{i}:r", "pass", 0, None)
            assert journal.fsync_degraded == 0
        injected, recovered, infra, poisoned = plan.stats.snapshot()
        assert injected.get(SITE_STORE_FSYNC_FAIL, 0) > 0
        assert infra.get(SITE_STORE_FSYNC_FAIL, 0) == 0
        assert plan.stats.accounted()

    def test_fsync_fault_degrades_when_budget_exhausted(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        plan = FaultPlan(seed=0, rates={SITE_STORE_FSYNC_FAIL: 1.0},
                         max_retries=2)
        with CampaignJournal(path, faults=plan) as journal:
            journal.append_case("a:b", "pass", 0, None)
            assert journal.fsync_degraded == 1
        # The record itself still committed (flushed-only durability).
        assert scan(path).records[-1]["k"] == "a:b"
        injected, recovered, infra, poisoned = plan.stats.snapshot()
        assert infra[SITE_STORE_FSYNC_FAIL] == 3  # budget + 1 charged
        assert plan.stats.accounted()

    def test_result_document_holds_the_end_records_syncs(self, tmp_path):
        """Every sync of a stored campaign fails, the end record's
        included; ``result.json`` is published after that sync, so it
        holds the same books as the returned stats and the plan."""
        plan = FaultPlan(seed=0, rates={SITE_STORE_FSYNC_FAIL: 1.0})
        config = CampaignConfig(corpus_size=6, strategy="rand",
                                rand_budget=6, faults=plan,
                                store_dir=str(tmp_path))
        stats = Kit(config).run().stats
        stored = CampaignResult.from_document(read_document(os.path.join(
            str(tmp_path), stats.campaign_id, "result.json"))).stats
        injected, recovered, infra, poisoned = plan.stats.snapshot()
        assert plan.stats.accounted() and recovered == {}
        assert stats.journal_fsync_degraded \
            == stored.journal_fsync_degraded > 0
        # Each degraded sync charged its whole budget to the infra column.
        charged = stats.journal_fsync_degraded * (plan.max_retries + 1)
        assert stats.faults_infra == stored.faults_infra == infra \
            == injected == {SITE_STORE_FSYNC_FAIL: charged}


class TestGroupCommit:
    """``append(sync=False)`` flushes; ``sync()`` fsyncs the batch."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def counting(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    def test_unsynced_append_is_readable_without_fsync(self, tmp_path,
                                                       fsyncs):
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        for i in range(3):
            assert journal.append_case(f"k{i}:r", "pass", 0, None,
                                       sync=False)
        # Flushed, so a fresh reader (a successor after SIGKILL) sees
        # every record although none was fsynced.
        assert [r["k"] for r in scan(path).records] \
            == ["k0:r", "k1:r", "k2:r"]
        assert fsyncs == []
        journal.close()

    def test_one_sync_covers_the_batch(self, tmp_path, fsyncs):
        path = str(tmp_path / "j.jsonl")
        with CampaignJournal(path) as journal:
            for i in range(5):
                journal.append_case(f"k{i}:r", "pass", 0, None, sync=False)
            journal.sync()
            assert len(fsyncs) == 1

    def test_idle_sync_fsyncs_nothing(self, tmp_path, fsyncs):
        path = str(tmp_path / "j.jsonl")
        with CampaignJournal(path) as journal:
            journal.sync()
            assert fsyncs == []
            journal.append_case("a:b", "pass", 0, None)  # syncs at once
            journal.sync()
            assert len(fsyncs) == 1
        assert len(fsyncs) == 1  # close had nothing pending either

    def test_close_syncs_pending_records(self, tmp_path, fsyncs):
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.append_case("a:b", "pass", 0, None, sync=False)
        journal.append({"t": RECORD_END, "accounting": {}}, sync=False)
        assert fsyncs == []
        journal.close()
        assert len(fsyncs) == 1
        assert [r["t"] for r in scan(path).records] == [RECORD_CASE,
                                                        RECORD_END]

    def test_fsync_fault_fires_per_sync_not_per_record(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        plan = FaultPlan(seed=0, rates={SITE_STORE_FSYNC_FAIL: 1.0},
                         max_retries=2)
        with CampaignJournal(path, faults=plan) as journal:
            for i in range(4):
                journal.append_case(f"k{i}:r", "pass", 0, None, sync=False)
            journal.sync()
            assert journal.fsync_degraded == 1
        assert len(scan(path).records) == 4
        injected, recovered, infra, poisoned = plan.stats.snapshot()
        assert injected[SITE_STORE_FSYNC_FAIL] == 3  # one batch: budget + 1
        assert plan.stats.accounted()


class TestResumeState:
    def test_from_records(self):
        records = [
            {"t": RECORD_BEGIN},
            {"t": RECORD_CASE, "k": "a:b", "outcome": "pass"},
            {"t": RECORD_ATTEMPT, "k": "c:d", "sites": []},
            {"t": RECORD_ATTEMPT, "k": "c:d", "sites": []},
            {"t": RECORD_POISONED, "k": "c:d", "deaths": 2},
        ]
        state = ResumeState.from_records(records)
        assert set(state.cases) == {"a:b"}
        assert state.deaths == {"c:d": 2}
        assert set(state.poisoned) == {"c:d"}
        assert not state.completed

    def test_end_record_marks_completed(self):
        state = ResumeState.from_records([{"t": RECORD_END}])
        assert state.completed


class TestFingerprint:
    def _config(self, **overrides):
        return CampaignConfig(**overrides)

    def test_perf_knobs_excluded(self):
        base = summarize_config(self._config())
        threaded = summarize_config(self._config(workers=4))
        process = summarize_config(self._config(workers=4,
                                                shard_mode="process",
                                                sender_cache=False))
        assert campaign_fingerprint(base) == campaign_fingerprint(threaded)
        assert campaign_fingerprint(base) == campaign_fingerprint(process)

    def test_result_affecting_knobs_included(self):
        base = campaign_fingerprint(summarize_config(self._config()))
        for overrides in ({"corpus_seed": 2}, {"corpus_size": 99},
                          {"strategy": "rand"}, {"diagnose": False},
                          {"faults": FaultPlan(seed=1, rate=0.1)}):
            other = campaign_fingerprint(
                summarize_config(self._config(**overrides)))
            assert other != base, overrides

    def test_default_fingerprint_is_stable(self):
        # Journals written before the static pre-filter was retired must
        # keep resuming: the default campaign's identity is pinned.
        assert campaign_fingerprint(summarize_config(CampaignConfig())) == (
            "c27dfb014e4256d4a42e245c09e71af47841114707131d9929f4814518b8bb29")
        # A plan that names its sites keeps its identity when sites it
        # does not name are added to or removed from the catalogue.
        explicit = CampaignConfig(
            faults=FaultPlan.parse("7:0.2:worker.kill,exec.timeout"))
        assert campaign_fingerprint(summarize_config(explicit)) == (
            "e760390758c65824b50d5873bb75ef0cfb35665601016087e9543f5822c4c75b")


class TestCampaignStore:
    def _open(self, root, **overrides):
        config = CampaignConfig(**overrides)
        return CampaignStore(root).open_campaign(
            summarize_config(config), resume=overrides.get("resume", False))

    def test_fresh_campaign_writes_begin_record(self, tmp_path):
        handle = self._open(str(tmp_path))
        handle.close()
        records = scan(os.path.join(handle.path, "journal.jsonl")).records
        assert records[0]["t"] == RECORD_BEGIN
        assert records[0]["fingerprint"] == handle.fingerprint

    def test_reopen_without_resume_archives_journal(self, tmp_path):
        first = self._open(str(tmp_path))
        first.journal.append_case("a:b", "pass", 0, None)
        first.close()
        second = self._open(str(tmp_path))
        second.close()
        assert second.resume_state.cases == {}
        assert os.path.exists(os.path.join(first.path, "journal.jsonl.1"))

    def test_resume_replays_prior_cases(self, tmp_path):
        config = CampaignConfig()
        store = CampaignStore(str(tmp_path))
        summary = summarize_config(config)
        first = store.open_campaign(summary)
        first.journal.append_case("a:b", "pass", 0, None)
        first.close()
        resumed = store.open_campaign(summary, resume=True)
        resumed.close()
        assert set(resumed.resume_state.cases) == {"a:b"}

    def test_resume_rejects_different_config(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        handle = store.open_campaign(summarize_config(CampaignConfig()))
        handle.close()
        other = summarize_config(CampaignConfig(corpus_seed=2))
        with pytest.raises(ResumeMismatchError):
            store.open_campaign(other, resume=True)

    def test_resume_nothing_to_resume(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        with pytest.raises(ResumeMismatchError):
            store.open_campaign(summarize_config(CampaignConfig()),
                                resume=True)

    def test_tampered_meta_rejected(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        summary = summarize_config(CampaignConfig())
        handle = store.open_campaign(summary)
        handle.close()
        meta = os.path.join(handle.path, "campaign.json")
        with open(meta) as fh:
            stored = json.load(fh)
        stored["fingerprint"] = "0" * 64
        with open(meta, "w") as fh:
            json.dump(stored, fh)
        with pytest.raises(ResumeMismatchError):
            store.open_campaign(summary, resume=True)

    def test_list_and_entry(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        handle = store.open_campaign(summarize_config(CampaignConfig()))
        handle.journal.append_case("a:b", "report", 2, {"x": 1})
        handle.journal.append_poisoned("c:d", 5, "boom")
        handle.journal.append({"t": RECORD_END, "accounting": {"bugs": []}})
        handle.close()
        entries = store.list_campaigns()
        assert [e.campaign_id for e in entries] == [handle.campaign_id]
        entry = store.entry(handle.campaign_id)
        assert entry.cases_done == 1
        assert entry.poisoned == 1
        assert entry.completed
        assert entry.status() == "completed"

    def test_case_key_shape(self):
        assert case_key("aa", "bb") == "aa:bb"
