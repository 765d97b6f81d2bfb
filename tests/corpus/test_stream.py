"""Streaming corpus generation: determinism, diversifier, resume, store."""

from __future__ import annotations

import os

import pytest

from repro.corpus import (
    CorpusWriter,
    StreamStats,
    build_corpus,
    iter_corpus,
    stream_corpus,
)
from repro.corpus.seeds import seed_list


def _hashes(programs):
    return [p.hash_hex for p in programs]


def _write(directory, corpus):
    with CorpusWriter(directory) as writer:
        for program in corpus:
            writer.add(program)


def _load(directory):
    errors = []
    return list(iter_corpus(directory, errors=errors)), errors


class TestStreamDeterminism:
    def test_same_seed_same_corpus(self):
        first = _hashes(stream_corpus(80, seed=3))
        second = _hashes(stream_corpus(80, seed=3))
        assert first == second

    def test_different_seeds_differ(self):
        assert _hashes(stream_corpus(80, seed=3)) \
            != _hashes(stream_corpus(80, seed=4))

    def test_build_corpus_is_the_materialized_stream(self):
        assert _hashes(build_corpus(120, seed=2)) \
            == _hashes(stream_corpus(120, seed=2))

    def test_build_corpus_historical_shape(self):
        corpus = build_corpus(200, seed=4)
        assert len(corpus) == 200
        assert len({p.hash_hex for p in corpus}) == 200

    def test_dedup_drop_counts_deterministic(self):
        runs = []
        for __ in range(2):
            stats = StreamStats()
            hashes = _hashes(stream_corpus(100, seed=2, diversify=True,
                                           stats=stats))
            runs.append((hashes, stats.emitted, stats.candidates,
                         stats.duplicate_drops, stats.diversified))
        assert runs[0] == runs[1]

    def test_abandoning_the_stream_early_is_a_prefix(self):
        full = _hashes(stream_corpus(60, seed=5))
        partial = []
        for program in stream_corpus(60, seed=5):
            partial.append(program.hash_hex)
            if len(partial) == 20:
                break
        assert partial == full[:20]

    def test_size_zero_emits_nothing(self):
        assert list(stream_corpus(0, seed=1)) == []


class TestSyscallDiversifier:
    def test_diversifier_only_adds_unused_syscalls(self):
        plain = _hashes(stream_corpus(200, seed=2))
        stats = StreamStats()
        corpus = list(stream_corpus(200, seed=2, diversify=True,
                                    stats=stats))
        assert stats.diversified == 18
        assert stats.emitted == len(corpus)
        # The diversifier runs between the mutation and random phases,
        # so the two streams share the seeds and mutants before it.
        shared = next(i for i, (a, b) in enumerate(zip(plain, _hashes(corpus)))
                      if a != b)
        used = {call.name for program in corpus[:shared]
                for call in program.calls if call is not None}
        for program in corpus[shared:shared + stats.diversified]:
            names = {call.name for call in program.calls if call is not None}
            assert names - used, program.serialize()


class TestCorpusWriterResume:
    def test_interrupted_run_resumes_byte_identical(self, tmp_path):
        clean_dir = str(tmp_path / "clean")
        resumed_dir = str(tmp_path / "resumed")
        # Uninterrupted reference run.
        with CorpusWriter(clean_dir) as writer:
            for program in stream_corpus(50, seed=6):
                writer.add(program)
        # Interrupted run: stop after 17 programs, then resume.
        with CorpusWriter(resumed_dir) as writer:
            for i, program in enumerate(stream_corpus(50, seed=6)):
                if i == 17:
                    break
                writer.add(program)
        with CorpusWriter(resumed_dir) as writer:
            for program in stream_corpus(50, seed=6):
                writer.add(program)
            assert writer.skipped == 17
        assert sorted(os.listdir(clean_dir)) == sorted(os.listdir(resumed_dir))
        for name in os.listdir(clean_dir):
            with open(os.path.join(clean_dir, name), "rb") as a, \
                    open(os.path.join(resumed_dir, name), "rb") as b:
                assert a.read() == b.read(), name

    def test_writer_directory_loads_like_save_corpus(self, tmp_path):
        """The writer keeps the historical layout: one ``<hash>.prog``
        per program holding its serialization, and ``index.txt`` naming
        them in corpus order, so directories written before it load."""
        streamed = str(tmp_path / "streamed")
        corpus = build_corpus(30, seed=7)
        with CorpusWriter(streamed) as writer:
            for program in corpus:
                writer.add(program)
            assert writer.count == writer.added == 30
        names = [program.hash_hex + ".prog" for program in corpus]
        assert sorted(os.listdir(streamed)) == sorted(names + ["index.txt"])
        with open(os.path.join(streamed, "index.txt")) as handle:
            assert handle.read() == "".join(name + "\n" for name in names)
        for program, name in zip(corpus, names):
            with open(os.path.join(streamed, name)) as handle:
                assert handle.read() == program.serialize() + "\n", name
        assert _hashes(iter_corpus(streamed)) == _hashes(corpus)

    def test_add_reports_duplicates(self, tmp_path):
        program = seed_list()[0]
        with CorpusWriter(str(tmp_path / "c")) as writer:
            assert writer.add(program)
            assert not writer.add(program)
            assert writer.added == 1 and writer.skipped == 1


class TestStreamingLoad:
    def test_iter_corpus_streams_in_index_order(self, tmp_path):
        directory = str(tmp_path / "c")
        corpus = build_corpus(20, seed=8)
        _write(directory, corpus)
        assert _hashes(iter_corpus(directory)) == _hashes(corpus)

    def test_corrupt_entry_skipped_and_reported(self, tmp_path):
        directory = str(tmp_path / "c")
        corpus = build_corpus(10, seed=8)
        _write(directory, corpus)
        victim = corpus[3].hash_hex + ".prog"
        with open(os.path.join(directory, victim), "w") as handle:
            handle.write("this is not a program\n")
        programs, errors = _load(directory)
        assert len(programs) == 9
        assert [name for name, __ in errors] == [victim]

    def test_hash_mismatch_reported(self, tmp_path):
        directory = str(tmp_path / "c")
        _write(directory, build_corpus(5, seed=8))
        other = build_corpus(6, seed=9)[-1]
        victim = sorted(os.listdir(directory))[0]
        if victim == "index.txt":
            victim = sorted(os.listdir(directory))[1]
        with open(os.path.join(directory, victim), "w") as handle:
            handle.write(other.serialize() + "\n")
        programs, errors = _load(directory)
        assert any("hash" in msg for __, msg in errors)

    def test_missing_directory_is_an_error_entry_not_a_raise(self, tmp_path):
        programs, errors = _load(str(tmp_path / "nope"))
        assert programs == []
        assert len(errors) == 1
