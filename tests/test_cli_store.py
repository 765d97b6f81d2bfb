"""Tests for the command-line interface and the on-disk corpus store."""

import json
import os
import re

import pytest

from repro.cli import main
from repro.corpus.generator import build_corpus
from repro.corpus.program import prog
from repro.corpus.store import CorpusWriter, iter_corpus
from repro.vm import fork_available


def _save(directory, corpus):
    with CorpusWriter(directory) as writer:
        for program in corpus:
            writer.add(program)


def _load(directory):
    errors = []
    return list(iter_corpus(directory, errors=errors)), errors


class TestCorpusStore:
    def test_roundtrip(self, tmp_path):
        corpus = build_corpus(25, seed=5)
        _save(str(tmp_path), corpus)
        programs, errors = _load(str(tmp_path))
        assert not errors
        assert programs == corpus

    def test_index_preserves_order(self, tmp_path):
        corpus = build_corpus(10, seed=6)
        _save(str(tmp_path), corpus)
        programs, __ = _load(str(tmp_path))
        assert [p.hash_hex for p in programs] == \
            [p.hash_hex for p in corpus]

    def test_corrupted_file_reported(self, tmp_path):
        _save(str(tmp_path), [prog(("getpid",),)])
        name = os.listdir(str(tmp_path))
        victim = [n for n in name if n.endswith(".prog")][0]
        with open(tmp_path / victim, "w") as handle:
            handle.write("!!! not a program !!!\n")
        programs, errors = _load(str(tmp_path))
        assert errors and not programs
        assert errors[0][0] == victim

    def test_hash_mismatch_reported(self, tmp_path):
        _save(str(tmp_path), [prog(("getpid",),)])
        victim = [n for n in os.listdir(str(tmp_path))
                  if n.endswith(".prog")][0]
        with open(tmp_path / victim, "w") as handle:
            handle.write(prog(("gethostname",),).serialize() + "\n")
        __, errors = _load(str(tmp_path))
        assert "hash" in errors[0][1]

    def test_directory_without_index(self, tmp_path):
        program = prog(("getpid",),)
        with open(tmp_path / f"{program.hash_hex}.prog", "w") as handle:
            handle.write(program.serialize() + "\n")
        programs, errors = _load(str(tmp_path))
        assert not errors and programs == [program]

    def test_empty_corpus(self, tmp_path):
        _save(str(tmp_path), [])
        assert _load(str(tmp_path)) == ([], [])

    def test_undecodable_index_is_one_error(self, tmp_path):
        _save(str(tmp_path), build_corpus(5, seed=5))
        index = tmp_path / "index.txt"
        data = bytearray(index.read_bytes())
        data[len(data) // 2] |= 0x80  # no longer UTF-8
        index.write_bytes(bytes(data))
        programs, errors = _load(str(tmp_path))
        assert programs == []
        assert [name for name, _error in errors] == [str(tmp_path)]


class TestCli:
    def test_run_finds_bugs(self, capsys):
        assert main(["--kernel", "5.13", "run", "--corpus-size", "60"]) == 0
        output = capsys.readouterr().out
        assert "bugs found:" in output
        assert "'1'" in output

    def test_resumed_run_reports_restored_cases(self, tmp_path, capsys):
        run = ["run", "--corpus-size", "20", "--workers", "2",
               "--store", str(tmp_path)]
        assert main(run) == 0
        first = capsys.readouterr().out
        assert main(run + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        total = re.search(r"cases: (\d+) executed", first).group(1)
        assert f"cases: 0 executed (0/s), {total} restored, " in resumed
        # Nothing was left to run, so no worker and no shard either.
        assert "execution:" not in resumed
        if fork_available():
            assert "execution: 2 process worker(s), 2 shard(s) spawned " \
                "(0 died)\n" in first

    @pytest.mark.skipif(not fork_available(),
                        reason="process shards require fork")
    def test_poisoned_cases_count_as_lost(self, capsys):
        """Every attempt SIGKILLs its shard.  Injected kills never
        poison a pair, so every pair exhausts its retries and degrades
        to infra_failed; the faults line counts them as lost cases, and
        no pair is quarantined."""
        assert main(["run", "--corpus-size", "6", "--strategy", "rand",
                     "--rand-budget", "6", "--workers", "2",
                     "--faults", "0:1.0:worker.kill"]) == 0
        output = capsys.readouterr().out
        assert "cases: 0 executed (0/s), outcomes: infra_failed=6\n" \
            in output
        assert "78 shard(s) spawned (78 died)\n" in output
        assert "78 injected / 0 recovered / 78 infra-failed / 0 poisoned " \
            "(accounted: yes), cases lost: 6\n" in output
        assert "supervision:" not in output

    def test_run_on_fixed_kernel_is_clean(self, capsys):
        assert main(["--kernel", "fixed", "run", "--corpus-size", "50"]) == 0
        assert "bugs found: none" in capsys.readouterr().out

    def test_known_bugs_subset(self, capsys):
        assert main(["known-bugs", "A", "G"]) == 0
        output = capsys.readouterr().out
        assert "A (kernel 4.4" in output
        assert "not detected" in output  # G

    def test_known_bugs_all_expected(self):
        assert main(["known-bugs"]) == 0

    def test_corpus_generate_and_inspect(self, tmp_path, capsys):
        directory = str(tmp_path / "corpus")
        assert main(["corpus", "gen", directory, "--corpus-size", "15"]) == 0
        assert main(["corpus", "stats", directory]) == 0
        output = capsys.readouterr().out
        assert f"wrote 15 programs to {directory}" in output
        assert "15 programs, " in output and ", 0 errors" in output

    @pytest.mark.parametrize("argv", [
        ["corpus", "DIR"],
        ["corpus", "DIR", "--generate"],
        ["corpus", "gen", "DIR", "--batch-size", "8"],
        ["corpus", "gen", "DIR", "--dedup"],
    ], ids=["legacy-dir", "legacy-generate", "batch-size", "dedup"])
    def test_retired_corpus_forms_are_rejected(self, argv, tmp_path):
        argv = [str(tmp_path / "c") if arg == "DIR" else arg for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert not os.path.exists(tmp_path / "c")

    def test_run_from_corpus_dir(self, tmp_path, capsys):
        directory = str(tmp_path / "corpus")
        main(["corpus", "gen", directory, "--corpus-size", "45"])
        assert main(["run", "--corpus-dir", directory]) == 0
        assert "corpus: 45 programs" in capsys.readouterr().out

    def test_diversified_corpus_dir_finds_every_bug(self, tmp_path, capsys):
        """The documented corpus path: ``corpus gen --diversify``, then a
        campaign over the directory, finds all nine Table-2 bugs."""
        directory = str(tmp_path / "corpus")
        assert main(["corpus", "gen", directory, "--corpus-size", "200",
                     "--seed", "1", "--diversify"]) == 0
        assert "admitted 200 of 218 candidates (18 duplicate drops, 20 " \
               "from the syscall diversifier)" in capsys.readouterr().out
        assert main(["run", "--corpus-dir", directory]) == 0
        output = capsys.readouterr().out
        assert "corpus: 200 programs" in output
        assert f"bugs found: {list('123456789')}" in output

    def test_run_from_damaged_corpus_dir_exits_1(self, tmp_path, capsys):
        directory = str(tmp_path / "corpus")
        main(["corpus", "gen", directory, "--corpus-size", "5"])
        victim = sorted(n for n in os.listdir(directory)
                        if n.endswith(".prog"))[0]
        with open(os.path.join(directory, victim), "w") as handle:
            handle.write("!!! not a program !!!\n")
        capsys.readouterr()
        assert main(["run", "--corpus-dir", directory]) == 1
        assert f"corpus error: {victim}: " in capsys.readouterr().err

    def test_corpus_gen_on_a_damaged_index_exits_1(self, tmp_path, capsys):
        """An index that does not decode ends ``corpus gen`` with one
        error line, not a traceback, and the index is left as it was."""
        directory = str(tmp_path / "corpus")
        main(["corpus", "gen", directory, "--corpus-size", "5"])
        index = tmp_path / "corpus" / "index.txt"
        data = bytearray(index.read_bytes())
        data[len(data) // 2] |= 0x80  # no longer UTF-8
        index.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["corpus", "gen", directory, "--corpus-size", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"corpus error: {directory}: ")
        assert err.count("\n") == 1
        assert index.read_bytes() == bytes(data)

    @pytest.mark.parametrize("argv", [
        pytest.param(["run", "--nondet-cache", "DIR"], id="--nondet-cache"),
        pytest.param(["run", "--profile-cache", "DIR"], id="--profile-cache"),
        pytest.param(["analyze", "--cache-dir", "DIR"], id="--cache-dir"),
        pytest.param(["analyze", "--no-cache"], id="--no-cache"),
    ])
    def test_retired_cache_options_are_rejected(self, argv, tmp_path):
        argv = [str(tmp_path / "cache") if arg == "DIR" else arg
                for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_analyze_writes_a_json_report(self, tmp_path, capsys):
        """5.13 has unsuppressed escape findings, so ``analyze`` exits 1
        after writing its report."""
        out = tmp_path / "report.json"
        assert main(["--kernel", "5.13", "analyze", "--races", "--json",
                     "--output", str(out)]) == 1
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert json.loads(out.read_text())["races"]

    def test_run_cache_is_warm_the_second_time(self, tmp_path, capsys):
        argv = ["run", "--corpus-size", "12", "--cache", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "non-det 100% hit" in output
        assert "profile store: 100% hit" in output

    def test_show_decodes_and_executes(self, tmp_path, capsys):
        program = prog(("open", "/proc/net/sockstat", 0),
                       ("pread64", "r0", 512, 0))
        path = tmp_path / "probe.prog"
        path.write_text(program.serialize() + "\n")
        assert main(["show", str(path)]) == 0
        output = capsys.readouterr().out
        assert "sockets: used" in output

    @pytest.mark.parametrize("content, reason", [
        (None, "No such file or directory"),
        (b"\xff getpid()\n", "can't decode byte 0xff"),
        (b"!!! not a program !!!\n", "unparseable program line"),
    ], ids=["missing-file", "not-utf8", "unparseable"])
    def test_show_rejects_bad_input(self, tmp_path, content, reason):
        path = tmp_path / "probe.prog"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["show", str(path)])
        message = str(excinfo.value)
        assert message.startswith(f"show error: {path}: ")
        assert reason in message
        assert "\n" not in message

    def test_unknown_kernel_preset_exits(self):
        with pytest.raises(SystemExit):
            main(["--kernel", "windows", "run"])

    def test_reports_flag_prints_reports(self, capsys):
        assert main(["run", "--corpus-size", "50", "--reports"]) == 0
        assert "functional interference report" in capsys.readouterr().out

    def test_save_and_inspect_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "campaign.json")
        assert main(["run", "--corpus-size", "50", "--save", out]) == 0
        capsys.readouterr()
        assert main(["inspect", out]) == 0
        output = capsys.readouterr().out
        assert output.startswith("kernel 5.13, df-ia campaign, ")
        assert "bugs found:" in output and "'1'" in output
        assert os.listdir(str(tmp_path)) == ["campaign.json"]

    def test_inspect_reads_a_store_result(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        out = str(tmp_path / "saved.json")
        assert main(["run", "--corpus-size", "50", "--store", store,
                     "--save", out]) == 0
        campaign_id = re.search(r"store: campaign (\w+)",
                                capsys.readouterr().out).group(1)
        result = os.path.join(store, campaign_id, "result.json")
        with open(result) as stored, open(out) as saved:
            assert stored.read() == saved.read()
        assert main(["inspect", result]) == 0
        assert "bugs found: ['1'" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["truncated", "not-an-object",
                                        "too-deep"])
    def test_damaged_campaign_json_is_rejected(self, tmp_path, capsys,
                                               damage):
        """``store ls``/``store show`` skip a campaign whose
        ``campaign.json`` does not decode to an object (or is nested
        deeper than the decoder can follow), and ``--resume`` fails with
        a store error naming the file."""
        store = str(tmp_path)
        run = ["run", "--corpus-size", "10", "--strategy", "rand",
               "--rand-budget", "4", "--store", store]
        assert main(run) == 0
        campaign_id = re.search(r"store: campaign (\w+)",
                                capsys.readouterr().out).group(1)
        meta = os.path.join(store, campaign_id, "campaign.json")
        with open(meta) as handle:
            text = handle.read()
        damaged = {"truncated": text[:len(text) // 2],
                   "not-an-object": "[]", "too-deep": "[" * 100_000}
        with open(meta, "w") as handle:
            handle.write(damaged[damage])
        assert main(["store", store, "ls"]) == 0
        assert f"no campaigns under {store}" in capsys.readouterr().out
        assert main(["store", store, "show", campaign_id]) == 1
        assert "store error: no campaign" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(run + ["--resume"])
        assert str(excinfo.value).startswith("store error: ")
        assert meta in str(excinfo.value)

    def test_non_utf8_journal_line_ends_the_valid_prefix(self, tmp_path,
                                                         capsys):
        """A flipped high bit in ``journal.jsonl``, or an appended line
        nested deeper than the decoder can follow, cuts the journal at
        that line: ``store ls`` still lists the campaign, and
        ``--resume`` re-runs what the cut dropped."""
        for damage in ("high-bit", "too-deep"):
            store = str(tmp_path / damage)
            run = ["run", "--corpus-size", "10", "--strategy", "rand",
                   "--rand-budget", "4", "--store", store]
            assert main(run) == 0
            first = capsys.readouterr().out
            campaign_id = re.search(r"store: campaign (\w+)",
                                    first).group(1)
            journal = os.path.join(store, campaign_id, "journal.jsonl")
            with open(journal, "rb") as handle:
                data = bytearray(handle.read())
            if damage == "too-deep":
                data += b"[" * 100_000 + b"\n"
            else:
                data[len(data) // 2] |= 0x80
            with open(journal, "wb") as handle:
                handle.write(bytes(data))
            assert main(["store", store, "ls"]) == 0
            assert campaign_id in capsys.readouterr().out
            assert main(run + ["--resume"]) == 0
            resumed = capsys.readouterr().out
            assert f"store: campaign {campaign_id}" in resumed
            if damage == "too-deep":
                assert "100001 torn byte(s) repaired" in resumed
            assert re.search(r"bugs found: .*", resumed).group() \
                == re.search(r"bugs found: .*", first).group()

    def test_run_store_on_a_regular_file_is_a_store_error(self, tmp_path):
        """A store root that is a regular file cannot hold a campaign
        directory: ``run`` exits with one store error line."""
        root = tmp_path / "store"
        root.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--corpus-size", "5", "--store", str(root)])
        message = str(excinfo.value)
        assert message.startswith("store error: campaign ")
        assert f"cannot create {root}{os.sep}" in message
        assert "\n" not in message
        assert root.read_text() == ""

    def test_store_reads_leave_a_missing_root_missing(self, tmp_path,
                                                      capsys):
        """``store ls`` and ``repro`` only read a store: on a missing
        directory they report it and create nothing."""
        missing = str(tmp_path / "missing")
        assert main(["store", missing, "ls"]) == 0
        assert f"no campaigns under {missing}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main(["repro", missing, "abc"])
        assert str(excinfo.value) == \
            f"store error: no campaign 'abc' under {missing}"
        assert not os.path.exists(missing)

    @pytest.mark.parametrize("content, reason", [
        ("[]", "not a JSON object"),
        ('{"format_version": 1, "st', "Unterminated string"),
        ('{"format_version": 1}', "missing key 'stats'"),
        ('{"format_version": 1, "stats": {}, "reports": [{}]}',
         "damaged report 0"),
        (None, "No such file or directory"),
        ("[" * 100_000, "JSON nested too deeply"),
    ], ids=["not-an-object", "truncated", "missing-key", "damaged-report",
            "missing-file", "too-deep"])
    def test_inspect_rejects_a_damaged_document(self, tmp_path, content,
                                                reason):
        path = str(tmp_path / "result.json")
        if content is not None:
            with open(path, "w") as handle:
                handle.write(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["inspect", path])
        message = str(excinfo.value)
        assert message.startswith(f"inspect error: {path}: ")
        assert reason in message
        assert "\n" not in message

    def test_coverage_subcommand(self, capsys):
        assert main(["coverage", "--corpus-size", "30"]) == 0
        output = capsys.readouterr().out
        assert "functions entered" in output

    def test_syscalls_doc_command(self, tmp_path, capsys):
        out = str(tmp_path / "surface.md")
        assert main(["syscalls", "--output", out]) == 0
        with open(out) as handle:
            assert "Simulated kernel syscall surface" in handle.read()

    def test_syscalls_to_stdout(self, capsys):
        assert main(["syscalls"]) == 0
        assert "| `socket` |" in capsys.readouterr().out

    def test_markdown_report_flag(self, tmp_path, capsys):
        out = str(tmp_path / "report.md")
        assert main(["run", "--corpus-size", "45", "--markdown", out]) == 0
        with open(out) as handle:
            assert "## Groups" in handle.read()

    def test_compare_command(self, capsys):
        assert main(["compare", "--corpus-size", "60"]) == 0
        output = capsys.readouterr().out
        assert "df-ia" in output and "rand" in output

    def test_spec_command(self, capsys):
        assert main(["spec"]) == 0
        output = capsys.readouterr().out
        assert "protected resource kinds:" in output
        assert "check_priority" in output

    def test_gate_passes_for_a_fix(self, capsys):
        assert main(["gate", "5.13", "fixed", "--corpus-size", "50"]) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_gate_fails_on_introduced_interference(self, capsys):
        assert main(["gate", "fixed", "5.13", "--corpus-size", "50"]) == 1
        assert "GATE FAILED" in capsys.readouterr().out

    def test_jump_label_flag_blinds_df(self, capsys):
        assert main(["--jump-label", "run", "--corpus-size", "60"]) == 0
        output = capsys.readouterr().out
        assert "'2'" not in output  # flow-label bugs invisible to DF
