"""Tests for the command-line interface and the on-disk corpus store."""

import os
import re

import pytest

from repro.cli import main
from repro.corpus.generator import build_corpus
from repro.corpus.program import prog
from repro.corpus.store import load_corpus, save_corpus
from repro.vm import fork_available


class TestCorpusStore:
    def test_roundtrip(self, tmp_path):
        corpus = build_corpus(25, seed=5)
        save_corpus(str(tmp_path), corpus)
        loaded = load_corpus(str(tmp_path))
        assert loaded.ok
        assert loaded.programs == corpus

    def test_index_preserves_order(self, tmp_path):
        corpus = build_corpus(10, seed=6)
        save_corpus(str(tmp_path), corpus)
        loaded = load_corpus(str(tmp_path))
        assert [p.hash_hex for p in loaded.programs] == \
            [p.hash_hex for p in corpus]

    def test_corrupted_file_reported(self, tmp_path):
        save_corpus(str(tmp_path), [prog(("getpid",),)])
        name = os.listdir(str(tmp_path))
        victim = [n for n in name if n.endswith(".prog")][0]
        with open(tmp_path / victim, "w") as handle:
            handle.write("!!! not a program !!!\n")
        loaded = load_corpus(str(tmp_path))
        assert not loaded.ok
        assert loaded.errors[0][0] == victim

    def test_hash_mismatch_reported(self, tmp_path):
        save_corpus(str(tmp_path), [prog(("getpid",),)])
        victim = [n for n in os.listdir(str(tmp_path))
                  if n.endswith(".prog")][0]
        with open(tmp_path / victim, "w") as handle:
            handle.write(prog(("gethostname",),).serialize() + "\n")
        loaded = load_corpus(str(tmp_path))
        assert "hash" in loaded.errors[0][1]

    def test_directory_without_index(self, tmp_path):
        program = prog(("getpid",),)
        with open(tmp_path / f"{program.hash_hex}.prog", "w") as handle:
            handle.write(program.serialize() + "\n")
        loaded = load_corpus(str(tmp_path))
        assert loaded.ok and loaded.programs == [program]

    def test_empty_corpus(self, tmp_path):
        save_corpus(str(tmp_path), [])
        assert load_corpus(str(tmp_path)).programs == []


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
        """Every attempt SIGKILLs its shard, so every pair is poisoned;
        the faults line counts them as lost cases."""
        assert main(["run", "--corpus-size", "6", "--strategy", "rand",
                     "--rand-budget", "6", "--workers", "2",
                     "--faults", "0:1.0:worker.kill"]) == 0
        output = capsys.readouterr().out
        assert "0 infra-failed / " in output
        assert "cases lost: 6," in output
        assert "supervision: 6 pair(s) quarantined" in output

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
        assert main(["corpus", directory, "--generate",
                     "--corpus-size", "15"]) == 0
        assert main(["corpus", directory]) == 0
        assert "15 programs, 0 errors" in capsys.readouterr().out

    def test_run_from_corpus_dir(self, tmp_path, capsys):
        directory = str(tmp_path / "corpus")
        main(["corpus", directory, "--generate", "--corpus-size", "45"])
        assert main(["run", "--corpus-dir", directory]) == 0
        assert "corpus: 45 programs" in capsys.readouterr().out

    def test_show_decodes_and_executes(self, tmp_path, capsys):
        program = prog(("open", "/proc/net/sockstat", 0),
                       ("pread64", "r0", 512, 0))
        path = tmp_path / "probe.prog"
        path.write_text(program.serialize() + "\n")
        assert main(["show", str(path)]) == 0
        output = capsys.readouterr().out
        assert "sockets: used" in output

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
        assert "bugs found:" in output and "'1'" in output

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
