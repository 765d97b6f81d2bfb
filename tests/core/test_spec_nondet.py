"""Unit tests for the specification layer and non-determinism analysis."""

import json

from repro.core.factstore import FactStore
from repro.core.nondet import NondetAnalyzer, NondetStore
from repro.core.spec import (
    DEFAULT_PROTECTED_KINDS,
    KNOWN_UNPROTECTED_KINDS,
    Specification,
    default_specification,
    select_dependent_calls,
)
from repro.corpus.program import prog
from repro.corpus.seeds import seed_programs
from repro.vm.executor import SyscallRecord


def record(name, arg_kinds=None, ret_kind=None):
    return SyscallRecord(0, name, (), 0, 0, {}, arg_kinds or {}, ret_kind)


class TestSpecification:
    def test_protected_fd_kind_selected(self):
        spec = default_specification()
        assert spec.call_accesses_protected(
            record("pread64", {"fd": "fd_proc_net"}))

    def test_produced_resource_counts(self):
        spec = default_specification()
        assert spec.call_accesses_protected(record("socket", ret_kind="sock_tcp"))

    def test_unprotected_kind_not_selected(self):
        spec = default_specification()
        assert not spec.call_accesses_protected(
            record("pread64", {"fd": "fd_proc"}))

    def test_checker_selects_priority_calls(self):
        spec = default_specification()
        assert spec.call_accesses_protected(record("getpriority"))

    def test_plain_unprotected_call_not_selected(self):
        spec = default_specification()
        assert not spec.call_accesses_protected(record("crypto_alloc"))
        assert not spec.call_accesses_protected(record("clock_gettime"))

    def test_kind_sets_are_disjoint(self):
        assert not DEFAULT_PROTECTED_KINDS & KNOWN_UNPROTECTED_KINDS

    def test_with_kinds_refines(self):
        spec = default_specification().with_kinds("fd_proc")
        assert spec.call_accesses_protected(record("read", {"fd": "fd_proc"}))

    def test_without_kinds_narrows(self):
        spec = default_specification().without_kinds("fd_proc_net")
        assert not spec.call_accesses_protected(
            record("read", {"fd": "fd_proc_net"}))

    def test_with_checker_extends(self):
        spec = default_specification().with_checker(
            lambda r: r.name == "clock_gettime")
        assert spec.call_accesses_protected(record("clock_gettime"))

    def test_any_protected_over_records(self):
        spec = default_specification()
        records = [None, record("crypto_alloc"), record("getpriority")]
        assert spec.any_protected(records)


class TestSeedCallExpansion:
    def test_direct_dependency_selected(self):
        program = prog(("open", "/proc/net/ptype", 0), ("pread64", "r0", 10, 0))
        assert select_dependent_calls(program, 0) == {0, 1}

    def test_transitive_dependency_selected(self):
        program = prog(("socket", 2, 1, 6), ("bind", "r0", 1, 2),
                       ("connect", "r0", 1, 2))
        assert select_dependent_calls(program, 0) == {0, 1, 2}

    def test_independent_calls_not_selected(self):
        program = prog(("socket", 2, 1, 6), ("getpid",))
        assert select_dependent_calls(program, 0) == {0}

    def test_holes_are_skipped(self):
        program = prog(("socket", 2, 1, 6), ("bind", "r0", 1, 2)).without_call(1)
        assert select_dependent_calls(program, 0) == {0}


class TestNondetStore:
    def test_memory_roundtrip(self):
        store = NondetStore()
        store.put("abc", frozenset({(0, 1), (2,)}))
        assert store.get("abc") == frozenset({(0, 1), (2,)})

    def test_missing_returns_none(self):
        assert NondetStore().get("missing") is None

    def test_disk_roundtrip(self, tmp_path):
        store = NondetStore(FactStore(str(tmp_path), "fp"))
        store.put("abc", frozenset({(0, 1)}))
        fresh = NondetStore(FactStore(str(tmp_path), "fp"))
        assert fresh.get("abc") == frozenset({(0, 1)})
        assert NondetStore(FactStore(str(tmp_path), "other")).get("abc") \
            is None

    def test_disk_files_are_json(self, tmp_path):
        store = NondetStore(FactStore(str(tmp_path), "fp"))
        store.put("abc", frozenset({(3, 4)}), kind="nondet-0-5")
        data = (tmp_path / "fp" / "ab" / "abc.nondet-0-5").read_bytes()
        assert json.loads(data[32:]) == [[3, 4]]


class TestNondetAnalyzer:
    def test_timestamp_results_flagged(self, machine_513):
        analyzer = NondetAnalyzer(machine_513)
        marks = analyzer.nondet_paths(seed_programs()["read_uptime"])
        assert marks  # the uptime line varies with boot offset

    def test_deterministic_program_unflagged(self, machine_513):
        analyzer = NondetAnalyzer(machine_513)
        marks = analyzer.nondet_paths(seed_programs()["read_ptype"])
        assert marks == frozenset()

    def test_clock_gettime_flagged(self, machine_513):
        analyzer = NondetAnalyzer(machine_513)
        marks = analyzer.nondet_paths(prog(("clock_gettime", 0),))
        assert marks

    def test_results_cached_per_program(self, machine_513):
        analyzer = NondetAnalyzer(machine_513)
        program = seed_programs()["read_uptime"]
        analyzer.nondet_paths(program)
        runs_after_first = analyzer.runs_executed
        analyzer.nondet_paths(program)
        assert analyzer.runs_executed == runs_after_first

    def test_one_run_per_offset(self, machine_513):
        analyzer = NondetAnalyzer(machine_513, offsets=(0, 5))
        analyzer.nondet_paths(prog(("getpid",),))
        assert analyzer.runs_executed == 2

    def test_conntrack_dump_structurally_nondet(self):
        """The bug-F precondition: on the leaky kernel the dump varies
        across boot offsets even without any sender activity."""
        from repro.kernel import known_bug_kernel
        from repro.vm import Machine, MachineConfig

        machine = Machine(MachineConfig(bugs=known_bug_kernel("F")))
        marks = NondetAnalyzer(machine).nondet_paths(
            seed_programs()["read_nf_conntrack"])
        assert marks

    def test_stat_of_proc_file_has_nondet_times(self, machine_513):
        marks = NondetAnalyzer(machine_513).nondet_paths(
            seed_programs()["stat_proc"])
        assert marks  # st_mtime of a proc inode reports "now"
