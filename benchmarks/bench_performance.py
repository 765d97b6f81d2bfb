"""§6.5 performance: profiling and execution throughput.

The paper reports, for the real testbed:

* corpus profiling: 98,853 programs in <9 hours on one server
  (4 executions per program),
* analysis + generation: <30 minutes on one machine,
* test case execution: 31.3 executions/second across 110 VMs,
  1.13M test cases in 10 hours.

These benches measure the simulator's equivalents per operation —
snapshot restore (the QEMU-snapshot stand-in), single-program profiling
(the 4-run protocol), test-case execution (two-execution protocol), and
trace AST comparison — and emit a §6.5-shaped summary from the main
campaign's stage timings.
"""

from repro import MachineConfig, linux_5_13
from repro.core import (
    Profiler,
    TestCaseRunner,
    build_trace_ast,
    syscall_trace_cmp,
)
from repro.corpus import seed_programs
from repro.vm import Machine

from benchmarks.support import emit_table


def test_bench_snapshot_restore(benchmark):
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    benchmark(machine.reset)


def test_bench_profile_one_program(benchmark):
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    profiler = Profiler(machine)
    program = seed_programs()["udp_send"]
    profile = benchmark(profiler.profile, program)
    assert profile.sender.total_accesses() > 0


def test_bench_test_case_execution(benchmark):
    """One §4.2 test-case execution: restore + sender + receiver."""
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    runner = TestCaseRunner(machine)
    seeds = seed_programs()
    sender, receiver = seeds["packet_socket"], seeds["read_ptype"]
    benchmark(runner.run_with_sender, sender, receiver)


def test_bench_trace_ast_compare(benchmark):
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    seeds = seed_programs()
    machine.reset()
    records_a = machine.run("receiver", seeds["read_sockstat"]).records
    machine.reset()
    machine.run("sender", seeds["udp_send"])
    records_b = machine.run("receiver", seeds["read_sockstat"]).records

    def build_and_compare():
        return syscall_trace_cmp(build_trace_ast(records_a),
                                 build_trace_ast(records_b))

    diffs = benchmark(build_and_compare)
    assert diffs


def test_section65_throughput_summary(campaign_513, benchmark):
    # Keep the summary test benchmark-visible: time one snapshot restore.
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    benchmark(machine.reset)

    stats = campaign_513.stats
    profile_rate = (stats.profile_runs / stats.profile_seconds
                    if stats.profile_seconds else 0.0)
    exec_rate = stats.executions_per_second()
    stage_restore = (f"{stats.profile_restore_seconds:.2f}/"
                     f"{stats.execution_restore_seconds:.2f}/"
                     f"{stats.diagnosis_restore_seconds:.2f}")
    lines = [
        f"{'Stage':<34} {'This repro':>16} {'Paper':>22}",
        "-" * 76,
        f"{'Corpus profiled (programs)':<34} {stats.corpus_size:>16} "
        f"{'98,853':>22}",
        f"{'Profiling runs (4 per program)':<34} {stats.profile_runs:>16} "
        f"{'<9 h on 1 server':>22}",
        f"{'Profiling rate (runs/s)':<34} {profile_rate:>16.1f} {'—':>22}",
        f"{'Analysis+generation (s)':<34} {stats.analysis_seconds:>16.2f} "
        f"{'<30 min':>22}",
        f"{'Test cases executed':<34} {stats.cases_executed:>16} "
        f"{'1.13M in 10 h':>22}",
        f"{'Execution rate (cases/s)':<34} {exec_rate:>16.1f} "
        f"{'31.3 (110 VMs)':>22}",
        f"{'Non-det re-runs':<34} {stats.nondet_runs:>16} {'cached on disk':>22}",
        f"{'Diagnosis re-runs (Algorithm 2)':<34} "
        f"{stats.diagnosis_reruns:>16} {'—':>22}",
        f"{'Snapshot restores':<34} {stats.restore_count:>16} "
        f"{'QEMU snapshot load':>22}",
        f"{'  segments skipped':<34} "
        f"{f'{stats.segments_skipped_rate():.0%}':>16} {'—':>22}",
        f"{'  restore s (prof/exec/diag)':<34} {stage_restore:>16} "
        f"{'—':>22}",
        f"{'Baseline cache hit rate':<34} "
        f"{f'{stats.baseline_hit_rate():.0%}':>16} {'—':>22}",
        f"{'Non-det cache hit rate':<34} "
        f"{f'{stats.nondet_cache_hit_rate():.0%}':>16} {'—':>22}",
        f"{'Sender-cache hit rate':<34} "
        f"{f'{stats.sender_cache_hit_rate():.0%}':>16} {'—':>22}",
        f"{'  deltas held / bytes':<34} "
        f"{f'{stats.sender_cache_entries} / {stats.sender_cache_bytes}':>16} "
        f"{'—':>22}",
        f"{'  diagnosis prefix reuses':<34} "
        f"{stats.diagnosis_prefix_reuses:>16} {'—':>22}",
    ]
    emit_table("section65_performance", "§6.5 performance summary", lines)

    assert exec_rate > 0
    assert stats.profile_runs == 4 * stats.corpus_size
    # Restore telemetry invariants: the campaign restored the snapshot
    # and skipped most segments on a typical reset.
    assert stats.restore_count > 0
    assert stats.segments_skipped_rate() > 0.5
    # Sender-state memoization served the campaign: the memoized deltas
    # took hits and every Algorithm 2 re-run replayed a prefix state.
    assert stats.sender_cache_hits > 0
    assert stats.sender_cache_entries > 0
    assert stats.diagnosis_prefix_reuses == stats.diagnosis_reruns
