"""Command-line interface for the KIT reproduction.

Installed as ``kit-repro``; also runnable as ``python -m repro.cli``.

Subcommands
-----------

``run``
    Run a full campaign against a kernel preset and print found bugs,
    statistics, and (optionally) the reports.
``known-bugs``
    Reproduce the Table-3 historical-bug scenarios.
``compare``
    Compare generation strategies on one corpus (Table 4's experiment).
``corpus``
    Stream a generated corpus into a directory (``gen``), or summarize
    one (``stats``).
``show``
    Decode a ``.prog`` file and execute it against a preset kernel,
    printing the strace-style trace.
``inspect``
    Reload a campaign result document (a ``run --save`` file or a
    store's ``result.json``) and summarize it.
``coverage``
    Profile a corpus and report kernel coverage.
``spec``
    Print the default protected-resource specification.
``store``
    Inspect a durable campaign store (``--store DIR``): list campaigns
    and their completion status, or show one campaign in detail.
``repro``
    Replay every culprit schedule journaled by an interleaved campaign
    and verify the receiver's trace reproduces byte-for-byte.
``gate``
    Run one campaign per kernel preset, diff at the AGG-R level, and
    fail when the transition introduces interference.
``syscalls``
    Render the declared syscall surface as markdown.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core.coverage import coverage_of_profiles
from .core.decode import decode_trace
from .core.known_bugs import SCENARIOS, reproduce_known_bug
from .core.detection import Detector
from .core.minimize import minimize_report
from .core.nondet import NondetAnalyzer
from .core.spec import default_specification
from .core.pipeline import CampaignConfig, CampaignResult, Kit
from .core.profile import Profiler
from .faults.plan import FaultPlan
from .corpus.generator import build_corpus
from .corpus.program import TestProgram
from .corpus.store import iter_corpus
from .kernel.bugs import (
    RACE_BUGS,
    BugFlags,
    fixed_kernel,
    known_bug_kernel,
    known_race_kernel,
    linux_5_13,
    race_kernel,
)
from .store import StoreError, publish_document, read_document
from .kernel.kernel import KernelConfig
from .vm.machine import Machine, MachineConfig, RECEIVER


def _kernel_preset(name: str) -> BugFlags:
    normalized = name.lower().replace("-", ".")
    if normalized in ("5.13", "linux.5.13", "buggy"):
        return linux_5_13()
    if normalized in ("fixed", "patched"):
        return fixed_kernel()
    if name.upper() in SCENARIOS:
        return known_bug_kernel(name.upper())
    if normalized == "race":
        return race_kernel()
    if name.upper() in RACE_BUGS:
        return known_race_kernel(name.upper())
    raise SystemExit(f"unknown kernel preset {name!r} "
                     "(try: 5.13, fixed, a known-bug id A-G, race, "
                     "or a race-bug id T1-T3)")


def _machine_config(args: argparse.Namespace) -> MachineConfig:
    return MachineConfig(
        kernel=KernelConfig(jump_label=args.jump_label),
        bugs=_kernel_preset(args.kernel),
    )


def _print_campaign(result: CampaignResult, show_reports: bool) -> None:
    stats = result.stats
    print(f"corpus: {stats.corpus_size} programs, "
          f"flows: {stats.flow_count}, clusters: {stats.cluster_count}")
    line = (f"cases: {stats.cases_executed} executed "
            f"({stats.executions_per_second():.0f}/s)")
    if stats.resumed_cases:
        line += f", {stats.resumed_cases} restored"
    print(line + ", outcomes: "
          + ", ".join(f"{k}={v}" for k, v in sorted(stats.outcomes.items())))
    print(f"funnel: {stats.initial_reports} candidates -> "
          f"{stats.after_nondet} -> {stats.after_resource} reports")
    if stats.execution_workers:
        line = (f"execution: {stats.execution_workers} "
                f"{stats.shard_mode} worker(s)")
        if stats.shard_mode == "process":
            line += (f", {stats.shards_spawned} shard(s) spawned"
                     f" ({stats.shards_died} died)")
        print(line)
    if stats.profile_store_hits + stats.profile_store_misses:
        total = stats.profile_store_hits + stats.profile_store_misses
        print(f"profile store: {stats.profile_store_hits / total:.0%} hit "
              f"({stats.profile_store_hits}/{total}), "
              f"{stats.profile_store_entries_written} entries / "
              f"{stats.profile_store_bytes_written} bytes written")
    if stats.index_run_segments:
        print(f"pairing index: columnar, {stats.index_run_segments} "
              f"run segment(s) / {stats.index_bytes} bytes, "
              f"{stats.index_points} access points")
    if stats.restore_count:
        print(f"restores: {stats.restore_count}, "
              f"segments skipped: {stats.segments_skipped_rate():.0%}, "
              f"restore time: {stats.restore_seconds:.2f}s")
        print(f"caches: baselines {stats.baseline_hit_rate():.0%} hit "
              f"({stats.baseline_hits}/"
              f"{stats.baseline_hits + stats.baseline_misses}), "
              f"non-det {stats.nondet_cache_hit_rate():.0%} hit "
              f"({stats.nondet_cache_hits}/"
              f"{stats.nondet_cache_hits + stats.nondet_cache_misses})")
    if stats.sender_cache_hits + stats.sender_cache_misses:
        print(f"sender cache: {stats.sender_cache_hit_rate():.0%} hit "
              f"({stats.sender_cache_hits}/"
              f"{stats.sender_cache_hits + stats.sender_cache_misses}), "
              f"{stats.sender_cache_entries} deltas / "
              f"{stats.sender_cache_bytes} bytes held, "
              f"{stats.sender_cache_evictions} evicted, "
              f"diagnosis re-runs served: {stats.diagnosis_prefix_reuses}/"
              f"{stats.diagnosis_reruns}")
    if stats.faults_injected_total():
        print(f"faults: {stats.faults_injected_total()} injected / "
              f"{stats.faults_recovered_total()} recovered / "
              f"{stats.faults_infra_total()} infra-failed / "
              f"{stats.faults_poisoned_total()} poisoned "
              f"(accounted: {'yes' if stats.faults_accounted() else 'NO'}), "
              f"cases lost: "
              f"{stats.infra_failed_cases + stats.poisoned_cases}, "
              f"recovery restores: {stats.recovery_restores}")
        print("  per site: " + ", ".join(
            f"{site}={count}"
            for site, count in sorted(stats.faults_injected.items())))
    if stats.campaign_id:
        line = f"store: campaign {stats.campaign_id}"
        if stats.resumed_cases:
            line += (f", {stats.resumed_cases} case(s) restored from the "
                     f"journal ({stats.journal_records_replayed} records)")
        if stats.journal_torn_bytes:
            line += f", {stats.journal_torn_bytes} torn byte(s) repaired"
        if stats.journal_fsync_degraded:
            line += (f", {stats.journal_fsync_degraded} sync(s) degraded "
                     "to flushed-only durability")
        print(line)
    if stats.poisoned_cases or stats.worker_hangs:
        print(f"supervision: {stats.poisoned_cases} pair(s) quarantined "
              f"as poison, {stats.worker_hangs} hung worker(s) reaped")
    if stats.schedules_executed:
        print(f"schedules: {stats.schedules_executed} interleaving(s) "
              f"executed, {stats.interleaved_reports} report(s) witnessed "
              "only under interleaving")
    print(f"groups: {result.groups.agg_rs_count} AGG-RS / "
          f"{result.groups.agg_r_count} AGG-R")
    print(f"bugs found: {sorted(result.bugs_found()) or 'none'}")
    if show_reports:
        for report in result.reports:
            print()
            print(report.render())


def _resolve_workers(requested: Optional[int]) -> int:
    """Map the --workers flag onto the campaign's pool size.

    Omitted means in-process execution (the historical default);
    ``--workers 0`` means auto — every core, with the pipeline clamping
    to the job count; an explicit N is taken verbatim.
    """
    if requested is None:
        return 0
    if requested == 0:
        return os.cpu_count() or 1
    if requested < 0:
        raise SystemExit(f"--workers must be >= 0 (got {requested})")
    return requested


def cmd_run(args: argparse.Namespace) -> int:
    corpus: Optional[List[TestProgram]] = None
    if args.corpus_dir:
        errors: List = []
        corpus = list(iter_corpus(args.corpus_dir, errors=errors))
        if errors:
            for name, error in errors:
                print(f"corpus error: {name}: {error}", file=sys.stderr)
            return 1
    config = CampaignConfig(
        machine=_machine_config(args),
        corpus=corpus,
        corpus_size=args.corpus_size,
        corpus_seed=args.seed,
        strategy=args.strategy,
        rand_budget=args.rand_budget,
        workers=_resolve_workers(args.workers),
        nondet_dir=args.nondet_cache,
        profile_dir=args.profile_cache,
        index_dir=args.index_dir,
        faults=args.faults,
        sender_cache=not args.no_sender_cache,
        store_dir=args.store,
        resume=args.resume,
        hang_timeout=args.hang_timeout,
        interleave=args.interleave,
        schedule_strategy=args.schedule_strategy,
        schedule_budget=args.schedule_budget,
        schedule_seed=args.schedule_seed,
        schedule_depth=args.schedule_depth,
        schedule_points=args.schedule_points,
        schedule_pairs=args.schedule_pairs,
    )
    if args.resume and not args.store:
        raise SystemExit("--resume requires --store DIR")
    progress = print if args.verbose else None
    try:
        result = Kit(config).run(progress=progress)
    except StoreError as error:
        raise SystemExit(f"store error: {error}")
    _print_campaign(result, show_reports=args.reports)
    if args.minimize and result.reports:
        machine = Machine(config.machine)
        detector = Detector(machine, config.spec, NondetAnalyzer(machine))
        print()
        for report in result.reports:
            print(minimize_report(detector, report).render())
            print()
    if args.save:
        publish_document(args.save, result.to_document())
        print(f"campaign saved to {args.save}")
    if args.markdown:
        from .core.render_md import save_campaign_markdown

        save_campaign_markdown(result, args.markdown)
        print(f"markdown report written to {args.markdown}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    try:
        result = CampaignResult.from_document(read_document(args.campaign))
    except (OSError, ValueError) as error:
        raise SystemExit(f"inspect error: {args.campaign}: {error}")
    print(f"kernel {result.config.strategy} campaign, "
          f"{len(result.reports)} reports")
    _print_campaign(result, show_reports=args.reports)
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    corpus = build_corpus(args.corpus_size, seed=args.seed)
    machine = Machine(_machine_config(args))
    profiles = Profiler(machine).profile_corpus(corpus)
    print(coverage_of_profiles(profiles).render())
    return 0


def cmd_spec(args: argparse.Namespace) -> int:
    print(default_specification().describe())
    return 0


def cmd_gate(args: argparse.Namespace) -> int:
    """Run the same campaign on two kernels and enforce the clean-fix gate."""
    from .core.regress import diff_campaigns
    from .corpus.generator import build_corpus

    corpus = build_corpus(args.corpus_size, seed=args.seed)

    def campaign(preset_name):
        config = CampaignConfig(
            machine=MachineConfig(bugs=_kernel_preset(preset_name)),
            corpus=list(corpus),
        )
        return Kit(config).run()

    before = campaign(args.before)
    after = campaign(args.after)
    diff = diff_campaigns(before, after)
    print(diff.render())
    if diff.introduced:
        print("GATE FAILED: new interference introduced")
        return 1
    print("gate passed: nothing introduced")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Static interference analysis: access maps, escape lint, races."""
    from .analysis import analyze, render_json, render_text
    from .analysis.cache import AnalysisCache

    if args.check:
        return _analyze_check()

    cache = None if args.no_cache else AnalysisCache(args.cache_dir)
    report = analyze(bugs=_kernel_preset(args.kernel),
                     kernel_name=args.kernel,
                     rediscovery=args.rediscover,
                     races=args.races,
                     cache=cache)
    text = (render_json(report) if args.json
            else render_text(report, verbose=args.verbose))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    if not report.clean():
        return 1
    if args.rediscover and not report.rediscovery.matches_expectations():
        return 1
    return 0


def _analyze_check() -> int:
    """The CI gate: the clean kernel lints clean, and every statically
    detectable injected bug is rediscovered."""
    from .analysis import analyze, rediscover_bugs

    failures = 0
    report = analyze(bugs=fixed_kernel(), kernel_name="fixed")
    unsuppressed = report.unsuppressed()
    if unsuppressed:
        failures += 1
        print(f"FAIL: clean kernel has {len(unsuppressed)} unsuppressed "
              "escape finding(s):")
        for finding in unsuppressed:
            print(f"  {finding.render()}")
    else:
        print("ok: clean kernel lints clean "
              f"({len(report.escape_findings)} suppressed)")
    rediscovery = rediscover_bugs()
    if rediscovery.matches_expectations():
        print(f"ok: bug rediscovery {len(rediscovery.found)}/"
              f"{len(rediscovery.per_bug)} "
              f"({100 * rediscovery.rate():.0f}%), matches expectations")
    else:
        failures += 1
        unexpected = [flag for flag, r in rediscovery.per_bug.items()
                      if r.found != r.expected]
        print(f"FAIL: rediscovery deviates on {', '.join(unexpected)}")
    if failures:
        print(f"analyze --check: {failures} failure(s)")
        return 1
    print("analyze --check: all gates passed")
    return 0


def cmd_syscalls(args: argparse.Namespace) -> int:
    from .kernel.syscalls.describe import surface_markdown

    text = surface_markdown()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_known_bugs(args: argparse.Namespace) -> int:
    bug_ids = args.bugs or list(SCENARIOS)
    failures = 0
    for bug_id in bug_ids:
        outcome = reproduce_known_bug(bug_id)
        scenario = outcome.scenario
        status = "detected" if outcome.detected else "not detected"
        expected = "" if outcome.detected == scenario.detectable \
            else "  ** UNEXPECTED **"
        failures += outcome.detected != scenario.detectable
        print(f"{scenario.bug_id} (kernel {outcome.kernel_version}, "
              f"{outcome.namespace}): {status}{expected}")
        print(f"    {scenario.description}")
    return 1 if failures else 0


def cmd_compare(args: argparse.Namespace) -> int:
    corpus = build_corpus(args.corpus_size, seed=args.seed)
    print(f"corpus: {len(corpus)} programs")
    budget = None
    for strategy in ("df-ia", "df-st-1", "df-st-2", "rand"):
        config = CampaignConfig(
            machine=_machine_config(args),
            corpus=list(corpus),
            strategy=strategy,
            rand_budget=budget,
            diagnose=False,
        )
        result = Kit(config).run()
        if strategy == "df-ia":
            budget = 8 * result.stats.cases_total
        numbered = sorted(b for b in result.bugs_found() if b.isdigit())
        count = (result.stats.cluster_count if strategy != "rand"
                 else result.stats.cases_total)
        print(f"{strategy:<8} cases={count:<6} bugs={len(numbered)}/9 "
              f"{numbered}")
    return 0


def _corpus_gen(args: argparse.Namespace) -> int:
    """``corpus gen DIR``: stream a generation run into a directory.

    Deterministic and resumable: re-running with the same parameters
    regenerates the same stream and the writer skips everything already
    on disk, so an interrupted run finishes into a byte-identical
    directory.
    """
    from .corpus.generator import CoverageDeduper, StreamStats, stream_corpus
    from .corpus.store import CorpusWriter

    stats = StreamStats()
    deduper = CoverageDeduper() if args.dedup else None
    with CorpusWriter(args.directory) as writer:
        for program in stream_corpus(args.corpus_size, seed=args.seed,
                                     deduper=deduper,
                                     diversify=args.diversify, stats=stats):
            writer.add(program)
    drops = (f"{stats.duplicate_drops} duplicate / "
             f"{stats.coverage_drops} coverage drops")
    if stats.diversified:
        drops += f", {stats.diversified} from the syscall diversifier"
    print(f"admitted {stats.emitted} of {stats.candidates} candidates "
          f"({drops})")
    line = f"wrote {writer.added} programs to {args.directory}"
    if writer.skipped:
        line += f" ({writer.skipped} already present, resumed)"
    print(line)
    return 0


def _corpus_stats(args: argparse.Namespace) -> int:
    """``corpus stats DIR``: stream a corpus directory and summarize it."""
    from collections import Counter

    errors: List = []
    programs = calls = prog_bytes = 0
    syscalls: Counter = Counter()
    for program in iter_corpus(args.directory, errors=errors):
        programs += 1
        calls += len(program)
        prog_bytes += len(program.serialize()) + 1
        syscalls.update(call.name for call in program.calls
                        if call is not None)
    print(f"{programs} programs, {calls} calls, {prog_bytes} bytes, "
          f"{len(errors)} errors")
    if syscalls:
        top = ", ".join(f"{name}={count}"
                        for name, count in syscalls.most_common(8))
        print(f"syscalls: {len(syscalls)} distinct; top: {top}")
    for name, error in errors:
        print(f"  {name}: {error}", file=sys.stderr)
    return 0 if not errors else 1


def cmd_store(args: argparse.Namespace) -> int:
    """Inspect a durable campaign store: ``store ls`` / ``store show``."""
    from .store import CampaignStore, StoreError

    store = CampaignStore(args.store)
    if args.store_command == "ls":
        entries = store.list_campaigns()
        if not entries:
            print(f"no campaigns under {args.store}")
            return 0
        for entry in entries:
            summary = entry.summary
            kernel = summary.get("kernel_version", "?")
            bugs = len(summary.get("bugs_enabled", []))
            line = (f"{entry.campaign_id}  {entry.status():<11} "
                    f"kernel={kernel} bugs={bugs} "
                    f"strategy={summary.get('strategy', '?')} "
                    f"cases={entry.cases_done}")
            if entry.poisoned:
                line += f" poisoned={entry.poisoned}"
            if entry.attempts:
                line += f" worker-deaths={entry.attempts}"
            print(line)
        return 0
    # store show <campaign-id>
    try:
        entry = store.entry(args.campaign)
    except StoreError as error:
        print(f"store error: {error}", file=sys.stderr)
        return 1
    print(f"campaign {entry.campaign_id} ({entry.status()})")
    print(f"  path: {entry.path}")
    print(f"  fingerprint: {entry.fingerprint}")
    for knob, value in sorted(entry.summary.items()):
        if knob == "corpus_hashes" and value:
            value = f"<{len(value)} pinned programs>"
        if knob == "spec":
            value = f"<{len(str(value))} chars>"
        print(f"  config.{knob}: {value}")
    print(f"  journal: {entry.cases_done} case(s) committed, "
          f"{entry.attempts} worker death(s), "
          f"{entry.poisoned} poison quarantine(s)")
    if entry.accounting:
        print("  accounting: " + ", ".join(
            f"{name}={count}"
            for name, count in sorted(entry.accounting.items())))
    result = store.result_path(entry.campaign_id)
    print(f"  result: {result if result else 'not yet published'}")
    return 0


def cmd_repro(args: argparse.Namespace) -> int:
    """Replay journaled culprit schedules and verify byte-exact parity.

    For every interleaved report in the campaign's journal, rebuild the
    machine from the stored configuration summary, re-derive the culprit
    schedule's preemption points from its id, re-execute the
    interleaving, and compare the receiver's records against the
    journaled ones.  Any divergence exits 1 — a failed replay means the
    schedule id no longer names the same interleaving (kernel drift).
    """
    import os

    from .core.reportcodec import decode_report, encode_record
    from .core.schedule import replay_schedule
    from .store import RECORD_CASE, CampaignStore, scan

    store_obj = CampaignStore(args.store)
    try:
        entry = store_obj.entry(args.campaign)
    except StoreError as error:
        raise SystemExit(f"store error: {error}")
    summary = entry.summary
    machine = Machine(MachineConfig(
        kernel=KernelConfig(version=summary.get("kernel_version", "5.13"),
                            jump_label=summary.get("jump_label", False)),
        bugs=BugFlags(**{flag: True
                         for flag in summary.get("bugs_enabled", [])}),
    ))
    replay = scan(os.path.join(entry.path, "journal.jsonl"))
    checked = mismatched = 0
    for record in replay.records:
        if record.get("t") != RECORD_CASE or not record.get("report"):
            continue
        data = record["report"]
        if not data.get("culprit_schedule"):
            continue
        key = record.get("k", "")
        if args.case and args.case not in key:
            continue
        report = decode_report(data)
        result = replay_schedule(machine, report.case.sender,
                                 report.case.receiver,
                                 report.culprit_schedule)
        fresh = [encode_record(r) for r in result.records]
        stored = [encode_record(r) for r in report.receiver_with_records]
        ok = fresh == stored
        checked += 1
        mismatched += not ok
        print(f"{key[:24]}: {report.culprit_schedule} "
              f"{'ok' if ok else 'MISMATCH'}")
    if not checked:
        print("no interleaved reports in this campaign's journal")
        return 0
    print(f"repro: {checked - mismatched}/{checked} culprit schedule(s) "
          "replayed byte-identically")
    return 1 if mismatched else 0


def cmd_show(args: argparse.Namespace) -> int:
    with open(args.program) as handle:
        program = TestProgram.parse(handle.read())
    print("--- program ---")
    print(program.serialize())
    machine = Machine(_machine_config(args))
    machine.reset()
    result = machine.run(RECEIVER, program)
    print("--- trace ---")
    print(decode_trace(result.records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kit-repro",
        description="KIT (ASPLOS 2023) reproduction: functional interference "
                    "testing for OS-level virtualization.",
    )
    parser.add_argument("--kernel", default="5.13",
                        help="kernel preset: 5.13, fixed, A-G, race, "
                             "or T1-T3 (default: 5.13)")
    parser.add_argument("--jump-label", action="store_true",
                        help="enable CONFIG_JUMP_LABEL (blinds data-flow "
                             "analysis to static keys, §6.1)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run a full campaign")
    run.add_argument("--corpus-size", type=int, default=150)
    run.add_argument("--corpus-dir", help="load the corpus from a directory")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--strategy", default="df-ia",
                     choices=["df-ia", "df-st-1", "df-st-2", "df", "rand"])
    run.add_argument("--rand-budget", type=int)
    run.add_argument("--workers", type=int, default=None,
                     help="forked execution shards (and profiling "
                          "threads; see docs/SHARDING.md): omit for "
                          "in-process execution, 0 for auto "
                          "(os.cpu_count(), clamped to the job count), "
                          "N for an explicit pool size")
    run.add_argument("--nondet-cache", help="directory for non-det marks")
    run.add_argument("--profile-cache", metavar="DIR",
                     help="directory for the sharded on-disk profile "
                          "cache (reused across campaigns on the same "
                          "kernel fingerprint)")
    run.add_argument("--index-dir", metavar="DIR",
                     help="keep the pairing index's run segments under "
                          "DIR instead of a private temp directory "
                          "(see docs/CORPUS.md)")
    run.add_argument("--faults", metavar="SEED[:RATE[:SITES]]",
                     type=FaultPlan.parse,
                     help="chaos fault injection, e.g. 7:0.2 or "
                          "7:0.2:worker.kill,exec.timeout "
                          "(see docs/FAULTS.md)")
    run.add_argument("--store", metavar="DIR",
                     help="durable campaign store: write-ahead journal "
                          "every result as it lands and publish the "
                          "final result document "
                          "(see docs/CAMPAIGN_STORE.md)")
    run.add_argument("--resume", action="store_true",
                     help="replay the journal under --store and "
                          "re-execute only the pairs it does not cover "
                          "(requires an identical result-affecting "
                          "configuration)")
    run.add_argument("--hang-timeout", type=float, metavar="SECONDS",
                     help="self-healing watchdog: SIGKILL an execution "
                          "shard that reports nothing (no boot message, "
                          "no job result) for this long, and retry its "
                          "job elsewhere")
    run.add_argument("--interleave", action="store_true",
                     help="controlled-concurrency mode: re-run passing "
                          "pairs under deterministically scheduled "
                          "interleavings to expose race-only interference "
                          "(see docs/SCHEDULING.md)")
    run.add_argument("--schedule-strategy", default="pct",
                     choices=["pct", "sys", "rand"],
                     help="how preemption points are chosen: PCT-style "
                          "random priority points, systematic "
                          "enumeration, or per-event coin flips")
    run.add_argument("--schedule-budget", type=int, default=24,
                     help="schedules explored per candidate pair")
    run.add_argument("--schedule-seed", type=int, default=11,
                     help="schedule RNG seed (part of every ScheduleId)")
    run.add_argument("--schedule-depth", type=int, default=3,
                     help="preemption points per schedule (PCT d)")
    run.add_argument("--schedule-points", default="kfunc",
                     choices=["kfunc", "syscall"],
                     help="preemption granularity: every traced kernel "
                          "function boundary, or syscall boundaries only")
    run.add_argument("--schedule-pairs", type=int, default=0,
                     help="only interleave pairs matching the top-N "
                          "static race candidates (0 = all pairs)")
    run.add_argument("--no-sender-cache", action="store_true",
                     help="disable post-sender state memoization "
                          "(re-execute every sender from the snapshot, "
                          "diagnosis re-runs included)")
    run.add_argument("--reports", action="store_true",
                     help="print every report in full")
    run.add_argument("--save", help="write the campaign result to a JSON file")
    run.add_argument("--minimize", action="store_true",
                     help="print a minimal verified reproducer per report")
    run.add_argument("--markdown",
                     help="write a human-readable campaign report (md)")
    run.add_argument("--verbose", action="store_true")
    run.set_defaults(handler=cmd_run)

    inspect = subparsers.add_parser(
        "inspect", help="reload and summarize a campaign result document "
                        "(run --save, or a store's result.json)")
    inspect.add_argument("campaign")
    inspect.add_argument("--reports", action="store_true")
    inspect.set_defaults(handler=cmd_inspect)

    coverage = subparsers.add_parser("coverage",
                                     help="profile a corpus and report kernel "
                                          "coverage")
    coverage.add_argument("--corpus-size", type=int, default=100)
    coverage.add_argument("--seed", type=int, default=1)
    coverage.set_defaults(handler=cmd_coverage)

    known = subparsers.add_parser("known-bugs",
                                  help="reproduce Table-3 scenarios")
    known.add_argument("bugs", nargs="*", help="scenario ids (default: all)")
    known.set_defaults(handler=cmd_known_bugs)

    compare = subparsers.add_parser("compare",
                                    help="compare generation strategies")
    compare.add_argument("--corpus-size", type=int, default=120)
    compare.add_argument("--seed", type=int, default=1)
    compare.set_defaults(handler=cmd_compare)

    corpus = subparsers.add_parser(
        "corpus",
        help="manage corpus directories: 'corpus gen DIR' streams a "
             "generation run to disk, 'corpus stats DIR' summarizes one")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_gen = corpus_sub.add_parser(
        "gen", help="stream a deterministic, resumable generation run "
                    "into DIR")
    corpus_gen.add_argument("directory", metavar="DIR")
    corpus_gen.add_argument("--corpus-size", type=int, default=200)
    corpus_gen.add_argument("--seed", type=int, default=1)
    corpus_gen.add_argument("--dedup", action="store_true",
                            help="drop programs whose static access map "
                                 "adds no new (location, r/w) coverage "
                                 "fact")
    corpus_gen.add_argument("--diversify", action="store_true",
                            help="mine admitted programs' syscall profiles "
                                 "and generate focused programs for unused "
                                 "syscalls")
    corpus_gen.set_defaults(handler=_corpus_gen)
    corpus_stats = corpus_sub.add_parser(
        "stats", help="stream a corpus directory and summarize it")
    corpus_stats.add_argument("directory", metavar="DIR")
    corpus_stats.set_defaults(handler=_corpus_stats)

    spec = subparsers.add_parser("spec",
                                 help="print the default protected-resource "
                                      "specification")
    spec.set_defaults(handler=cmd_spec)

    gate = subparsers.add_parser("gate",
                                 help="diff campaigns across two kernel "
                                      "presets and fail on new interference")
    gate.add_argument("before", help="baseline kernel preset")
    gate.add_argument("after", help="candidate kernel preset")
    gate.add_argument("--corpus-size", type=int, default=100)
    gate.add_argument("--seed", type=int, default=1)
    gate.set_defaults(handler=cmd_gate)

    analyze = subparsers.add_parser("analyze",
                                    help="static interference analysis: "
                                         "access maps, escape lint, race "
                                         "candidates")
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable report")
    analyze.add_argument("--rediscover", action="store_true",
                         help="differentially lint every single-bug kernel")
    analyze.add_argument("--races", action="store_true",
                         help="join lockset-annotated access maps into "
                              "ranked race-pair candidates (R0 crosses a "
                              "namespace boundary)")
    analyze.add_argument("--no-cache", action="store_true",
                         help="disable the incremental analysis cache")
    analyze.add_argument("--cache-dir",
                         help="analysis cache directory (default: "
                              ".kit-analysis-cache at the repo root)")
    analyze.add_argument("--check", action="store_true",
                         help="CI gate: clean kernel lints clean, bugs "
                              "rediscovered")
    analyze.add_argument("--output", help="write the report to a file")
    analyze.add_argument("--verbose", action="store_true",
                         help="include the full access map")
    analyze.set_defaults(handler=cmd_analyze)

    syscalls = subparsers.add_parser("syscalls",
                                     help="document the declared syscall "
                                          "surface")
    syscalls.add_argument("--output", help="write to a file instead of stdout")
    syscalls.set_defaults(handler=cmd_syscalls)

    store = subparsers.add_parser("store",
                                  help="inspect a durable campaign store")
    store.add_argument("store", metavar="DIR",
                       help="the --store directory to inspect")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser("ls", help="list campaigns and status")
    store_ls.set_defaults(handler=cmd_store)
    store_show = store_sub.add_parser("show",
                                      help="show one campaign in detail")
    store_show.add_argument("campaign", help="campaign id (store ls)")
    store_show.set_defaults(handler=cmd_store)

    repro = subparsers.add_parser("repro",
                                  help="replay a campaign's culprit "
                                       "schedules and verify byte parity")
    repro.add_argument("store", metavar="DIR",
                       help="the --store directory the campaign ran under")
    repro.add_argument("campaign", help="campaign id (store ls)")
    repro.add_argument("--case", metavar="SUBSTR",
                       help="only replay case keys containing this "
                            "substring")
    repro.set_defaults(handler=cmd_repro)

    show = subparsers.add_parser("show",
                                 help="decode and execute one .prog file")
    show.add_argument("program")
    show.set_defaults(handler=cmd_show)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
