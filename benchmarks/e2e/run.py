"""Run the end-to-end campaign benchmark.

Report mode (all workloads, K untraced repetitions plus one traced)::

    python -m benchmarks.e2e.run [--seed S] [--repeats K] [--workload W]
                                 [--trace [0|1]] [--run NAME]

prints every metric with its unit as a median with quartiles over K,
checks the outcomes, and writes ``results/BENCH_e2e_<NAME>.json`` and
``results/section65.txt``.  It exits non-zero if any check fails.

Timed mode (one workload, for a fixed measuring time)::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

repeats the workload until about N seconds have passed and prints, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and the ``BENCHMARK.json`` metrics (end-to-end with
``--trace 0``, per-layer with ``--trace 1``), each a median over the
repetitions.

Every repetition runs in a fresh child process, one at a time.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    # Run as a script: the package root replaces this file's directory
    # (whose trace.py would shadow the standard library's).
    sys.path[0] = str(ROOT)

from benchmarks.e2e import metrics, section65  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
RESULTS = HERE / "results"
WORK = HERE / ".work"
#: A repetition takes under 10 s on the reference host; a timed run
#: must still end within 180 s if one hangs.
REP_TIMEOUT_S = 60
#: Timed mode's floor on repetitions, whatever --seconds says.
MIN_REPS = 3


class RepetitionFailed(RuntimeError):
    pass


# -- child processes ------------------------------------------------------------


def _become_subreaper() -> None:
    """Adopt orphaned grandchildren (shm resource trackers) to reap them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: the group wait below still bounds the run


def _reap_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait until every process of a repetition's group has ended."""
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        while True:
            try:
                pid, __ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if killed:
                raise RepetitionFailed(f"process group {pgid} did not exit")
            os.killpg(pgid, signal.SIGKILL)
            killed, deadline = True, time.monotonic() + 5.0
        time.sleep(0.01)


def run_repetition(workload: str, seed: int, traced: bool,
                   work_dir: Path) -> dict:
    """One repetition in a fresh child process; returns its record."""
    tmp = work_dir / f"rep-{time.monotonic_ns()}"
    tmp.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    command = [sys.executable, str(CHILD), "--workload", workload,
               "--seed", str(seed), "--trace", "1" if traced else "0"]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        try:
            out, err = proc.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RepetitionFailed(f"{workload} seed {seed}: timed out")
        finally:
            _reap_group(proc.pid)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise RepetitionFailed(
            f"{workload} seed {seed}: exit {proc.returncode}\n{tail}")
    return json.loads(out.strip().splitlines()[-1])


# -- checks -----------------------------------------------------------------------


def outcome_key(record: dict):
    """What must repeat exactly: outcome histogram and bug set."""
    return (sorted(record["stats"]["outcomes"].items()),
            tuple(record["bugs"]))


def check(workload: Workload, seed: int, untraced: List[dict],
          traced: Sequence[dict]) -> List[str]:
    """Determinism, tracer transparency, pins and accounting."""
    name = workload.name
    problems: List[str] = []
    first = untraced[0]
    for index, record in enumerate(untraced[1:], start=2):
        if outcome_key(record) != outcome_key(first):
            problems.append(f"{name}: repetition {index} differs from 1: "
                            f"{outcome_key(record)} != {outcome_key(first)}")
    for record in traced:
        if outcome_key(record) != outcome_key(first):
            problems.append(f"{name}: traced outcomes differ: "
                            f"{outcome_key(record)} != {outcome_key(first)}")
        negative = [span for span, data in record["spans"].items()
                    if data["self_s"] < 0]
        if negative:
            problems.append(f"{name}: negative self time in {negative}")
    for record in (*untraced, *traced):
        stats = record["stats"]
        if metrics.failed_cases(record):
            problems.append(f"{name}: {metrics.failed_cases(record)} cases "
                            "failed (infra_failed or poisoned)")
        if sum(stats["outcomes"].values()) != stats["cases_total"]:
            problems.append(f"{name}: outcomes do not sum to cases_total")
        if workload.stored and record["journal_cases"] != stats["cases_total"]:
            problems.append(f"{name}: {record['journal_cases']} journaled "
                            f"case records for {stats['cases_total']} cases")
    pin = workload.pins.get(seed)
    if pin is not None:
        stats = first["stats"]
        for label, want, got in (
                ("cases", pin.cases, stats["cases_total"]),
                ("reports", pin.reports, first["reports"]),
                ("bugs", pin.bugs, frozenset(first["bugs"])),
                ("outcomes", pin.outcomes, stats["outcomes"])):
            if want is not None and want != got:
                problems.append(f"{name} seed {seed}: {label} {got} "
                                f"!= pinned {want}")
    return problems


# -- statistics ---------------------------------------------------------------------


def describe(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    values = list(samples)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


# -- report mode ------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if abs(value) >= 1000 or float(value).is_integer():
        return f"{value:,.0f}"
    return f"{value:.4g}"


def summarize_workload(workload: Workload, seed: int, untraced: List[dict],
                       traced_runs: List[dict]) -> dict:
    cpus = os.cpu_count() or 1
    samples: Dict[str, List[float]] = {}
    for record in untraced:
        for name, value in metrics.end_to_end(record).items():
            samples.setdefault(name, []).append(value)
    end_to_end = {}
    for metric in metrics.END_TO_END:
        cell = {"unit": metric.unit}
        if workload.sharded and cpus < 2 and metric.unit in metrics.TIME_UNITS:
            cell["value"] = f"unmeasured ({cpus} cpu)"
        else:
            cell.update(describe(samples[metric.name]))
        end_to_end[metric.name] = cell
    per_layer = {}
    if traced_runs:
        values = metrics.per_layer(
            metrics.Runs(workload, untraced, traced_runs[0]), cpus)
        per_layer = {metric.name: {"unit": metric.unit,
                                   "value": values[metric.name]}
                     for metric in metrics.PER_LAYER}
    first = untraced[0]
    return {
        "cases_total": first["stats"]["cases_total"],
        "reports": first["reports"],
        "bugs": first["bugs"],
        "outcomes": first["stats"]["outcomes"],
        "journal_cases": first["journal_cases"],
        "traced_campaign_s": (traced_runs[0]["campaign_s"]
                              if traced_runs else None),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "problems": check(workload, seed, untraced, traced_runs),
    }


def print_workload(name: str, seed: int, data: dict) -> None:
    problems = data["problems"]
    print(f"\n{name} (seed {seed}): {data['cases_total']:,} cases, "
          f"{data['reports']:,} reports, bugs {','.join(data['bugs'])}; "
          f"checks {'FAILED' if problems else 'ok'}")
    print(f"  {'end-to-end':<38} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'n':>3}  unit")
    for metric, cell in data["end_to_end"].items():
        if isinstance(cell.get("value"), str):
            print(f"  {metric:<38} {cell['value']:>42}  {cell['unit']}")
            continue
        print(f"  {metric:<38} {_fmt(cell['median']):>12} "
              f"{_fmt(cell['q1']):>12} {_fmt(cell['q3']):>12} "
              f"{cell['n']:>3}  {cell['unit']}")
    if data["per_layer"]:
        print(f"  {'per-layer (traced repetition)':<38} {'value':>12}")
        for metric, cell in data["per_layer"].items():
            print(f"  {metric:<38} {_fmt(cell['value']):>12}  {cell['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def report_mode(args, work_dir: Path) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = args.trace != 0
    result = {
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "repeats": args.repeats,
        "traced": traced,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "glossary": metrics.glossary(),
        "workloads": {},
    }
    # Round-robin over workloads, so each workload's samples span the
    # whole run and host-speed drift shows as spread, not as a shift.
    untraced: Dict[str, List[dict]] = {name: [] for name in names}
    for __ in range(args.repeats):
        for name in names:
            untraced[name].append(
                run_repetition(name, args.seed, False, work_dir))
    problems: List[str] = []
    for name in names:
        traced_runs = ([run_repetition(name, args.seed, True, work_dir)]
                       if traced else [])
        data = summarize_workload(WORKLOADS[name], args.seed,
                                  untraced[name], traced_runs)
        result["workloads"][name] = data
        print_workload(name, args.seed, data)
        problems += data["problems"]
    ran = result["workloads"]
    if "df-exec-200" in ran and "stored-shards-200" in ran \
            and ran["df-exec-200"]["outcomes"] \
            != ran["stored-shards-200"]["outcomes"]:
        problems.append("stored-shards-200 outcomes differ from df-exec-200")
    result["problems"] = problems
    RESULTS.mkdir(exist_ok=True)
    run_name = args.run or datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = RESULTS / f"BENCH_e2e_{run_name}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    table = section65.render(result)
    (RESULTS / "section65.txt").write_text(table)
    print(f"\n{table}\nwritten {path.relative_to(ROOT)} and "
          f"{(RESULTS / 'section65.txt').relative_to(ROOT)}")
    if problems:
        print(f"{len(problems)} check(s) failed", file=sys.stderr)
        return 1
    return 0


# -- timed mode ---------------------------------------------------------------------


def timed_mode(args, work_dir: Path) -> int:
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = args.trace == 1
    # Traced runs alternate untraced and traced repetitions: per-layer
    # stats and the tracer overhead both need the untraced ones.
    cycle = (False, True) if traced else (False,)
    untraced: List[dict] = []
    traced_runs: List[dict] = []
    floor = 2 if traced else MIN_REPS
    start = time.monotonic()
    rounds = 0
    while True:
        for flag in cycle:
            record = run_repetition(workload.name, args.seed, flag, work_dir)
            (traced_runs if flag else untraced).append(record)
        rounds += 1
        elapsed = time.monotonic() - start
        # Stop before a round that would overrun the measuring time.
        if rounds >= floor and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    problems = check(workload, args.seed, untraced, traced_runs)
    if traced:
        names = [entry["name"] for entry in spec["per_layer"]]
        per_rep = [metrics.per_layer(metrics.Runs(workload, untraced, record),
                                     os.cpu_count() or 1)
                   for record in traced_runs]
        values = {name: [rep[name] for rep in per_rep] for name in names}
        units = {m.name: m.unit for m in metrics.PER_LAYER}
    else:
        names = [entry["name"] for entry in spec["end_to_end"]]
        per_rec = [metrics.end_to_end(record) for record in untraced]
        values = {name: [rep[name] for rep in per_rec] for name in names}
        units = {m.name: m.unit for m in metrics.END_TO_END}
    out = {}
    for name in names:
        samples = values[name]
        if any(isinstance(sample, str) for sample in samples):
            raise RepetitionFailed(f"{name} on {workload.name}: {samples[0]}")
        out[name] = {"value": statistics.median(samples), "unit": units[name]}
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["stats"]["cases_total"]
                         for r in (*untraced, *traced_runs)),
        "failed": sum(metrics.failed_cases(r)
                      for r in (*untraced, *traced_runs)),
        "metrics": out,
    }))
    return 1 if problems else 0


# -- entry point ------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]] = None):
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer KIT campaign benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all; required with "
                             "--seconds)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced repetitions per workload (report mode)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        choices=(0, 1), default=None,
                        help="report mode: add the traced repetition "
                             "(default 1); timed mode: report per-layer "
                             "metrics (1) or end-to-end metrics (0)")
    parser.add_argument("--seconds", type=float,
                        help="timed mode: measure about this long")
    parser.add_argument("--run", help="report mode: results file name "
                                      "(default: UTC timestamp)")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.workload is None:
        parser.error("--seconds needs --workload")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    _become_subreaper()
    work_dir = WORK / str(os.getpid())
    try:
        if args.seconds is not None:
            return timed_mode(args, work_dir)
        return report_mode(args, work_dir)
    except RepetitionFailed as error:
        print(f"repetition failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
