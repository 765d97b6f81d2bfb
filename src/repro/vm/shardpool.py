"""The multiprocess shard pool: shared-nothing workers, stolen ranges.

KIT "can run distributed tests… When running in server mode, KIT exposes
several RPC services to clients to distribute VM snapshots, transfer
test cases, and collect test results" (§5.2), and runs every test case
on its own VM with no state shared between VMs (§6.5).  This module is
that job protocol across *processes*.  Each shard is forked from the
supervisor, boots its own :class:`~repro.vm.machine.Machine` (from the
shared-memory base snapshot when one is provided), and owns a
contiguous, affinity-ordered *range* of the round's jobs instead of
pulling from a single queue.

Work stealing
-------------

A single shared queue would serialize shards on a lock; static ranges
alone would strand a fast shard while a slow one drags its tail.  The
dispatcher splits the difference with victim-acknowledged stealing:

1. A shard that exhausts its range reports ``idle``.
2. The supervisor picks the victim with the most unfinished jobs and
   sends it a ``steal`` request (at most one outstanding per victim).
3. The victim — the only authority on its own cursor — answers at its
   next job boundary with the tail half of its remaining range (possibly
   empty), which the supervisor grants to the thief.

The split is at job-range granularity and never includes the victim's
in-flight job, so a job runs on exactly one shard per round and the
inverse-permutation merge by job id stays byte-deterministic regardless
of who executed what.

Supervision
-----------

The supervisor runs in *rounds*: shards run until they exit, the
supervisor settles the round (a dead shard's *held* job is charged a
failed attempt, the rest of its range re-queued uncharged), and fresh
worker ids are spawned for whatever remains, so cache-owner tags never
alias across a death.  Only a job that exhausts its retry budget fails
the run: loudly (a ``RuntimeError`` naming every unfinished job) under
``strict``, or gracefully (a ``JobResult`` carrying the error, for the
pipeline to record as ``infra_failed``) otherwise.  Jobs are pure
functions of (payload, snapshot), so a re-run on a fresh machine is
equivalent to the first attempt.

Process death is observed via ``multiprocessing.connection.wait`` on
the process sentinels, so a SIGKILLed shard — the ``worker.kill`` chaos
site announces itself, then kills its own process — is detected without
polling.  Fault accounting crosses the process boundary as counter
*deltas* shipped in each shard's final message; a shard that dies
silently loses only locally-balanced counters, so the campaign
invariant ``injected == recovered + infra_failed`` holds regardless.
Four chaos injection sites live in this layer (``worker.crash``,
``worker.slow``, ``worker.kill``, ``result.drop``); see
:mod:`repro.faults.plan`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from multiprocessing.connection import wait as _wait_ready

from ..faults.plan import (
    SITE_RESULT_DROP,
    SITE_WORKER_CRASH,
    SITE_WORKER_KILL,
    SITE_WORKER_SLOW,
    FaultPlan,
    WorkerCrashInjected,
)
from ..faults.retry import (
    CAUSE_TRANSIT,
    CAUSE_WORKER_DEATH,
    RetryPolicy,
    describe_failures,
    tally,
)
from .machine import Machine, MachineConfig


def affinity_order(keys: List[Any]) -> List[int]:
    """Schedule permutation grouping equal affinity keys adjacently.

    Returns the job order (a permutation of ``range(len(keys))``) that
    sorts by *keys* with ties broken **by original index** — the
    tie-break is explicit in the sort key, not an artifact of sort
    stability, so equal-key payloads can never be reordered between
    runs and the inverse permutation (``results[order[i]] = ...``)
    always reproduces the caller's original order deterministically.

    The pipeline uses two-level keys ``(sender hash, receiver hash)``:
    the major level lands every test case sharing a sender in one
    consecutive batch (so a shard's first case populates the sender
    state cache and the rest of the batch hits it), and the minor level
    clusters shared receivers within the batch for the baseline and
    non-determinism caches.
    """
    return sorted(range(len(keys)), key=lambda i: (keys[i], i))


@dataclass
class Job:
    """One unit of distributed work, with its retry ledger."""

    job_id: int
    payload: Any
    #: Failed attempts so far (dead shard, dropped result).
    failures: int = 0
    #: Injected-fault sites charged to this job, pending resolution:
    #: recovered when a result finally lands, infra on exhaustion.
    pending_sites: List[str] = field(default_factory=list)
    #: Failed attempts attributed per cause (fault site or the
    #: synthetic worker-death / transit causes) — the retry-policy and
    #: error-message ledger; survives pending-site resolution.
    site_failures: Dict[str, int] = field(default_factory=dict)
    #: Shards this job took down with it (crash, SIGKILL, watchdog
    #: kill); reaching the policy's ``poison_after`` quarantines it.
    worker_deaths: int = 0
    #: Cause charged by the most recent failed attempt.
    last_cause: Optional[str] = None
    #: Set for the current settlement when a dead shard held this job.
    death_attributed: bool = field(default=False, repr=False)


@dataclass
class JobResult:
    """A completed (or finally failed) job."""

    job_id: int
    outcome: Any
    worker: int
    error: Optional[str] = None
    #: Failed attempts the job survived before this result (or before
    #: exhausting its budget).
    attempts: int = 0
    #: The cause charged by the last failed attempt, when any.
    last_fault_site: Optional[str] = None
    #: The job was quarantined as a poison pair: it killed its shard
    #: once too often and will never be retried again.
    poisoned: bool = False


#: Occurrence key for worker-site decisions inside a shard is
#: ``job_id + attempt * _ATTEMPT_STRIDE``: globally deterministic (no
#: per-process counter stream), unique per (job, retry attempt), and a
#: retried job draws a fresh decision so scheduled faults fire once.
_ATTEMPT_STRIDE = 1_000_003


def fork_available() -> bool:
    """Process shards need ``fork`` (closures cross via inherited memory)."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover
        return False


@dataclass
class ShardRunReport:
    """Everything one ``run_sharded`` call produced."""

    #: Results ordered by job id (inverse-permutation merge input).
    results: List[JobResult] = field(default_factory=list)
    #: One entry per cleanly-retired shard: whatever the caller's
    #: ``telemetry_hook(machine)`` returned in that shard process.
    telemetry: List[Any] = field(default_factory=list)
    steals_attempted: int = 0
    steals_granted: int = 0
    jobs_stolen: int = 0
    rounds: int = 0
    shards_spawned: int = 0
    shards_died: int = 0
    #: Worker ids of shards the heartbeat watchdog SIGKILLed (they went
    #: silent, or sat on one job, longer than ``hang_timeout``).  Hung
    #: shards also count in ``shards_died``.
    hung_shards: List[int] = field(default_factory=list)
    #: Shared-segment names announced by shards that later died; the
    #: supervisor passed each batch to ``on_owner_segments``.
    retired_segments: List[str] = field(default_factory=list)


def _stats_delta(faults: Optional[FaultPlan],
                 base: Optional[Tuple[Dict[str, int], ...]]
                 ) -> Optional[Tuple[Dict[str, int], ...]]:
    """Per-site counter growth in this process since *base*."""
    if faults is None or base is None:
        return None
    now = faults.stats.snapshot()
    return tuple(
        {site: count - earlier.get(site, 0)
         for site, count in current.items()
         if count - earlier.get(site, 0)}
        for current, earlier in zip(now, base)
    )


def _merge_stats_delta(faults: Optional[FaultPlan],
                       delta: Optional[Tuple[Dict[str, int], ...]]) -> None:
    if faults is None or delta is None:
        return
    if len(delta) == 4:
        injected, recovered, infra, poisoned = delta
    else:  # a 3-column delta from an older shard snapshot shape
        injected, recovered, infra = delta
        poisoned = None
    faults.stats.merge_delta(injected, recovered, infra, poisoned)


def _shard_main(worker_id: int, ctrl, out, boot: Callable[[], Machine],
                round_jobs: Sequence[Tuple[int, Any]],
                case_runner: Callable[[Machine, Any], Any],
                faults: Optional[FaultPlan],
                telemetry_hook: Optional[Callable[[Machine], Any]],
                published_names: Optional[Callable[[], List[str]]],
                flush_hook: Optional[Callable[[], None]],
                start: int, end: int,
                heartbeat_interval: Optional[float] = None) -> None:
    """One shard process: run ranges, answer steals, report, retire.

    All messages go child -> parent on *out*; the parent commands via
    *ctrl* (``("steal", id)``, ``("range", start, end)``, ``("stop",)``).
    Ranges index into *round_jobs*, the round-local job list inherited
    through fork.  *flush_hook* runs before the final stats delta is
    computed on every messaged exit (done and fatal alike), so
    shard-local recovery paths — e.g. purging stale-tagged cache
    entries — settle their books before they are shipped.

    With a *heartbeat_interval*, a background thread sends
    ``("hb", worker_id, held_index)`` on that cadence after boot — the
    supervisor's watchdog input.  The heartbeat thread shares *out* with
    the main thread, so every send goes through one lock: pipe writes
    from two threads must never interleave mid-message.
    """
    names = published_names or (lambda: [])
    base = faults.stats.snapshot() if faults is not None else None
    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        with send_lock:
            out.send(message)

    def flush() -> None:
        if flush_hook is not None:
            try:
                flush_hook()
            except Exception:  # pragma: no cover - best-effort settle
                pass
    try:
        machine = boot()
    except Exception as error:
        send(("fatal", worker_id, None,
              f"{type(error).__name__}: {error}", [],
              _stats_delta(faults, base), names()))
        return
    machine.cluster_worker_id = worker_id
    cursor, limit = start, end
    held: Optional[int] = None
    stopping = False

    if heartbeat_interval is not None:
        beat_stop = threading.Event()

        def beat() -> None:
            while not beat_stop.wait(heartbeat_interval):
                try:
                    send(("hb", worker_id, held))
                except (BrokenPipeError, OSError):
                    return

        threading.Thread(target=beat, name=f"kit-shard-{worker_id}-hb",
                         daemon=True).start()

    def handle(command: tuple) -> bool:
        """Apply one control message; False means stop."""
        nonlocal cursor, limit
        kind = command[0]
        if kind == "steal":
            remaining = limit - cursor
            give = remaining // 2
            send(("steal_ack", worker_id, command[1],
                  limit - give, limit))
            limit -= give
            return True
        if kind == "range":
            cursor, limit = command[1], command[2]
            return True
        return False  # "stop"

    try:
        while True:
            while ctrl.poll():
                if not handle(ctrl.recv()):
                    stopping = True
                    break
            if stopping:
                break
            if cursor >= limit:
                send(("idle", worker_id, names()))
                while cursor >= limit:
                    if not handle(ctrl.recv()):
                        stopping = True
                        break
                if stopping:
                    break
                continue
            index = cursor
            held = index
            job_id, payload, attempt = round_jobs[index]
            if faults is not None:
                occurrence = job_id + attempt * _ATTEMPT_STRIDE
                if faults.fires_at(SITE_WORKER_SLOW, occurrence):
                    faults.stats.note_injected(SITE_WORKER_SLOW)
                    time.sleep(faults.slow_seconds)
                    faults.record_recovered([SITE_WORKER_SLOW])
                if faults.fires_at(SITE_WORKER_CRASH, occurrence):
                    faults.stats.note_injected(SITE_WORKER_CRASH)
                    raise WorkerCrashInjected(
                        f"injected crash on shard {worker_id} "
                        f"holding job {job_id}")
                if faults.fires_at(SITE_WORKER_KILL, occurrence):
                    # Announce, flush, die: the supervisor accounts the
                    # injection (this process's counters die with it)
                    # and charges exactly the announced job.
                    send(("killing", worker_id, index, names()))
                    os.kill(os.getpid(), signal.SIGKILL)
            try:
                outcome = case_runner(machine, payload)
                error = None
            except Exception as failure:  # defensive: report, keep shard
                outcome = None
                error = f"{type(failure).__name__}: {failure}"
            send(("result", worker_id, index, outcome, error, names()))
            held = None
            cursor += 1
    except WorkerCrashInjected as error:
        flush()
        send(("fatal", worker_id, held,
              f"{type(error).__name__}: {error}", [SITE_WORKER_CRASH],
              _stats_delta(faults, base), names()))
        return
    except BaseException as error:  # genuine shard death
        flush()
        send(("fatal", worker_id, held,
              f"{type(error).__name__}: {error}", [],
              _stats_delta(faults, base), names()))
        return
    flush()
    telemetry = telemetry_hook(machine) if telemetry_hook is not None else None
    send(("done", worker_id, telemetry,
          _stats_delta(faults, base), names()))


@dataclass
class _Shard:
    """Supervisor-side state of one live shard process."""

    worker_id: int
    proc: Any
    ctrl: Any
    out: Any
    #: Round-local indices granted and not yet executed, in order.
    remaining: List[int]
    state: str = "running"  # running | waiting | granted | stopping
    booted: bool = False
    steal_pending: bool = False
    exit_kind: Optional[str] = None  # done | fatal | killed | died | hung
    fatal_error: Optional[str] = None
    held_index: Optional[int] = None
    pending_sites: List[str] = field(default_factory=list)
    published: List[str] = field(default_factory=list)
    telemetry: Any = None
    #: Watchdog inputs: time of the last message received from this
    #: shard, and how long it has reported the same held job.
    last_message: float = 0.0
    last_held: Optional[int] = None
    held_since: float = 0.0


def run_sharded(machine_config: MachineConfig, payloads: Sequence[Any],
                case_runner: Callable[[Machine, Any], Any],
                workers: int = 2, *,
                boot: Optional[Callable[[], Machine]] = None,
                faults: Optional[FaultPlan] = None,
                max_job_retries: int = 0,
                strict: bool = True,
                on_worker_death: Optional[Callable[[int], None]] = None,
                on_owner_segments: Optional[Callable[[List[str]],
                                                     None]] = None,
                telemetry_hook: Optional[Callable[[Machine], Any]] = None,
                published_names: Optional[Callable[[],
                                                   List[str]]] = None,
                flush_hook: Optional[Callable[[], None]] = None,
                retry_policy: Optional[RetryPolicy] = None,
                hang_timeout: Optional[float] = None,
                on_result: Optional[Callable[[Job, JobResult],
                                             None]] = None,
                on_job_failure: Optional[Callable[[Job, str],
                                                  None]] = None,
                prior_deaths: Optional[Dict[int, int]] = None
                ) -> ShardRunReport:
    """Run *payloads* through *case_runner* on a process shard pool.

    Returns results ordered by job id, so the output is independent of
    which shard ran what.  The pool is clamped to the number of jobs.
    When shards die before their ranges drain, the held jobs are
    charged a failed attempt and re-queued up to *max_job_retries*
    times on replacement shards with fresh ids.  *on_worker_death* is
    called with each dead shard's id as soon as its round settles —
    the hook for invalidating cache entries the dead shard owned.  Only
    a job whose retries are exhausted fails the run: with *strict* (the
    default) a ``RuntimeError`` names every unfinished job with its
    attempt count and last cause; with ``strict=False`` the job's
    ``JobResult`` carries the error instead.  Extra hooks:

    * *boot* builds each shard's machine inside the shard process
      (default: ``Machine(machine_config)``; the pipeline passes a
      shared-snapshot boot closure).
    * *telemetry_hook* runs in the shard at clean retirement; its
      (picklable) return value lands in ``report.telemetry``.
    * *published_names* is polled in the shard for shared-segment names
      it published since last poll; *on_owner_segments* receives a dead
      shard's announced names so the caller can unlink them (the
      shared-tier owner invalidation).

    Self-healing extensions: *retry_policy* (per-cause budgets,
    backoff, poison quarantine; see
    :class:`~repro.faults.retry.RetryPolicy`), *hang_timeout* (shards
    heartbeat every ``hang_timeout / 4`` seconds; one silent — or stuck
    on the same held job — longer than the timeout is SIGKILLed and
    settled like any other dead shard, with its id recorded in
    ``report.hung_shards``), *on_result* / *on_job_failure* commit
    hooks, and *prior_deaths* (job id → shard deaths journaled by
    earlier runs) quarantine seeding for resumed campaigns.
    """
    report = ShardRunReport()
    payloads = list(payloads)
    if not payloads:
        return report
    if not fork_available():
        raise RuntimeError(
            "process shards require the fork start method; "
            "run the jobs in-process on this platform")
    ctx = multiprocessing.get_context("fork")
    boot = boot or (lambda: Machine(machine_config))
    jobs: Dict[int, Job] = {job_id: Job(job_id, payload)
                            for job_id, payload in enumerate(payloads)}
    if prior_deaths:
        # Worker deaths journaled by earlier (crashed) runs of the same
        # campaign keep counting toward quarantine.
        for job_id, deaths in prior_deaths.items():
            if job_id in jobs:
                jobs[job_id].worker_deaths = deaths
    heartbeat_interval = hang_timeout / 4 if hang_timeout else None
    completed: Dict[int, JobResult] = {}
    failed: Dict[int, JobResult] = {}
    pool_size = min(max(1, workers), len(jobs))
    next_worker_id = 0
    dead_descriptions: List[str] = []
    steal_seq = 0

    while True:
        outstanding = [job_id for job_id in sorted(jobs)
                       if job_id not in completed and job_id not in failed]
        if not outstanding:
            break
        round_jobs = [(job_id, jobs[job_id].payload, jobs[job_id].failures)
                      for job_id in outstanding]
        spawn = min(pool_size, len(round_jobs))
        report.rounds += 1
        report.shards_spawned += spawn
        shards: Dict[int, _Shard] = {}
        quotient, remainder = divmod(len(round_jobs), spawn)
        position = 0
        for slot in range(spawn):
            size = quotient + (1 if slot < remainder else 0)
            start, end = position, position + size
            position = end
            worker_id = next_worker_id
            next_worker_id += 1
            ctrl_recv, ctrl_send = ctx.Pipe(duplex=False)
            out_recv, out_send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_shard_main,
                args=(worker_id, ctrl_recv, out_send, boot, round_jobs,
                      case_runner, faults, telemetry_hook, published_names,
                      flush_hook, start, end, heartbeat_interval),
                name=f"kit-shard-{worker_id}", daemon=True)
            proc.start()
            # The parent's copies of the child-side ends must close so
            # the pipes belong to exactly one process each.
            ctrl_recv.close()
            out_send.close()
            now = time.monotonic()
            shards[worker_id] = _Shard(worker_id, proc, ctrl_send, out_recv,
                                       remaining=list(range(start, end)),
                                       last_message=now, held_since=now)

        dropped: set = set()
        waiting: List[int] = []
        #: steal id -> (thief, victim) worker ids, for grant routing.
        grants_pending: Dict[int, Tuple[int, int]] = {}

        def send_stop(shard: _Shard) -> None:
            if shard.state != "stopping" and shard.exit_kind is None:
                shard.state = "stopping"
                try:
                    shard.ctrl.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass

        def match_thieves() -> None:
            """Pair waiting thieves with the longest-running victims."""
            nonlocal steal_seq
            while waiting:
                potential = [s for s in shards.values()
                             if s.exit_kind is None and s.state == "running"
                             and len(s.remaining) >= 2]
                if not potential:
                    if grants_pending:
                        # A split is in flight; its ack may still feed
                        # the queue, so thieves keep waiting for it.
                        return
                    for thief_id in waiting:
                        send_stop(shards[thief_id])
                    waiting.clear()
                    return
                available = [s for s in potential if not s.steal_pending]
                if not available:
                    return  # all victims mid-split; acks re-match
                victim = max(available, key=lambda s: (len(s.remaining),
                                                       -s.worker_id))
                thief_id = waiting.pop(0)
                steal_seq += 1
                grants_pending[steal_seq] = (thief_id, victim.worker_id)
                victim.steal_pending = True
                shards[thief_id].state = "granted"
                report.steals_attempted += 1
                try:
                    victim.ctrl.send(("steal", steal_seq))
                except (BrokenPipeError, OSError):
                    victim.steal_pending = False
                    del grants_pending[steal_seq]
                    waiting.insert(0, thief_id)
                    return

        def handle_message(message: tuple) -> None:
            kind = message[0]
            shard = shards[message[1]]
            shard.last_message = time.monotonic()
            if kind == "hb":
                _, _worker_id, held = message
                shard.booted = True
                if held != shard.last_held:
                    shard.last_held = held
                    shard.held_since = shard.last_message
            elif kind == "result":
                _, worker_id, index, outcome, error, names = message
                shard.booted = True
                shard.published.extend(names)
                if index in shard.remaining:
                    shard.remaining.remove(index)
                if shard.last_held == index:
                    shard.last_held = None
                job_id = round_jobs[index][0]
                job = jobs[job_id]
                if faults is not None \
                        and faults.should_inject(SITE_RESULT_DROP):
                    # Lost in transit: the round settlement notices the
                    # gap and charges a failed attempt.
                    job.pending_sites.append(SITE_RESULT_DROP)
                    dropped.add(index)
                    return
                committed = None
                if job_id not in completed and job_id not in failed:
                    committed = JobResult(job_id, outcome, worker_id,
                                          error=error,
                                          attempts=job.failures,
                                          last_fault_site=job.last_cause)
                    completed[job_id] = committed
                if faults is not None and job.pending_sites:
                    faults.record_recovered(job.pending_sites)
                    job.pending_sites = []
                if committed is not None and on_result is not None:
                    on_result(job, committed)
            elif kind == "idle":
                _, worker_id, names = message
                shard.booted = True
                shard.published.extend(names)
                if shard.state in ("running", "granted"):
                    shard.state = "waiting"
                    waiting.append(worker_id)
                match_thieves()
            elif kind == "steal_ack":
                _, _worker_id, steal_id, give_start, give_end = message
                shard.steal_pending = False
                stolen = [index for index in range(give_start, give_end)
                          if index in shard.remaining]
                for index in stolen:
                    shard.remaining.remove(index)
                routed = grants_pending.pop(steal_id, None)
                thief = shards.get(routed[0]) if routed is not None else None
                if thief is not None and thief.exit_kind is None \
                        and stolen and thief.state == "granted":
                    thief.remaining = stolen
                    thief.state = "running"
                    report.steals_granted += 1
                    report.jobs_stolen += len(stolen)
                    try:
                        thief.ctrl.send(("range", give_start, give_end))
                    except (BrokenPipeError, OSError):
                        pass  # thief died: round settlement re-queues
                else:
                    if stolen:
                        # Thief vanished between request and grant: the
                        # jobs belong to no shard now; the settlement
                        # re-queues them uncharged.
                        pass
                    if thief is not None and thief.exit_kind is None:
                        thief.state = "waiting"
                        waiting.append(thief.worker_id)
                match_thieves()
            elif kind == "killing":
                _, worker_id, index, names = message
                shard.booted = True
                shard.published.extend(names)
                shard.exit_kind = "killed"
                shard.held_index = index
                shard.pending_sites = [SITE_WORKER_KILL]
                shard.fatal_error = (f"injected SIGKILL holding job "
                                     f"{round_jobs[index][0]}")
                if faults is not None:
                    # The shard's own counters die with it; the
                    # supervisor keeps the campaign ledger.
                    faults.stats.note_injected(SITE_WORKER_KILL)
            elif kind == "fatal":
                (_, _worker_id, held, error, pending, delta,
                 names) = message
                shard.published.extend(names)
                shard.exit_kind = "fatal"
                shard.fatal_error = error
                shard.held_index = held
                shard.pending_sites = list(pending)
                if held is not None:
                    shard.booted = True
                _merge_stats_delta(faults, delta)
            elif kind == "done":
                _, _worker_id, telemetry, delta, names = message
                shard.booted = True
                shard.published.extend(names)
                shard.exit_kind = "done"
                shard.telemetry = telemetry
                _merge_stats_delta(faults, delta)

        def finalize(shard: _Shard) -> None:
            if shard.exit_kind is None:
                shard.exit_kind = "died"
                shard.fatal_error = shard.fatal_error or \
                    f"process exited (code {shard.proc.exitcode})"
            if shard.worker_id in waiting:
                waiting.remove(shard.worker_id)
            if shard.steal_pending:
                # Its ack will never come; un-route the thief parked on
                # this victim so it can re-match or stop.
                shard.steal_pending = False
                for steal_id, (thief_id, victim_id) \
                        in list(grants_pending.items()):
                    if victim_id != shard.worker_id:
                        continue
                    thief = shards.get(thief_id)
                    del grants_pending[steal_id]
                    if thief is not None and thief.exit_kind is None \
                            and thief.state == "granted":
                        thief.state = "waiting"
                        waiting.append(thief_id)

        def watchdog_sweep(live: Dict[int, _Shard]) -> None:
            """SIGKILL shards that stopped beating or sat on one job."""
            now = time.monotonic()
            for shard in live.values():
                if shard.exit_kind is not None:
                    continue
                silent = now - shard.last_message
                stuck = (now - shard.held_since
                         if shard.last_held is not None else 0.0)
                if silent <= hang_timeout and stuck <= hang_timeout:
                    continue
                shard.exit_kind = "hung"
                shard.held_index = shard.last_held
                if stuck > hang_timeout:
                    shard.fatal_error = (
                        f"hung: shard {shard.worker_id} stuck on job "
                        f"{round_jobs[shard.last_held][0]} for "
                        f"{stuck:.3f}s (> {hang_timeout:.3f}s watchdog)")
                else:
                    shard.fatal_error = (
                        f"hung: shard {shard.worker_id} silent for "
                        f"{silent:.3f}s (> {hang_timeout:.3f}s watchdog)")
                report.hung_shards.append(shard.worker_id)
                try:
                    shard.proc.kill()
                except (OSError, AttributeError):  # pragma: no cover
                    pass

        live: Dict[int, _Shard] = dict(shards)
        poll_timeout = hang_timeout / 4 if hang_timeout else None
        while live:
            by_conn = {shard.out: shard for shard in live.values()}
            by_sentinel = {shard.proc.sentinel: shard
                           for shard in live.values()}
            ready = _wait_ready(list(by_conn) + list(by_sentinel),
                                timeout=poll_timeout)
            exited: List[_Shard] = []
            for item in ready:
                shard = by_sentinel.get(item)
                if shard is not None:
                    exited.append(shard)
                    continue
                connection = item
                try:
                    while connection.poll():
                        handle_message(connection.recv())
                except (EOFError, OSError):
                    pass
            for shard in exited:
                # Drain anything the shard flushed before exiting.
                try:
                    while shard.out.poll():
                        handle_message(shard.out.recv())
                except (EOFError, OSError):
                    pass
                shard.proc.join()
                del live[shard.worker_id]
                finalize(shard)
            if hang_timeout is not None:
                watchdog_sweep(live)
            if live:
                match_thieves()

        # -- round settlement ----------------------------------------------
        round_dead = [shard for shard in shards.values()
                      if shard.exit_kind != "done"]
        report.shards_died += len(round_dead)
        for shard in shards.values():
            if shard.exit_kind == "done" and shard.telemetry is not None:
                report.telemetry.append(shard.telemetry)
        for shard in round_dead:
            dead_descriptions.append(
                f"worker {shard.worker_id}: {shard.fatal_error}")
            if on_worker_death is not None:
                on_worker_death(shard.worker_id)
            if shard.published:
                report.retired_segments.extend(shard.published)
                if on_owner_segments is not None:
                    on_owner_segments(list(shard.published))
        cause = "; ".join(dead_descriptions) or "result lost in transit"

        def settle(job: Job) -> str:
            """Settle one charged job: ``retry`` | ``infra`` | ``poisoned``."""
            if retry_policy is None:
                # Historical flat budget: every failure counts the same.
                if job.failures <= max_job_retries:
                    return "retry"  # stays outstanding: next round re-runs
                failed[job.job_id] = JobResult(
                    job.job_id, None, worker=-1,
                    error=f"retries exhausted after {job.failures} "
                          f"failed attempt(s) ({cause})",
                    attempts=job.failures, last_fault_site=job.last_cause)
                if faults is not None and job.pending_sites:
                    faults.record_infra_failed(job.pending_sites)
                    job.pending_sites = []
                return "infra"
            if retry_policy.should_poison(job.worker_deaths):
                # Poison-pair quarantine: this job keeps taking shards
                # down with it — stop feeding it workers, forever.
                failed[job.job_id] = JobResult(
                    job.job_id, None, worker=-1,
                    error=f"poisoned: killed {job.worker_deaths} worker(s) "
                          f"({describe_failures(job.site_failures)})",
                    attempts=job.failures, last_fault_site=job.last_cause,
                    poisoned=True)
                if faults is not None:
                    faults.record_poisoned(job.pending_sites)
                    job.pending_sites = []
                return "poisoned"
            exhausted = retry_policy.exhausted_cause(job.site_failures)
            if exhausted is None:
                return "retry"
            failed[job.job_id] = JobResult(
                job.job_id, None, worker=-1,
                error=f"retry budget for {exhausted!r} exhausted after "
                      f"{job.failures} failed attempt(s) "
                      f"({describe_failures(job.site_failures)})",
                attempts=job.failures, last_fault_site=job.last_cause)
            if faults is not None and job.pending_sites:
                faults.record_infra_failed(job.pending_sites)
                job.pending_sites = []
            return "infra"

        def charge(job: Job) -> None:
            job.failures += 1
            # Attribute a cause to this failed attempt: the fault site
            # charged most recently, a real shard death, or a lost
            # transfer.
            if job.pending_sites:
                attempt_cause = job.pending_sites[-1]
            elif job.death_attributed:
                attempt_cause = CAUSE_WORKER_DEATH
            else:
                attempt_cause = CAUSE_TRANSIT
            job.last_cause = attempt_cause
            tally(job.site_failures, attempt_cause)
            settlement = settle(job)
            if on_job_failure is not None:
                on_job_failure(job, settlement)
            job.death_attributed = False

        round_booted = any(shard.booted for shard in shards.values())
        if not round_booted:
            # No shard in the round ever booted: charge everything still
            # open, or a pool that can never boot would respawn forever.
            for job_id in outstanding:
                if job_id not in completed and job_id not in failed:
                    charge(jobs[job_id])
            continue
        charged: set = set()
        for shard in round_dead:
            held = shard.held_index
            if held is None and shard.remaining \
                    and (shard.booted
                         or shard.exit_kind in ("died", "hung")):
                # A silent death mid-range: charge the first unfinished
                # grant.  A boot failure (fatal with no held job)
                # charges nothing — its untouched range just re-queues.
                held = shard.remaining[0]
            if held is None or held in dropped or held in charged:
                continue
            job_id = round_jobs[held][0]
            if job_id in completed:
                continue  # its result landed before the death
            charged.add(held)
            job = jobs[job_id]
            job.pending_sites.extend(shard.pending_sites)
            # The shard died (or was watchdog-killed) holding this job:
            # the quarantine ledger counts the taken-down worker.
            job.worker_deaths += 1
            job.death_attributed = True
            charge(job)
        for index in dropped:
            job_id = round_jobs[index][0]
            if job_id not in completed and index not in charged:
                charged.add(index)
                charge(jobs[job_id])
        # Everything else unfinished — the tail of a dead shard's range,
        # a grant stranded by a dead thief — re-queues uncharged.
        for shard in shards.values():
            for connection in (shard.ctrl, shard.out):
                try:
                    connection.close()
                except OSError:  # pragma: no cover
                    pass
        if retry_policy is not None:
            open_failures = [job.failures for job_id, job in jobs.items()
                             if job_id not in completed
                             and job_id not in failed and job.failures > 0]
            if open_failures:
                delay = retry_policy.backoff_seconds(max(open_failures))
                if delay > 0.0:
                    time.sleep(delay)

    if failed and strict:
        missing = sorted(failed)
        boot_errors = "; ".join(dead_descriptions) or "unknown cause"
        details = "; ".join(
            f"job {job_id}: {failed[job_id].attempts} attempt(s), "
            f"last cause {failed[job_id].last_fault_site or 'unknown'}"
            for job_id in missing)
        raise RuntimeError(
            f"shard pool finished with {len(missing)} unfinished job(s) "
            f"{missing} ({boot_errors}) [{details}]")
    merged = {**completed, **failed}
    report.results = [merged[job_id] for job_id in sorted(merged)]
    return report
