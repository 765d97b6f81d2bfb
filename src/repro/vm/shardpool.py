"""The multiprocess shard pool: shared-nothing workers, granted chunks.

KIT "can run distributed tests… When running in server mode, KIT exposes
several RPC services to clients to distribute VM snapshots, transfer
test cases, and collect test results" (§5.2), and runs every test case
on its own VM with no state shared between VMs (§6.5).  This module is
that job protocol across *processes*.  Each shard is forked from the
supervisor and gets its own :class:`~repro.vm.machine.Machine` from the
caller's *boot* (by default a fresh ``Machine(machine_config)``).  After
the fork, shards and supervisor share nothing but the pipes of this
protocol.

Granted chunks
--------------

The supervisor is the only owner of a round's affinity-ordered job
list; shards hold contiguous *chunks* of it.  Every grant takes
⌈ungranted / (2 × shards in the round)⌉ jobs from the front of the
ungranted queue (the factoring rule), so chunks shrink as the round
drains and no shard is left with a long tail.  Each shard gets its first
chunk at spawn.  When a landed result leaves a shard with at most one
unfinished job, the supervisor sends it the next chunk, or ``stop`` when
nothing is left, so the next range is already in the pipe when the
shard finishes its current one.  The supervisor reads one message per
case anyway, so the central queue costs it nothing and needs no lock.
A job is granted to exactly one shard per round, and the
inverse-permutation merge by job id stays byte-deterministic regardless
of who executed what.

Supervision
-----------

The supervisor runs in *rounds*: shards run until they exit, the
supervisor settles the round (a dead shard's first unfinished job is
charged a failed attempt, the rest of its chunks re-queued uncharged),
and fresh worker ids are spawned for whatever remains, so no two shards
ever share an id.  The surviving shards of a round keep draining its
ungranted queue.  A dead shard's local caches die with its process.
Every charged job is settled by one
:class:`~repro.faults.retry.RetryPolicy`: it is re-run until its
failures of one cause exceed the budget, or quarantined as a poison
pair once it has killed ``poison_after`` shards.  Either way the run
returns one ``JobResult`` per job, and the caller decides what a failed
job means (the pipeline: ``poisoned``, ``infra_failed`` under a fault
plan, or an error).  Jobs are pure functions of (payload, snapshot), so
a re-run on a fresh machine is equivalent to the first attempt.

Each shard runs one thread: it sends ``up`` once its machine has
booted, then a result as each job finishes.  Once a shard has sent
``up``, its death — a ``fatal`` exception, a silent exit, an injected
SIGKILL or a watchdog kill — charges its first unfinished job; a round
in which no shard sent ``up`` charges every open job.  Only the
supervisor decides what a death was: it was the injected
``worker.kill`` when the plan's decision for that job attempt fires,
and a real worker death otherwise.  Only real deaths count toward
poison quarantine.  With a hang timeout the watchdog SIGKILLs a live
shard from which nothing has arrived for that long, which covers a
frozen shard and a stuck job alike.

Each round the supervisor registers every shard's message pipe and
process sentinel once with one :mod:`selectors` selector, reads one
message per readiness event, and unregisters both when the shard exits.
Process death is observed on the sentinel, so a SIGKILLed shard is
detected without polling.  Fault accounting crosses the process
boundary as counter *deltas* shipped in each shard's final message; a
shard that dies silently loses only locally-balanced counters, so the
campaign invariant ``injected == recovered + infra_failed + poisoned``
holds regardless.
Two chaos injection sites live in this layer (``worker.kill``,
``result.drop``); see :mod:`repro.faults.plan`.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.plan import (
    ALL_SITES,
    SITE_RESULT_DROP,
    SITE_WORKER_KILL,
    FaultPlan,
)
from ..faults.retry import (
    CAUSE_BOOT,
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
    #: synthetic worker-death / boot causes) — the retry-policy and
    #: error-message ledger; survives pending-site resolution.
    site_failures: Dict[str, int] = field(default_factory=dict)
    #: Shards this job really took down with it (an exception, a silent
    #: exit, a watchdog kill; never an injected kill); reaching the
    #: policy's ``poison_after`` quarantines it.
    worker_deaths: int = 0
    #: Cause charged by the most recent failed attempt.
    last_cause: Optional[str] = None


@dataclass
class JobResult:
    """A completed (or finally failed) job."""

    job_id: int
    outcome: Any
    #: The shard that ran the job, or -1 for a job the retry policy
    #: gave up on (retries exhausted, or poisoned).
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


#: Occurrence key of the ``worker.kill`` decision is
#: ``job_id + attempt * _ATTEMPT_STRIDE``: globally deterministic (no
#: per-process counter stream), unique per (job, retry attempt), and a
#: retried job draws a fresh decision so scheduled faults fire once.
#: The shard and the supervisor draw the same decision.
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
    rounds: int = 0
    shards_spawned: int = 0
    shards_died: int = 0
    #: Worker ids of shards the watchdog SIGKILLed (nothing arrived
    #: from them for ``hang_timeout``).  Hung shards also count in
    #: ``shards_died``.
    hung_shards: List[int] = field(default_factory=list)


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
    faults.stats.merge_delta(*delta)


def _shard_main(worker_id: int, ctrl, out, boot: Callable[[], Machine],
                round_jobs: Sequence[Tuple[int, Any]],
                case_runner: Callable[[Machine, Any], Any],
                faults: Optional[FaultPlan],
                telemetry_hook: Optional[Callable[[Machine], Any]],
                start: int, end: int) -> None:
    """One shard process: run each granted range, then report and retire.

    All messages go child -> parent on *out*; the parent grants on
    *ctrl*.  The shard sends ``("up", worker_id)`` once its machine has
    booted, runs its range, then ``ctrl.recv()``s the next one
    (``("range", start, end)``) or ``("stop",)``.  Ranges index into
    *round_jobs*, the round-local job list inherited through fork.  The
    shard runs one thread, so nothing else ever writes to *out*.
    """
    base = faults.stats.snapshot() if faults is not None else None
    try:
        machine = boot()
    except Exception as error:
        out.send(("fatal", worker_id, f"{type(error).__name__}: {error}",
                  _stats_delta(faults, base)))
        return
    machine.cluster_worker_id = worker_id
    out.send(("up", worker_id))
    try:
        command: tuple = ("range", start, end)
        while command[0] == "range":
            for index in range(command[1], command[2]):
                job_id, payload, attempt = round_jobs[index]
                if faults is not None and faults.fires_at(
                        SITE_WORKER_KILL, job_id + attempt * _ATTEMPT_STRIDE):
                    # Die without a word: the supervisor draws the same
                    # decision when it settles the death.
                    os.kill(os.getpid(), signal.SIGKILL)
                try:
                    outcome = case_runner(machine, payload)
                    error = None
                except Exception as failure:  # defensive: report, keep shard
                    outcome = None
                    error = f"{type(failure).__name__}: {failure}"
                out.send(("result", worker_id, index, outcome, error))
            command = ctrl.recv()
    except BaseException as error:  # genuine shard death
        out.send(("fatal", worker_id, f"{type(error).__name__}: {error}",
                  _stats_delta(faults, base)))
        return
    telemetry = telemetry_hook(machine) if telemetry_hook is not None else None
    out.send(("done", worker_id, telemetry, _stats_delta(faults, base)))


@dataclass
class _Shard:
    """Supervisor-side state of one live shard process."""

    worker_id: int
    proc: Any
    ctrl: Any
    out: Any
    #: Round-local indices granted and not yet executed, in order.
    remaining: List[int]
    #: No further chunk: ``("stop",)`` was sent, or the shard exited.
    stopping: bool = False
    #: The shard sent ``up``: its machine booted.
    booted: bool = False
    exit_kind: Optional[str] = None  # done | fatal | died | hung
    fatal_error: Optional[str] = None
    telemetry: Any = None
    #: Watchdog input: when the last message from this shard arrived.
    last_message: float = 0.0


def run_sharded(machine_config: MachineConfig, payloads: Sequence[Any],
                case_runner: Callable[[Machine, Any], Any],
                workers: int = 2, *,
                boot: Optional[Callable[[], Machine]] = None,
                faults: Optional[FaultPlan] = None,
                telemetry_hook: Optional[Callable[[Machine], Any]] = None,
                retry_policy: RetryPolicy = RetryPolicy(),
                hang_timeout: Optional[float] = None,
                on_result: Optional[Callable[[Job, JobResult],
                                             None]] = None,
                on_job_failure: Optional[Callable[[Job, str],
                                                  None]] = None,
                prior_deaths: Optional[Dict[int, int]] = None,
                before_wait: Optional[Callable[[], None]] = None
                ) -> ShardRunReport:
    """Run *payloads* through *case_runner* on a process shard pool.

    Returns results ordered by job id, so the output is independent of
    which shard ran what.  The pool is clamped to the number of jobs.
    When a shard dies before its chunks drain, or a result is lost,
    the job it held is charged a failed attempt and re-queued on a
    replacement shard with a fresh id, as *retry_policy* allows (see
    :class:`~repro.faults.retry.RetryPolicy`).  Every job gets one
    ``JobResult``: its outcome, or, for a job the policy gave up on,
    ``worker=-1`` and an ``error`` naming its attempts, their causes
    and the dead shards' errors (``poisoned`` set for a quarantined
    job).  A job whose *case_runner* raised keeps the worker that ran
    it and carries the exception text as its ``error``; it is never
    retried.  Extra hooks:

    * *boot* returns each shard's machine inside the shard process
      (default: ``Machine(machine_config)``; the pipeline hands each
      shard its forked copy of the campaign machine).
    * *telemetry_hook* runs in the shard at clean retirement; its
      (picklable) return value lands in ``report.telemetry``.

    Self-healing extensions: *hang_timeout* (a shard
    from which nothing — not ``up``, not a result — arrives for longer
    than the timeout is SIGKILLed and settled like any other dead
    shard, with its id recorded in ``report.hung_shards``), *on_result*
    / *on_job_failure* commit hooks, and *prior_deaths* (job id → shard
    deaths journaled by earlier runs) quarantine seeding for resumed
    campaigns.
    *on_result* runs in the supervisor as each result lands, on the
    very ``JobResult`` that ``report.results`` returns, so it may
    replace ``result.outcome`` (the pipeline rebuilds its verdicts
    there).  *before_wait* runs each time the supervisor is about to
    block for more messages, with none pending (the pipeline passes its
    journal's ``sync``, one fsync for every result that landed since).
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
    completed: Dict[int, JobResult] = {}
    failed: Dict[int, JobResult] = {}
    pool_size = min(max(1, workers), len(jobs))
    next_worker_id = 0
    dead_descriptions: List[str] = []

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
        # Round-local index of the first ungranted job.
        ungranted = 0

        def next_chunk() -> Tuple[int, int]:
            """Grant the next ⌈ungranted / (2 × shards)⌉ jobs in order."""
            nonlocal ungranted
            start = ungranted
            ungranted += -(-(len(round_jobs) - start) // (2 * spawn))
            return start, ungranted

        for _slot in range(spawn):
            start, end = next_chunk()
            worker_id = next_worker_id
            next_worker_id += 1
            ctrl_recv, ctrl_send = ctx.Pipe(duplex=False)
            out_recv, out_send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_shard_main,
                args=(worker_id, ctrl_recv, out_send, boot, round_jobs,
                      case_runner, faults, telemetry_hook, start, end),
                name=f"kit-shard-{worker_id}", daemon=True)
            proc.start()
            # The parent's copies of the child-side ends must close so
            # the pipes belong to exactly one process each.
            ctrl_recv.close()
            out_send.close()
            shards[worker_id] = _Shard(worker_id, proc, ctrl_send, out_recv,
                                       remaining=list(range(start, end)),
                                       last_message=time.monotonic())

        #: Jobs whose result this round lost in transit.
        dropped: List[Job] = []

        def top_up(shard: _Shard) -> None:
            """Queue a shard's next chunk (or stop) before it runs dry."""
            if shard.stopping or shard.exit_kind is not None \
                    or len(shard.remaining) > 1:
                return
            if ungranted < len(round_jobs):
                start, end = next_chunk()
                shard.remaining.extend(range(start, end))
                command: tuple = ("range", start, end)
            else:
                shard.stopping = True
                command = ("stop",)
            try:
                shard.ctrl.send(command)
            except (BrokenPipeError, OSError):
                pass  # shard died: round settlement re-queues its chunks

        def handle_message(message: tuple) -> None:
            kind = message[0]
            shard = shards[message[1]]
            shard.last_message = time.monotonic()
            if kind == "up":
                shard.booted = True
            elif kind == "result":
                _, worker_id, index, outcome, error = message
                if index in shard.remaining:
                    shard.remaining.remove(index)
                top_up(shard)
                job_id = round_jobs[index][0]
                job = jobs[job_id]
                if faults is not None \
                        and faults.should_inject(SITE_RESULT_DROP):
                    # Lost in transit: the round settlement charges a
                    # failed attempt.
                    dropped.append(job)
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
            elif kind == "fatal":
                _, _worker_id, error, delta = message
                shard.exit_kind = "fatal"
                shard.fatal_error = error
                _merge_stats_delta(faults, delta)
            elif kind == "done":
                _, _worker_id, telemetry, delta = message
                shard.exit_kind = "done"
                shard.telemetry = telemetry
                _merge_stats_delta(faults, delta)

        def watchdog_sweep(live: Dict[int, _Shard]) -> None:
            """SIGKILL shards from which nothing arrived for too long."""
            now = time.monotonic()
            for shard in live.values():
                silent = now - shard.last_message
                if shard.exit_kind is not None or silent <= hang_timeout:
                    continue
                shard.exit_kind = "hung"
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
        # One selector for the round: each shard's pipe and sentinel are
        # registered once, with (shard, is_sentinel) as the key's data.
        with selectors.DefaultSelector() as selector:
            for shard in shards.values():
                selector.register(shard.out, selectors.EVENT_READ,
                                  (shard, False))
                selector.register(shard.proc.sentinel, selectors.EVENT_READ,
                                  (shard, True))
            while live:
                ready = selector.select(0)
                if not ready:
                    if before_wait is not None:
                        before_wait()
                    ready = selector.select(poll_timeout)
                exited: List[_Shard] = []
                for key, _events in ready:
                    shard, is_sentinel = key.data
                    if is_sentinel:
                        exited.append(shard)
                        continue
                    # One message per readiness event: the selector is
                    # level-triggered, so more pending data is reported
                    # again by the next select.
                    try:
                        message = shard.out.recv()
                    except (EOFError, OSError):
                        # The shard closed its end; its sentinel settles it.
                        selector.unregister(shard.out)
                        continue
                    handle_message(message)
                for shard in exited:
                    shard.stopping = True  # gone: it takes no further chunk
                    # Drain anything the shard flushed before exiting.
                    try:
                        while shard.out.poll():
                            handle_message(shard.out.recv())
                    except (EOFError, OSError):
                        pass
                    shard.proc.join()
                    for fileobj in (shard.out, shard.proc.sentinel):
                        if fileobj in selector.get_map():
                            selector.unregister(fileobj)
                    del live[shard.worker_id]
                    if shard.exit_kind is None:
                        shard.exit_kind = "died"
                        shard.fatal_error = shard.fatal_error or \
                            f"process exited (code {shard.proc.exitcode})"
                if hang_timeout is not None:
                    watchdog_sweep(live)

        for shard in shards.values():
            for connection in (shard.ctrl, shard.out):
                try:
                    connection.close()
                except OSError:  # pragma: no cover
                    pass

        # -- round settlement ----------------------------------------------
        round_dead = [shard for shard in shards.values()
                      if shard.exit_kind != "done"]
        report.shards_died += len(round_dead)
        for shard in shards.values():
            if shard.exit_kind == "done" and shard.telemetry is not None:
                report.telemetry.append(shard.telemetry)
        # A death after ``up`` charges the shard's first unfinished
        # grant; a shard that never sent ``up`` charges nothing, and its
        # chunk just re-queues.  The supervisor alone decides what the
        # death was, so it also keeps the books of an injected kill,
        # whose process took its own counters with it.
        deaths: List[Tuple[Job, str]] = []
        for shard in round_dead:
            if shard.booted and shard.remaining:
                job = jobs[round_jobs[shard.remaining[0]][0]]
                death = CAUSE_WORKER_DEATH
                if faults is not None and faults.fires_at(
                        SITE_WORKER_KILL,
                        job.job_id + job.failures * _ATTEMPT_STRIDE):
                    death = SITE_WORKER_KILL
                    faults.stats.note_injected(SITE_WORKER_KILL)
                    shard.fatal_error = \
                        f"injected SIGKILL holding job {job.job_id}"
                deaths.append((job, death))
            dead_descriptions.append(
                f"worker {shard.worker_id}: {shard.fatal_error}")
        errors = "; ".join(dead_descriptions) or "result lost in transit"

        def settle(job: Job) -> str:
            """Settle one charged job: ``retry`` | ``infra`` | ``poisoned``."""
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
                return "retry"  # stays outstanding: next round re-runs
            failed[job.job_id] = JobResult(
                job.job_id, None, worker=-1,
                error=f"retry budget for {exhausted!r} exhausted after "
                      f"{job.failures} failed attempt(s) "
                      f"({describe_failures(job.site_failures)}): {errors}",
                attempts=job.failures, last_fault_site=job.last_cause)
            if faults is not None and job.pending_sites:
                faults.record_infra_failed(job.pending_sites)
                job.pending_sites = []
            return "infra"

        def charge(job: Job, cause: str) -> None:
            """Charge *job* one failed attempt of *cause*, then settle it."""
            job.failures += 1
            job.last_cause = cause
            tally(job.site_failures, cause)
            if cause in ALL_SITES:
                # An injected fault: resolved when a result finally
                # lands, or with the job's settlement.
                job.pending_sites.append(cause)
            elif cause == CAUSE_WORKER_DEATH:
                job.worker_deaths += 1
            settlement = settle(job)
            if on_job_failure is not None:
                on_job_failure(job, settlement)

        if not any(shard.booted for shard in shards.values()):
            # No shard in the round sent ``up``: charge everything still
            # open, or a pool that can never boot would respawn forever.
            for job_id in outstanding:
                charge(jobs[job_id], CAUSE_BOOT)
            continue
        # A dropped result is no shard's unfinished grant, so each job
        # is charged at most once.  Everything else unfinished — the
        # rest of a dead shard's chunks and whatever the round never
        # granted — re-queues uncharged.
        for job, death in deaths:
            charge(job, death)
        for job in dropped:
            charge(job, SITE_RESULT_DROP)

    merged = {**completed, **failed}
    report.results = [merged[job_id] for job_id in sorted(merged)]
    return report
