"""A test machine: one kernel, two containers, one snapshot.

Mirrors KIT's VM setup (§4.1.1 / §5.2): boot the target kernel, create
two processes, confine each to fresh namespace instances (the
containers), apply the container tuning of §5.2 — here, a private tmpfs
on ``/tmp`` as container runtimes do, plus the per-namespace IPC quota
already built into :class:`~repro.kernel.ipc.IpcNamespace` — then take
the snapshot every run restores from.  Every reset restores that
snapshot in place, reloading only the segments the last run dirtied
(:mod:`repro.vm.segments`); :meth:`Snapshot.restore
<repro.vm.snapshot.Snapshot.restore>` stays as the independent
reference the restore tests and gates compare against.

Container namespace flags are configurable per campaign: the Table-3
bug-E reproduction runs its sender in the *host* mount namespace (the
paper's "(Host)" annotation) by clearing ``CLONE_NEWNS`` from the sender
container's flags.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from ..corpus.program import TestProgram
from ..faults.plan import FaultPlan
from ..kernel.bugs import BugFlags
from ..kernel.kernel import Kernel, KernelConfig
from ..kernel.ktrace import KernelTracer
from ..kernel.namespaces import ALL_NAMESPACE_FLAGS, CLONE_NEWNS, NamespaceType
from ..kernel.task import Task
from .executor import ExecutionResult, Executor, SteppedExecution
from .segments import StateDelta
from .snapshot import Snapshot

SENDER = "sender"
RECEIVER = "receiver"


@dataclass(frozen=True)
class ContainerConfig:
    """How one container is set up before the snapshot."""

    name: str
    unshare_flags: int = ALL_NAMESPACE_FLAGS
    #: Install a private rootfs (root/proc/tmp) after unsharing the
    #: mount namespace, as container runtimes do via pivot_root.  With
    #: this on, no superblock is shared with the host or the other
    #: container, so mount-table manipulation inside a test program
    #: cannot reach foreign files through legitimate sharing — only
    #: genuine kernel bugs can (§5.2's container tuning).
    pivot_root: bool = True
    uid: int = 0

    def host_mount_ns(self) -> "ContainerConfig":
        """Variant sharing the host mount namespace (Table 3, bug E)."""
        return replace(self, unshare_flags=self.unshare_flags & ~CLONE_NEWNS,
                       pivot_root=False)


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to boot identical machines (one per shard)."""

    kernel: KernelConfig = field(default_factory=KernelConfig)
    bugs: BugFlags = field(default_factory=BugFlags)
    sender: ContainerConfig = field(default_factory=lambda: ContainerConfig(SENDER))
    receiver: ContainerConfig = field(default_factory=lambda: ContainerConfig(RECEIVER))
    #: After every reset, cross-verify the restored state against the
    #: snapshot's canonical reference and fail loudly on any divergence
    #: (opt-in: it re-walks every root each reset).
    verify_restore: bool = False
    #: Shared fault-injection plan (chaos campaigns); every machine
    #: booted from this config draws its executors' ``exec.timeout``
    #: decisions from the same plan, so accounting is campaign-global.
    #: Not part of config identity: the same machine boots either way.
    fault_plan: Optional[FaultPlan] = field(default=None, compare=False)


@dataclass
class MachineStats:
    """Restore telemetry for one machine (feeds §6.5 reporting)."""

    segmented_restores: int = 0
    segments_restored: int = 0
    segments_skipped: int = 0
    restore_seconds: float = 0.0

    def copy(self) -> "MachineStats":
        return replace(self)

    def since(self, earlier: "MachineStats") -> "MachineStats":
        """Counters accumulated after *earlier* (per-stage attribution)."""
        return MachineStats(
            segmented_restores=self.segmented_restores - earlier.segmented_restores,
            segments_restored=self.segments_restored - earlier.segments_restored,
            segments_skipped=self.segments_skipped - earlier.segments_skipped,
            restore_seconds=self.restore_seconds - earlier.restore_seconds,
        )


class Machine:
    """One bootable, snapshottable test machine."""

    def __init__(self, config: Optional[MachineConfig] = None):
        self.config = config or MachineConfig()
        self.stats = MachineStats()
        #: The campaign-wide injection plan (None = clean machine).
        self.faults: Optional[FaultPlan] = self.config.fault_plan
        #: Set by the shard pool: which shard owns this machine.
        self.cluster_worker_id: Optional[int] = None
        self.snapshot = self._boot_and_snapshot()
        # The boot kernel stays live: resets restore it in place, so it
        # must be the kernel the image is bound to.
        self.snapshot.image.attach()
        self.kernel: Kernel = self.snapshot.image.kernel
        tasks = {task.comm: task for task in self.kernel.tasks.all_tasks()}
        self.sender_task: Task = tasks[self.config.sender.name]
        self.receiver_task: Task = tasks[self.config.receiver.name]

    # -- boot ------------------------------------------------------------------

    def _boot_and_snapshot(self) -> Snapshot:
        kernel = Kernel(config=self.config.kernel, bugs=self.config.bugs)
        for container in (self.config.sender, self.config.receiver):
            task = kernel.spawn_task(uid=container.uid, comm=container.name)
            if container.unshare_flags:
                kernel.unshare(task, container.unshare_flags)
            if container.pivot_root and container.unshare_flags & CLONE_NEWNS:
                mnt_ns = task.nsproxy.get(NamespaceType.MNT)
                mnt_ns.mounts.clear()
                kernel.vfs.install_standard_tree(mnt_ns)
        return Snapshot.take(kernel, description="post-container-setup")

    # -- state control -----------------------------------------------------

    def reset(self, boot_offset_ns: Optional[int] = None,
              skip_groups: Optional[frozenset] = None) -> None:
        """Reload the snapshot (optionally with a rebased clock).

        Only the segments dirtied since the last reset are restored, in
        place — task identity is preserved across resets.
        *skip_groups* is the delta fast path's contract (see
        :meth:`restore_state_delta`): those dirty groups stay untouched
        because the caller overwrites them immediately.
        """
        image = self.snapshot.image
        start = time.perf_counter()
        # Drop any leftover instrumentation first: the snapshotted
        # kernel is tracerless, and a reset kernel must be too.
        self.kernel.attach_tracer(None)
        restored, skipped = image.restore_in_place(skip=skip_groups)
        if self.config.verify_restore and skip_groups is None:
            # Skipped groups legitimately diverge from the snapshot (the
            # caller overwrites them next), so the blanket base-state
            # check only applies to plain resets.
            image.verify()
        if boot_offset_ns is not None:
            self.kernel.clock.rebase(boot_offset_ns)
        self.stats.segmented_restores += 1
        self.stats.segments_restored += restored
        self.stats.segments_skipped += skipped
        self.stats.restore_seconds += time.perf_counter() - start

    def attach_tracer(self, tracer: Optional[KernelTracer]) -> None:
        self.kernel.attach_tracer(tracer)

    # -- derived-state deltas -----------------------------------------------

    @property
    def snapshot_id(self) -> str:
        """Content id of the base snapshot (the delta-compatibility key)."""
        return self.snapshot.content_id

    def capture_state_delta(self) -> StateDelta:
        """Capture the current divergence from the base snapshot.

        Call after executing a program from a fresh reset; the delta
        holds exactly the segments that execution dirtied and can be
        re-applied — here or on another machine with the same
        :attr:`snapshot_id` — via :meth:`restore_state_delta`.
        """
        return self.snapshot.image.capture_delta()

    def restore_state_delta(self, delta: StateDelta) -> None:
        """Reset to the base snapshot, then overlay *delta*.

        State-equivalent to resetting and re-executing the program the
        delta was captured from (the sender-cache equivalence property).
        Dirty groups the delta covers are not base-restored first — the
        delta replaces every root state in them, so that restore would
        be dead work on the cache's hottest path.  Under ``verify_restore``
        the exact reset-then-apply sequence runs instead, keeping the
        blanket base-state check meaningful.
        """
        if self.config.verify_restore:
            self.reset()
        else:
            self.reset(skip_groups=frozenset(delta.groups))
        self.snapshot.image.apply_delta(delta)

    # -- execution ----------------------------------------------------------

    def task_for(self, container: str) -> Task:
        if container == SENDER:
            return self.sender_task
        if container == RECEIVER:
            return self.receiver_task
        raise ValueError(f"unknown container {container!r}")

    def run(self, container: str, program: TestProgram,
            profile: bool = False) -> ExecutionResult:
        """Execute *program* in *container* against the current state."""
        executor = Executor(self.kernel, self.task_for(container),
                            faults=self.faults)
        return executor.run(program, profile=profile)

    def begin_stepped(self, container: str,
                      program: TestProgram) -> SteppedExecution:
        """Start a one-call-at-a-time execution of *program*.

        Controlled interleaving (:mod:`repro.core.schedule`) advances
        programs this way, one slot at a time.
        """
        executor = Executor(self.kernel, self.task_for(container),
                            faults=self.faults)
        return SteppedExecution(executor, program)
