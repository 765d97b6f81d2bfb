"""The simulated kernel: boot, namespaces, subsystems, syscall entry.

A :class:`Kernel` is a self-contained, picklable state machine.  Test
infrastructure interacts with it in exactly two ways — the same two ways
KIT interacts with a real kernel:

* invoking syscalls on behalf of a task (:meth:`Kernel.syscall`) and
  observing their decoded results, and
* tracing kernel memory accesses during those syscalls (attach a
  :class:`~repro.kernel.ktrace.KernelTracer`).

Snapshot/restore (the QEMU-snapshot stand-in) is plain pickling; the
tracer is excluded from snapshots by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .bugs import BugFlags, fixed_kernel
from .cgroup import CgroupSubsystem
from .clock import VirtualClock
from .crypto import CryptoSubsystem
from .errno import EINVAL, SyscallError
from .iouring import IoUringSubsystem
from .ipc import IpcNamespace, IpcSubsystem
from .ktrace import KernelTracer, preemption_suspended
from .memory import KernelArena
from .namespaces import (
    CgroupNamespace,
    Namespace,
    NamespaceRegistry,
    NamespaceType,
    NsProxy,
    TimeNamespace,
    UserNamespace,
    flags_to_types,
)
from .net.conntrack import ConntrackSubsystem
from .net.flowlabel import FlowLabelSubsystem
from .net.ipvs import IpvsSubsystem
from .net.netdev import NetDevSubsystem
from .net.netns import NetNamespace
from .net.packet import PtypeSubsystem
from .net.rds import RdsSubsystem
from .net.rtnetlink import RtnetlinkSubsystem
from .net.sctp import SctpSubsystem
from .net.socket import NetSubsystem
from .procfs import ProcFs
from .task import PidNamespace, Scheduler, Task, TaskTable
from .uts import UtsNamespace
from .vfs import MntNamespace, Vfs


@dataclass(frozen=True)
class KernelConfig:
    """Build-time kernel configuration.

    ``jump_label`` models ``CONFIG_JUMP_LABEL``: when enabled, static-key
    state (the flow label exclusive mode) is patched code rather than
    memory, and is therefore invisible to the profiling instrumentation
    (paper §6.1).  KIT's documented methodology compiles with it off.
    """

    version: str = "5.13"
    jump_label: bool = False


class Kernel:
    """One booted kernel instance."""

    def __init__(self, config: Optional[KernelConfig] = None,
                 bugs: Optional[BugFlags] = None):
        self.config = config or KernelConfig()
        self.bugs = bugs if bugs is not None else fixed_kernel()
        self.arena = KernelArena()
        self.tracer: Optional[KernelTracer] = None
        #: Objects mutated through untraced paths since the last segmented
        #: restore (see :mod:`repro.vm.segments`): the caller task of every
        #: syscall, plus structures marked via :meth:`mark_dirty_object`.
        #: Runtime bookkeeping, never snapshot state.
        self._dirty_roots: set = set()
        self.clock = VirtualClock()
        self.namespaces = NamespaceRegistry()
        self.tasks = TaskTable(self.arena)
        #: Syscalls served since boot (feeds the timer-tick jitter).
        self.syscall_seq = 0

        # Subsystems (order matters only for boot wiring below).
        self.vfs = Vfs(self)
        self.procfs = ProcFs(self)
        self.cgroup = CgroupSubsystem(self)
        self.sched = Scheduler(self)
        self.ipc = IpcSubsystem(self)
        self.crypto = CryptoSubsystem(self)
        self.iouring = IoUringSubsystem(self)
        self.net = NetSubsystem(self)
        self.ptype = PtypeSubsystem(self)
        self.flowlabel = FlowLabelSubsystem(self)
        self.rds = RdsSubsystem(self)
        self.sctp = SctpSubsystem(self)
        self.netdev = NetDevSubsystem(self)
        self.rtnetlink = RtnetlinkSubsystem(self)
        self.conntrack = ConntrackSubsystem(self)
        self.ipvs = IpvsSubsystem(self)

        self._boot()

    # -- snapshot support ---------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["tracer"] = None
        state["_dirty_roots"] = set()
        return state

    def attach_tracer(self, tracer: Optional[KernelTracer]) -> None:
        """Install (or remove, with None) the instrumentation sink."""
        self.tracer = tracer
        self.arena.tracer = tracer

    def mark_dirty_object(self, obj: Any) -> None:
        """Record an untraced structural mutation of *obj* for the
        segmented snapshot engine.  Required wherever kernel code mutates
        plain Python containers on objects that predate the snapshot
        (mount tables, the namespace registry, the task table); traced
        :mod:`~repro.kernel.memory` writes are caught by the arena's
        write barrier and need no mark.
        """
        self._dirty_roots.add(obj)

    # -- boot -----------------------------------------------------------------

    def _boot(self) -> None:
        registry = self.namespaces

        pid_ns = PidNamespace(self.arena, registry.initial_inum(NamespaceType.PID))
        mnt_ns = self._boot_mounts(registry.initial_inum(NamespaceType.MNT))
        uts_ns = UtsNamespace(self.arena, registry.initial_inum(NamespaceType.UTS))
        ipc_ns = IpcNamespace(self.arena, registry.initial_inum(NamespaceType.IPC))
        net_ns = NetNamespace(self.arena, registry.initial_inum(NamespaceType.NET))
        user_ns = UserNamespace(self.arena, registry.initial_inum(NamespaceType.USER))
        cgroup_ns = CgroupNamespace(self.arena, registry.initial_inum(NamespaceType.CGROUP))
        time_ns = TimeNamespace(self.arena, registry.initial_inum(NamespaceType.TIME))
        self.netdev.create_loopback(net_ns)

        namespaces = {
            NamespaceType.PID: pid_ns,
            NamespaceType.MNT: mnt_ns,
            NamespaceType.UTS: uts_ns,
            NamespaceType.IPC: ipc_ns,
            NamespaceType.NET: net_ns,
            NamespaceType.USER: user_ns,
            NamespaceType.CGROUP: cgroup_ns,
            NamespaceType.TIME: time_ns,
        }
        for namespace in namespaces.values():
            registry.register(namespace)
        self.init_nsproxy = NsProxy(namespaces)
        self.init_mnt_ns = mnt_ns
        self.init_net = net_ns

        self.init_task = Task(self.arena, self.init_nsproxy, uid=0, comm="init")
        self.tasks.attach(self.init_task)

    def _boot_mounts(self, inum: int) -> MntNamespace:
        mnt_ns = MntNamespace(self.arena, inum)
        self.vfs.install_standard_tree(mnt_ns)
        return mnt_ns

    # -- tasks and namespaces ----------------------------------------------

    def spawn_task(self, nsproxy: Optional[NsProxy] = None, uid: int = 0,
                   comm: str = "executor") -> Task:
        task = Task(self.arena, nsproxy or self.init_nsproxy, uid=uid, comm=comm)
        self.tasks.attach(task)
        self.mark_dirty_object(self.tasks)
        return task

    def unshare(self, task: Task, flags: int) -> int:
        """``unshare(2)``: create-and-join fresh namespace instances.

        Simplification vs. Linux: a new PID namespace applies to the
        calling task immediately (Linux defers to the next child); the
        task keeps its memberships in the ancestor namespaces, which is
        what matters for cross-namespace visibility semantics.
        """
        types = flags_to_types(flags)
        if not types:
            raise SyscallError(EINVAL, f"no namespace flags in {flags:#x}")
        replacements: Dict[NamespaceType, Namespace] = {}
        for ns_type in types:
            replacements[ns_type] = self._new_namespace(task, ns_type)
        task.nsproxy = task.nsproxy.copy_with(replacements)
        self.mark_dirty_object(task)
        if NamespaceType.PID in replacements:
            new_pid_ns = replacements[NamespaceType.PID]
            assert isinstance(new_pid_ns, PidNamespace)
            vpid = new_pid_ns.alloc_pid()
            task.pid_numbers[new_pid_ns] = vpid
            new_pid_ns.tasks.insert(vpid, task)
        return 0

    def _new_namespace(self, task: Task, ns_type: NamespaceType) -> Namespace:
        inum = self.namespaces.next_inum()
        current = task.nsproxy.get(ns_type)
        if ns_type == NamespaceType.PID:
            assert isinstance(current, PidNamespace)
            namespace: Namespace = PidNamespace(self.arena, inum, parent=current)
        elif ns_type == NamespaceType.MNT:
            assert isinstance(current, MntNamespace)
            namespace = self.vfs.copy_mnt_ns(current, inum)
        elif ns_type == NamespaceType.UTS:
            assert isinstance(current, UtsNamespace)
            namespace = UtsNamespace(self.arena, inum, hostname=current.peek("hostname"))
        elif ns_type == NamespaceType.IPC:
            namespace = IpcNamespace(self.arena, inum)
        elif ns_type == NamespaceType.NET:
            namespace = NetNamespace(self.arena, inum)
            self.netdev.create_loopback(namespace)
        elif ns_type == NamespaceType.USER:
            namespace = UserNamespace(self.arena, inum)
        elif ns_type == NamespaceType.CGROUP:
            namespace = CgroupNamespace(self.arena, inum)
            self.cgroup.on_unshare(task, namespace)
        else:
            namespace = TimeNamespace(self.arena, inum)
        self.namespaces.register(namespace)
        self.mark_dirty_object(self.namespaces)
        return namespace

    # -- time ---------------------------------------------------------------

    def timer_tick(self, count: Optional[int] = None) -> None:
        """Advance virtual time; runs interrupt-context background work.

        When *count* is omitted, the number of ticks carries a small
        deterministic jitter derived from the boot time and the number
        of syscalls served so far.  This models the scheduling/interrupt
        noise of a real testbed: a preceding sender execution shifts the
        receiver's timing phase (so time-coupled syscall results diverge
        between the two test-case executions), and re-runs with rebased
        clocks perturb the same results (so the §4.3.2 non-determinism
        filter learns to ignore them).  Everything stays a pure function
        of (snapshot, boot offset), preserving replayability.
        """
        if count is None:
            boot_sec = self.clock.boot_offset_ns // 1_000_000_000
            count = 1 + (boot_sec * 31 + self.syscall_seq * 17) % 3
        # Interrupt context: neither traced (in_task check) nor a source
        # of controlled-scheduling preemption points.
        with preemption_suspended():
            if self.tracer is not None:
                with self.tracer.interrupt_context():
                    self._tick_work(count)
            else:
                self._tick_work(count)

    def _tick_work(self, count: int) -> None:
        self.clock.tick(count)
        self.conntrack.background_churn()

    # -- syscall entry --------------------------------------------------------

    def syscall(self, task: Task, name: str, args: List[Any]) -> "SyscallResult":
        """Dispatch one syscall for *task*; see :mod:`repro.kernel.syscalls`."""
        from .syscalls import dispatch

        self.syscall_seq += 1
        # Blanket mark: syscalls freely mutate their caller's untraced
        # task state (fd table, nsproxy, cgroup path), so the caller is
        # always restored.  Traced kernel memory is covered by the
        # arena's write barrier instead.
        self._dirty_roots.add(task)
        return dispatch(self, task, name, args)


class SyscallResult:
    """What a syscall handler hands back to the executor.

    ``retval`` is the integer return value; ``details`` carries decoded
    out-parameters (read data, stat structs, …) that the trace decoder
    turns into AST subtrees — the strace-library equivalent (§5.2).
    """

    __slots__ = ("retval", "details")

    def __init__(self, retval: int, details: Optional[Dict[str, Any]] = None):
        self.retval = retval
        self.details = details or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyscallResult({self.retval}, {self.details})"
