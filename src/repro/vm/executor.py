"""The test-case executor — the Syzkaller-executor stand-in (§5.2).

Interprets a :class:`~repro.corpus.program.TestProgram` against a kernel
on behalf of a container task: resolves result references, issues the
syscalls, and records each call's outcome as a :class:`SyscallRecord`.

The record carries everything downstream stages need:

* decoded results (``details``) for the trace AST,
* the runtime resource kinds of fd arguments and of the produced fd —
  what the specification layer (§4.3.1) matches its rules against,
* a human-readable subject (e.g. the path behind an fd) for report
  aggregation signatures (§4.4).

When the kernel has a tracer attached and ``profile=True``, tracing is
enabled around each syscall and the per-call memory accesses (with
recovered call stacks) are returned alongside the records — KIT's
"execution trace" collection mode.  Profiling and plain trace collection
are separate runs in the paper because instrumentation perturbs timing;
here the separation is kept for fidelity of the pipeline structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..corpus.program import ConstArg, ResultArg, TestProgram
from ..faults.plan import SITE_EXEC_TIMEOUT, ExecTimeoutInjected, FaultPlan
from ..kernel.errno import SyscallError
from ..kernel.kernel import Kernel
from ..kernel.ktrace import MemAccess, walk_with_stack
from ..kernel.syscalls import DECLS
from ..kernel.task import Task

#: (access, call_stack) pairs for one syscall.
CallAccesses = List[Tuple[MemAccess, Tuple[int, ...]]]


@dataclass
class SyscallRecord:
    """The decoded outcome of one executed syscall."""

    index: int
    name: str
    args: Tuple[Any, ...]
    retval: int
    errno: int
    details: Dict[str, Any] = field(default_factory=dict)
    #: arg name -> runtime resource kind, for fd/res arguments.
    arg_kinds: Dict[str, str] = field(default_factory=dict)
    #: resource kind of the produced result, if the call creates one.
    ret_kind: Optional[str] = None
    #: arg name -> human-readable description (e.g. the fd's path).
    subjects: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.errno == 0

    def resource_kinds(self) -> List[str]:
        """Every resource kind this call touched or produced."""
        kinds = list(self.arg_kinds.values())
        if self.ret_kind is not None:
            kinds.append(self.ret_kind)
        return kinds

    def subject(self) -> str:
        """The primary subject (first fd description, or first str arg)."""
        for value in self.subjects.values():
            return value
        for value in self.args:
            if isinstance(value, str):
                return value
        return ""


@dataclass
class ExecutionResult:
    """All records of one program execution (holes for removed calls)."""

    records: List[Optional[SyscallRecord]]
    #: Per-call memory accesses; only populated in profiling mode.
    accesses: Optional[List[Optional[CallAccesses]]] = None

    def live_records(self) -> List[SyscallRecord]:
        return [record for record in self.records if record is not None]


class Executor:
    """Runs test programs for one container task."""

    def __init__(self, kernel: Kernel, task: Task,
                 faults: Optional[FaultPlan] = None):
        self.kernel = kernel
        self.task = task
        #: Campaign fault plan; every issued syscall is an occurrence of
        #: the ``exec.timeout`` injection site.
        self.faults = faults

    def run(self, program: TestProgram, profile: bool = False) -> ExecutionResult:
        session = SteppedExecution(self, program, profile=profile)
        while session.step():
            pass
        return session.result()

    # -- helpers -----------------------------------------------------------

    def execute_slot(self, program: TestProgram, index: int,
                     records: List[Optional[SyscallRecord]],
                     accesses: Optional[List[Optional[CallAccesses]]],
                     profile: bool) -> None:
        """Execute call slot *index*, appending to *records*/*accesses*."""
        call = program.calls[index]
        tracer = self.kernel.tracer
        if call is None:
            records.append(None)
            if accesses is not None:
                accesses.append(None)
            return
        if self.faults is not None \
                and self.faults.should_inject(SITE_EXEC_TIMEOUT):
            # A hung syscall: the execution cannot produce a trustworthy
            # trace, so the whole run is abandoned.  Recovery re-runs the
            # case from a fresh snapshot restore (see
            # repro.faults.plan.call_with_fault_retries), which is
            # exactly the clean run — no partial record survives.
            raise ExecTimeoutInjected(
                SITE_EXEC_TIMEOUT,
                f"injected timeout at call {index} ({call.name})")
        resolved = tuple(self._resolve(arg, records) for arg in call.args)
        record = SyscallRecord(index, call.name, resolved, retval=0, errno=0)
        self._collect_arg_kinds(record)
        if profile and tracer is not None:
            tracer.start()
        try:
            result = self.kernel.syscall(self.task, call.name, list(resolved))
            record.retval = result.retval
            record.details = result.details
        except SyscallError as error:
            record.retval = -1
            record.errno = error.errno
        finally:
            if profile and tracer is not None:
                tracer.stop()
                accesses.append(list(walk_with_stack(tracer.drain())))
        self._collect_ret_kind(record)
        records.append(record)
        # Timer interrupt between syscalls (background work, clock).
        self.kernel.timer_tick()

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _resolve(arg: Any, records: List[Optional[SyscallRecord]]) -> Any:
        if isinstance(arg, ConstArg):
            return arg.value
        if isinstance(arg, ResultArg):
            if arg.index >= len(records):
                return 0
            record = records[arg.index]
            if record is None or not record.ok or record.retval < 0:
                return 0
            return record.retval
        raise TypeError(f"unknown arg type {arg!r}")

    def _collect_arg_kinds(self, record: SyscallRecord) -> None:
        if record.name not in DECLS:
            return
        decl = DECLS.get(record.name)
        for spec, value in zip(decl.args, record.args):
            if spec.kind == "res":
                record.arg_kinds[spec.name] = spec.resource
            elif spec.kind == "fd" and isinstance(value, int):
                file_object = self.task.fdtable._fds.get(value)
                if file_object is not None:
                    record.arg_kinds[spec.name] = file_object.resource_kind
                    record.subjects[spec.name] = file_object.describe()

    def _collect_ret_kind(self, record: SyscallRecord) -> None:
        if not record.ok or record.name not in DECLS:
            return
        decl = DECLS.get(record.name)
        if decl.ret_resource is None:
            return
        if decl.ret_resource in ("fd_file", "fd_io_uring", "sock"):
            file_object = self.task.fdtable._fds.get(record.retval)
            if file_object is not None:
                record.ret_kind = file_object.resource_kind
                record.subjects.setdefault("ret", file_object.describe())
                return
        record.ret_kind = decl.ret_resource


class SteppedExecution:
    """One program's execution, advanced one syscall at a time.

    Controlled interleaving (:mod:`repro.core.schedule`) interleaves two
    of these — a sender's and a receiver's — under an explicit schedule;
    :meth:`Executor.run` is simply the all-at-once schedule.
    """

    def __init__(self, executor: Executor, program: TestProgram,
                 profile: bool = False):
        self._executor = executor
        self._program = program
        self._profile = profile
        self._records: List[Optional[SyscallRecord]] = []
        self._accesses: Optional[List[Optional[CallAccesses]]] = \
            [] if profile else None
        self._next = 0

    @property
    def done(self) -> bool:
        return self._next >= len(self._program.calls)

    def step(self) -> bool:
        """Execute the next call slot; returns False when exhausted."""
        if self.done:
            return False
        self._executor.execute_slot(self._program, self._next,
                                    self._records, self._accesses,
                                    self._profile)
        self._next += 1
        return True

    def result(self) -> ExecutionResult:
        return ExecutionResult(list(self._records),
                               list(self._accesses)
                               if self._accesses is not None else None)
