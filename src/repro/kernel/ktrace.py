"""Kernel execution tracing — the simulated analogue of KIT's compiler
instrumentation (paper §5.1).

The real KIT instruments the kernel with a GCC GIMPLE pass so that, at run
time, the kernel emits a chronological trace with three entry types:

* *function enter* (carrying a unique per-function ID assigned at compile
  time),
* *function exit*, and
* *memory access* (address, width, read/write flag, instruction address).

The trace consumer then maintains a *simulated call stack* — pushing on
enter entries and popping on exit entries — to recover the call-stack
context of each memory access.

This module reproduces that design for the simulated kernel:

* ``@kfunc`` marks a Python function as an instrumented kernel function.
  A unique function ID is assigned at decoration ("compile") time.
* :class:`KernelTracer` is the runtime trace sink.  The memory arena
  (:mod:`repro.kernel.memory`) reports every load/store to it.
* "Instruction addresses" are synthesized from the source location of the
  kernel-model code performing the access, which is exactly as stable as
  a real instruction address is across identical builds.

Like the paper's implementation, the tracer skips accesses made in
interrupt context (``in_task()`` check) and can be restricted to the
kernel thread servicing the profiled test program.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Trace entry kinds, mirroring the three entry types of §5.1.
FUNC_ENTER = 0
FUNC_EXIT = 1
MEM_ACCESS = 2


@dataclass(frozen=True)
class FuncEnter:
    """A function-entry trace record."""

    func_id: int

    kind = FUNC_ENTER


@dataclass(frozen=True)
class FuncExit:
    """A function-exit trace record."""

    func_id: int

    kind = FUNC_EXIT


@dataclass(frozen=True)
class MemAccess:
    """A kernel memory access trace record.

    ``ip`` is the instruction address — in this model, a stable integer
    identifying the kernel-model source line that performed the access.
    """

    addr: int
    width: int
    is_write: bool
    ip: int

    kind = MEM_ACCESS


TraceEntry = object  # FuncEnter | FuncExit | MemAccess


class FunctionRegistry:
    """Assigns compile-time unique IDs to instrumented kernel functions.

    The registry is global, like the paper's per-function IDs baked in by
    the compiler pass: IDs depend only on module import order, which is
    deterministic for a fixed code base.
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, int] = {}
        self._names: List[str] = []

    def register(self, name: str) -> int:
        if name in self._by_name:
            return self._by_name[name]
        func_id = len(self._names)
        self._by_name[name] = func_id
        self._names.append(name)
        return func_id

    def name_of(self, func_id: int) -> str:
        return self._names[func_id]

    def id_of(self, name: str) -> int:
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self._names)


class InstructionRegistry:
    """Maps kernel-model source locations to stable "instruction addresses".

    A location is a ``(filename, lineno)`` pair; the registry hands out
    monotonically increasing addresses starting at a kernel-ish base.
    """

    _BASE = 0xFFFFFFFF81000000

    def __init__(self) -> None:
        self._by_loc: Dict[Tuple[str, int], int] = {}
        self._locs: List[Tuple[str, int]] = []

    def address_for(self, filename: str, lineno: int) -> int:
        key = (filename, lineno)
        ip = self._by_loc.get(key)
        if ip is None:
            ip = self._BASE + len(self._locs)
            self._by_loc[key] = ip
            self._locs.append(key)
        return ip

    def location_of(self, ip: int) -> Tuple[str, int]:
        return self._locs[ip - self._BASE]

    def __len__(self) -> int:
        return len(self._locs)


#: Process-wide registries ("compile-time" state, not kernel state).
FUNCTIONS = FunctionRegistry()
INSTRUCTIONS = InstructionRegistry()


#: Thread-local preemption-hook slot.  Thread-local (not kernel state)
#: because profiling pool threads run concurrent machines in one
#: process: a controlled-interleaving run must only observe its own
#: machine's instrumentation points.
_PREEMPTION = threading.local()

#: A preemption hook receives ``(func_id, kind)`` at every instrumented
#: kernel-function boundary, where *kind* is FUNC_ENTER or FUNC_EXIT.
PreemptionHook = Callable[[int, int], None]


def preemption_hook() -> Optional[PreemptionHook]:
    """The hook active on this thread, or None."""
    return getattr(_PREEMPTION, "hook", None)


@contextmanager
def preemption_scope(hook: PreemptionHook) -> Iterator[None]:
    """Install *hook* at every ``@kfunc`` boundary for the dynamic extent.

    Unlike the tracer the hook fires regardless of tracer enablement —
    the controlled scheduler (:mod:`repro.core.schedule`) needs boundary
    events during plain detection runs, which never trace.
    """
    previous = preemption_hook()
    _PREEMPTION.hook = hook
    try:
        yield
    finally:
        _PREEMPTION.hook = previous


@contextmanager
def preemption_suspended() -> Iterator[None]:
    """Mask boundary events for the dynamic extent.

    The kernel wraps interrupt-context work (timer ticks) in this: like
    the tracer's ``in_task()`` check, preemption points belong to the
    task's own syscall execution, not to background interrupts — and
    masking them keeps the event stream a pure function of the executed
    programs.
    """
    previous = preemption_hook()
    _PREEMPTION.hook = None
    try:
        yield
    finally:
        _PREEMPTION.hook = previous


class KernelTracer:
    """Runtime sink for kernel execution traces.

    The tracer is *disabled* by default; profiling runs enable it around
    the syscalls of the profiled test program.  It is never part of a
    kernel snapshot.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.entries: List[TraceEntry] = []
        self._interrupt_depth = 0
        self._stack: List[int] = []

    # -- control ---------------------------------------------------------

    def start(self) -> None:
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.entries = []
        self._stack = []

    def drain(self) -> List[TraceEntry]:
        """Return the collected entries and clear the buffer."""
        entries = self.entries
        self.entries = []
        return entries

    @contextmanager
    def interrupt_context(self) -> Iterator[None]:
        """Mark the dynamic extent as interrupt context.

        Mirrors the kernel's ``in_task()`` check: accesses made while an
        interrupt (timer tick, softirq) is being serviced are not traced
        because they do not result from the test program's syscalls and
        would make traces non-deterministic (paper §5.1).
        """
        self._interrupt_depth += 1
        try:
            yield
        finally:
            self._interrupt_depth -= 1

    @property
    def in_task(self) -> bool:
        return self._interrupt_depth == 0

    # -- recording -------------------------------------------------------

    def on_func_enter(self, func_id: int) -> None:
        if self.enabled and self.in_task:
            self.entries.append(FuncEnter(func_id))
            self._stack.append(func_id)

    def on_func_exit(self, func_id: int) -> None:
        if self.enabled and self.in_task:
            self.entries.append(FuncExit(func_id))
            if self._stack and self._stack[-1] == func_id:
                self._stack.pop()

    def on_access(self, addr: int, width: int, is_write: bool, ip: int) -> None:
        if self.enabled and self.in_task:
            self.entries.append(MemAccess(addr, width, is_write, ip))

    @property
    def current_stack(self) -> Tuple[int, ...]:
        """The live simulated call stack (function IDs, outermost first)."""
        return tuple(self._stack)


def kfunc(func: Optional[Callable] = None, *, instrument: bool = True) -> Callable:
    """Decorator marking a kernel-model function as instrumented.

    On every call the wrapper emits function enter/exit records to the
    kernel's tracer, allowing call-stack recovery exactly as in §5.1.
    Functions that do not return exactly once (the paper's ``noreturn``
    case) must be declared with ``instrument=False`` and are skipped.

    The decorated function's first argument must carry a ``tracer``
    attribute (by convention the :class:`~repro.kernel.kernel.Kernel`
    or a subsystem holding a back-reference to it).
    """

    def decorate(fn: Callable) -> Callable:
        if not instrument:
            fn.kit_func_id = None
            return fn

        func_id = FUNCTIONS.register(fn.__qualname__)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            hook = getattr(_PREEMPTION, "hook", None)
            tracer = self.tracer
            traced = tracer is not None and tracer.enabled
            if hook is None and not traced:
                return fn(self, *args, **kwargs)
            if hook is not None:
                hook(func_id, FUNC_ENTER)
            if traced:
                tracer.on_func_enter(func_id)
            try:
                return fn(self, *args, **kwargs)
            finally:
                if traced:
                    tracer.on_func_exit(func_id)
                if hook is not None:
                    hook(func_id, FUNC_EXIT)

        wrapper.kit_func_id = func_id
        return wrapper

    if func is not None:
        return decorate(func)
    return decorate


def walk_with_stack(entries: List[TraceEntry]) -> Iterator[Tuple[MemAccess, Tuple[int, ...]]]:
    """Yield ``(access, call_stack)`` pairs from a raw execution trace.

    Reimplements the paper's simulated call stack: push the function ID on
    enter entries, pop on exit entries, and read the stack off for every
    memory-access entry.  The stack tuple is outermost-first.
    """
    stack: List[int] = []
    for entry in entries:
        if entry.kind == FUNC_ENTER:
            stack.append(entry.func_id)
        elif entry.kind == FUNC_EXIT:
            if stack and stack[-1] == entry.func_id:
                stack.pop()
        else:
            yield entry, tuple(stack)
