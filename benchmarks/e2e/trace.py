"""Outside-in span tracer for the end-to-end benchmark.

The traced repetition wraps each layer's public callables with timers
where their callers look them up — a class attribute for methods, a
module attribute for functions imported by name — so no program file
changes.  Spans are kept in memory and summarized when the run ends.

* Each thread keeps its own span stack: profiling with ``workers > 0``
  runs over a thread pool, and a shared stack would charge one thread's
  child spans to another thread's parent.
* A span's self time is its duration minus the time its child spans
  (on the same thread) cover.  Times are integer nanoseconds, so self
  time can never round below zero.
* A generator callable is timed over its consumption: every resumption
  is charged to one span, and creating the generator costs nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter_ns


class Span:
    """One timed call, or every resumption of one generator."""

    __slots__ = ("name", "thread", "total_ns", "child_ns", "units")

    def __init__(self, name: str, thread: int):
        self.name = name
        self.thread = thread
        self.total_ns = 0
        self.child_ns = 0
        #: Work units the call reported (syscalls run, records written).
        self.units = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


def _machine_run_name(args: tuple, kwargs: dict) -> str:
    # Machine.run(self, container, program, profile=False): profiling
    # runs execute under the kernel tracer and are timed apart.
    profile = kwargs.get("profile", args[3] if len(args) > 3 else False)
    return "machine.run.profile" if profile else "machine.run"


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module`` + ``Class.attr`` or ``attr``."""

    module: str
    path: str
    span: str
    #: Maps the call's result to the span's work units.
    units: Optional[Callable[[Any], int]] = None
    #: Picks the span name from the call's arguments.
    name_of: Optional[Callable[[tuple, dict], str]] = None


#: Every layer boundary the traced repetition times.
TARGETS: Tuple[Target, ...] = (
    Target("repro.core.profile", "Profiler.profile", "profile"),
    Target("repro.core.accessindex", "ColumnarAccessIndex.add_profile",
           "accessindex.add_profile"),
    Target("repro.core.accessindex", "ColumnarAccessIndex.seal",
           "accessindex.seal"),
    Target("repro.core.accessindex", "ColumnarAccessIndex.iter_overlaps",
           "accessindex.iter_overlaps"),
    Target("repro.core.dataflow", "DataFlowIndex.build", "dataflow.build"),
    Target("repro.core.generation", "TestCaseGenerator.generate",
           "generation.generate"),
    Target("repro.core.detection", "Detector.check_case",
           "detection.check_case"),
    Target("repro.core.execution", "TestCaseRunner.run_with_sender",
           "execution.run_with_sender"),
    Target("repro.core.execution", "TestCaseRunner.receiver_alone",
           "execution.receiver_alone"),
    Target("repro.core.execution", "TestCaseRunner.run_prepared",
           "execution.run_prepared"),
    Target("repro.core.nondet", "NondetAnalyzer.nondet_paths", "nondet"),
    Target("repro.core.diagnosis", "Diagnoser.diagnose", "diagnosis"),
    Target("repro.vm.machine", "Machine.reset", "machine.reset"),
    Target("repro.vm.machine", "Machine.run", "machine.run",
           units=lambda result: len(result.records),
           name_of=_machine_run_name),
    Target("repro.vm.machine", "Machine.restore_state_delta",
           "machine.delta_apply"),
    Target("repro.vm.machine", "Machine.capture_state_delta",
           "machine.delta_capture"),
    Target("repro.store.journal", "CampaignJournal.append", "journal.append",
           units=lambda written: 1 if written else 0),
    Target("repro.core.detection", "build_trace_ast", "trace_ast.build"),
    Target("repro.core.detection", "syscall_trace_cmp", "trace_ast.cmp"),
    Target("repro.core.detection", "apply_nondet_marks", "trace_ast.marks"),
    Target("repro.core.pipeline", "aggregate", "aggregation"),
)


@dataclass
class SpanStats:
    """Every span of one name, summed."""

    calls: int
    total_s: float
    self_s: float
    units: int
    p50_us: float
    p99_us: float


class Tracer:
    """Records spans around wrapped callables; use as a context manager."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS):
        self.spans: List[Span] = []
        self._targets = targets
        self._local = threading.local()
        #: (owner, attribute, original raw attribute) to restore.
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, func: Callable, span: str,
             units: Optional[Callable[[Any], int]] = None,
             name_of: Optional[Callable[[tuple, dict], str]] = None
             ) -> Callable:
        """Return *func* timed as span *span*."""
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(func, span)
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(func)
        def timed(*args, **kwargs):
            record = Span(name_of(args, kwargs) if name_of else span,
                          threading.get_ident())
            stack = stack_of()
            stack.append(record)
            start = _clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                record.total_ns = elapsed
                if stack:
                    stack[-1].child_ns += elapsed
                spans.append(record)
            if units is not None:
                record.units = units(result)
            return result

        return timed

    def _wrap_generator(self, func: Callable, span: str) -> Callable:
        spans = self.spans
        stack_of = self._stack

        def consume(inner: Iterator, record: Span) -> Iterator:
            try:
                while True:
                    stack = stack_of()
                    stack.append(record)
                    start = _clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = _clock() - start
                        stack.pop()
                        record.total_ns += elapsed
                        if stack:
                            stack[-1].child_ns += elapsed
                    yield item
            finally:
                inner.close()
                spans.append(record)

        @functools.wraps(func)
        def timed(*args, **kwargs):
            return consume(func(*args, **kwargs),
                           Span(span, threading.get_ident()))

        return timed

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for target in self._targets:
            owner = importlib.import_module(target.module)
            *outer, attr = target.path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, target.span,
                                              target.units, target.name_of))
            else:
                wrapped = self.wrap(raw, target.span, target.units,
                                    target.name_of)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- summaries -----------------------------------------------------------

    def summary(self) -> Dict[str, SpanStats]:
        """Per span name: calls, total and self seconds, units, p50/p99."""
        grouped: Dict[str, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.name, []).append(span)
        result: Dict[str, SpanStats] = {}
        for name, group in sorted(grouped.items()):
            durations = sorted(span.total_ns for span in group)
            result[name] = SpanStats(
                calls=len(group),
                total_s=sum(durations) / 1e9,
                self_s=sum(span.self_ns for span in group) / 1e9,
                units=sum(span.units for span in group),
                p50_us=statistics.median(durations) / 1e3,
                p99_us=durations[min(len(durations) - 1,
                                     int(0.99 * len(durations)))] / 1e3,
            )
        return result
