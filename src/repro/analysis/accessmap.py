"""Syscall -> kernel-state access maps (the static data-flow map).

For every syscall registered in :mod:`repro.kernel.syscalls.table` (and
for every constant ``/proc`` key the procfs dispatcher handles), the
extractor walks the handler with the abstract interpreter and emits its
read/write set over the location lattice.  The result is directly
comparable to what dynamic profiling plus the campaign's access map
(:class:`repro.core.accessindex.ColumnarAccessIndex`) computes from
memory traces — same state, located by name instead of by address.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .interp import AbstractInterpreter
from .locations import Access, FunctionSummary
from .sources import KernelSourceIndex

#: Handler entry names for the two procfs surfaces.
PROC_READ_PREFIX = "proc:"
PROC_WRITE_PREFIX = "procw:"


@dataclass
class SyscallSummary:
    """The static access set of one entry point."""

    name: str
    accesses: Tuple[Access, ...] = ()
    #: The walk hit procfs dispatch with a non-constant key; the entry
    #: may additionally perform any proc-file accesses.
    proc_wildcard: bool = False

    def reads(self) -> List[Access]:
        return [a for a in self.accesses if a.is_read()]

    def writes(self) -> List[Access]:
        return [a for a in self.accesses if a.is_write()]

    def shared_accesses(self) -> List[Access]:
        return [a for a in self.accesses if a.location.is_shared()]


@dataclass
class AccessMap:
    """Access summaries for every static entry point of the kernel."""

    syscalls: Dict[str, SyscallSummary] = field(default_factory=dict)
    #: proc key ("net/ptype", ...) -> summary of ProcFs.render.
    proc_reads: Dict[str, SyscallSummary] = field(default_factory=dict)
    #: proc key -> summary of ProcFs.write.
    proc_writes: Dict[str, SyscallSummary] = field(default_factory=dict)
    #: The Kernel.syscall dispatch preamble (bookkeeping accesses).
    dispatch: Optional[SyscallSummary] = None

    def entries(self) -> Dict[str, SyscallSummary]:
        out: Dict[str, SyscallSummary] = dict(self.syscalls)
        for key, summary in self.proc_reads.items():
            out[PROC_READ_PREFIX + key] = summary
        for key, summary in self.proc_writes.items():
            out[PROC_WRITE_PREFIX + key] = summary
        return out

    def paths(self) -> List[str]:
        seen = set()
        for summary in self.entries().values():
            for access in summary.accesses:
                seen.add(access.path)
        return sorted(seen)


def discover_handlers(index: KernelSourceIndex
                      ) -> Dict[str, ast.FunctionDef]:
    """Map syscall name -> handler FunctionDef from the table's AST.

    Handlers are declared as ``@syscall(SyscallDecl("<name>", ...))``;
    the declaration's first positional argument is the name.
    """
    module = index.modules.get("repro.kernel.syscalls.table")
    if module is None:
        raise RuntimeError("repro.kernel.syscalls.table not found")
    handlers: Dict[str, ast.FunctionDef] = {}
    for funcdef in module.functions.values():
        for decorator in funcdef.decorator_list:
            if not (isinstance(decorator, ast.Call)
                    and isinstance(decorator.func, ast.Name)
                    and decorator.func.id == "syscall"
                    and decorator.args):
                continue
            decl = decorator.args[0]
            if (isinstance(decl, ast.Call) and decl.args
                    and isinstance(decl.args[0], ast.Constant)
                    and isinstance(decl.args[0].value, str)):
                handlers[decl.args[0].value] = funcdef
    return handlers


def discover_proc_keys(index: KernelSourceIndex,
                       method: str = "render") -> List[str]:
    """Constant /proc keys the dispatcher compares against."""
    found = index.method_def("ProcFs", method)
    if found is None:
        return []
    __, funcdef = found
    keys: List[str] = []
    for node in ast.walk(funcdef):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        if not isinstance(node.ops[0], (ast.Eq, ast.In)):
            continue
        sides = [node.left] + node.comparators
        names = [s for s in sides if isinstance(s, ast.Name)]
        if not any(n.id == "key" for n in names):
            continue
        for side in sides:
            if isinstance(side, ast.Constant) and isinstance(side.value,
                                                             str):
                keys.append(side.value)
            elif isinstance(side, (ast.Tuple, ast.List, ast.Set)):
                keys.extend(e.value for e in side.elts
                            if isinstance(e, ast.Constant)
                            and isinstance(e.value, str))
    seen = set()
    ordered = []
    for key in keys:
        if key not in seen:
            seen.add(key)
            ordered.append(key)
    return ordered


def _to_summary(name: str, summary: FunctionSummary) -> SyscallSummary:
    return SyscallSummary(name, summary.accesses, summary.proc_wildcard)


def extract_access_map(bugs: Any = None,
                       index: Optional[KernelSourceIndex] = None,
                       src_dir: Optional[str] = None) -> AccessMap:
    """Build the full static access map for one kernel version.

    *bugs* is a :class:`repro.kernel.bugs.BugFlags` (folding each
    injected-bug conditional to that version's branch) or None for
    union mode, where both branches of every bug conditional are
    walked and the map over-approximates all versions at once.
    """
    index = index or KernelSourceIndex(src_dir)
    interp = AbstractInterpreter(index, bugs)
    table = index.modules["repro.kernel.syscalls.table"]
    out = AccessMap()

    for name, funcdef in sorted(discover_handlers(index).items()):
        summary = interp.walk_handler(table, funcdef, funcdef.name)
        out.syscalls[name] = _to_summary(name, summary)

    procfs_found = index.method_def("ProcFs", "render")
    if procfs_found is not None:
        procfs_cls, render = procfs_found
        for key in discover_proc_keys(index, "render"):
            summary = interp.walk_method(
                procfs_cls, render,
                ("inst", "ProcFs", "kernel.procfs", "global"),
                {"task": ("task", "own"), "key": ("const", key)},
                qualname="ProcFs.render")
            out.proc_reads[key] = _to_summary(key, summary)
    write_found = index.method_def("ProcFs", "write")
    if write_found is not None:
        procfs_cls, write = write_found
        for key in discover_proc_keys(index, "write"):
            summary = interp.walk_method(
                procfs_cls, write,
                ("inst", "ProcFs", "kernel.procfs", "global"),
                {"task": ("task", "own"), "key": ("const", key),
                 "data": None},
                qualname="ProcFs.write")
            out.proc_writes[key] = _to_summary(key, summary)

    kernel_found = index.method_def("Kernel", "syscall")
    if kernel_found is not None:
        kernel_cls, syscall = kernel_found
        summary = interp.walk_method(
            kernel_cls, syscall, ("kernel",),
            {"task": ("task", "own"), "name": None, "args": ("args",)},
            qualname="Kernel.syscall")
        out.dispatch = _to_summary("(dispatch)", summary)
    return out
