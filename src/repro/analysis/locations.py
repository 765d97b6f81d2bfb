"""The kernel-state location lattice.

Every piece of mutable state the abstract interpreter can reach is
named by a :class:`StateLocation`: a dotted *path* plus a *scope* that
says which containers share the state.

Paths
-----

``kernel.<subsystem>.<field>``
    State hanging off a :class:`~repro.kernel.kernel.Kernel` subsystem
    attribute — ``kernel.net.sockets_used_global``,
    ``kernel.ptype.ptype_all``, ``kernel.vfs.anon_dev_next``.
``ns:<nstype>.<field>``
    State inside a namespace instance — ``ns:net.port_table``,
    ``ns:uts.hostname``, ``ns:ipc.msg_queues``.
``task.<field>``
    Per-task state — ``task.nice``, ``task.nsproxy``.
``fd.<field>``
    State inside an object reached through the caller's fd table
    (sockets, open files) — ``fd.rx_queue``, ``fd.offset``.

Scopes
------

The scope qualifies *whose instance* the path names:

``GLOBAL``
    A single kernel-wide allocation; every container aliases it.
``NAMESPACE``
    The instance belonging to the calling task's namespace; distinct
    containers resolve the same path to distinct allocations.
``TASK``
    The calling task's own struct, or an object owned by one of its
    fds; private to the container.
``BROADCAST``
    A path reached by *enumerating* instances across namespaces
    (``kernel.namespaces.live(...)``, ``tasks.all_tasks()``): one
    container's access touches every other container's instance.
``INIT``
    The init namespace's instance, reached through a
    ``kernel.init_*`` escape hatch rather than ``task.nsproxy``.

The lattice deliberately mirrors the arena's aliasing semantics
(:mod:`repro.kernel.memory`): GLOBAL/BROADCAST/INIT paths are the ones
whose runtime addresses can collide across containers, so only they can
carry inter-container interference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

GLOBAL = "global"
NAMESPACE = "namespace"
TASK = "task"
BROADCAST = "broadcast"
INIT = "init"

#: Scopes whose instances are shared (or reachable) across containers.
SHARED_SCOPES: FrozenSet[str] = frozenset({GLOBAL, BROADCAST, INIT})

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class StateLocation:
    """One canonical kernel-state location."""

    path: str
    scope: str

    def is_shared(self) -> bool:
        return self.scope in SHARED_SCOPES

    def __str__(self) -> str:
        return f"{self.path} [{self.scope}]"


@dataclass(frozen=True)
class Access:
    """One static access to a :class:`StateLocation`.

    ``traced``
        Whether the runtime access goes through the traced arena
        (``kget``/``kset``/container ops) or bypasses it
        (``peek``/``poke``, plain-Python containers).  Only traced
        accesses can appear in dynamic profiles.
    ``observable``
        Whether the *value* read can flow into the syscall's result.
        A read-modify-write whose result is discarded (a bare
        ``cell.add(n)`` statement) reads memory but can never surface
        in a trace divergence.  Always True for writes.
    ``guarded``
        Whether the enclosing function applies a namespace guard
        (an ``is``/``is not`` comparison against a namespace value, a
        PID translation, or a namespace-filtering comprehension) —
        the lint's evidence that a global read is deliberate
        filtering rather than an escape.
    ``locks``
        The *must-held* lockset at the access: canonical paths of
        every kernel lock object (``KLock``) whose ``with`` block
        lexically or interprocedurally encloses this program point.
        Exact (not may-held): ``with`` is lexically scoped, so a lock
        pushed on entry to the block is guaranteed held throughout.
    """

    location: StateLocation
    kind: str  # READ | WRITE
    file: str
    line: int
    function: str
    traced: bool = True
    observable: bool = True
    guarded: bool = False
    locks: Tuple[str, ...] = ()

    @property
    def path(self) -> str:
        return self.location.path

    @property
    def scope(self) -> str:
        return self.location.scope

    def is_read(self) -> bool:
        return self.kind == READ

    def is_write(self) -> bool:
        return self.kind == WRITE

    def site(self) -> str:
        return f"{self.file}:{self.line}"

    def __str__(self) -> str:
        flags = "".join((
            "" if self.traced else "u",
            "" if self.observable else "b",
            "g" if self.guarded else "",
        ))
        suffix = f" ({flags})" if flags else ""
        held = f" <{','.join(self.locks)}>" if self.locks else ""
        return (f"{self.kind:<5} {self.location} in {self.function} "
                f"at {self.site()}{suffix}{held}")


@dataclass
class FunctionSummary:
    """Everything one walked function contributed."""

    function: str
    accesses: Tuple[Access, ...] = ()
    #: A namespace guard was seen while walking (after flag folding).
    guarded: bool = False
    #: The walk hit a /proc render with a non-constant key: the
    #: function may read any proc file (treated as a boundary by the
    #: lint).
    proc_wildcard: bool = False

