"""Syzlang-lite: typed syscall declarations.

KIT builds on Syzkaller's system-call descriptions (syzlang) in two
places: the test-program corpus is generated from them, and the
specification layer (§4.3.1 / §5.3) selects protected syscalls by
*resource identifier* — the type tag of a file descriptor or IPC id.

A declaration lists the argument specs (with value domains the corpus
generator draws from) and the resource kind the call returns, if any.
Argument kinds:

``int``      plain integer drawn from ``choices`` (or small range)
``flags``    integer flag mask drawn from ``choices``
``str``      string drawn from ``choices``
``path``     filesystem path drawn from ``choices``
``fd``       a file descriptor — runtime resource kind comes from the
             fd table; ``resource`` narrows what the generator wires in
``res``      a non-fd kernel resource id (msqid, …) with a static kind
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ArgSpec:
    """One declared syscall argument."""

    name: str
    kind: str  # int | flags | str | path | fd | res
    resource: Optional[str] = None
    choices: Tuple = ()

    def __post_init__(self) -> None:
        valid = {"int", "flags", "str", "path", "fd", "res"}
        if self.kind not in valid:
            raise ValueError(f"bad arg kind {self.kind!r}")
        if self.kind in ("fd", "res") and self.resource is None:
            raise ValueError(f"{self.kind} arg {self.name!r} needs a resource")


@dataclass(frozen=True)
class SyscallDecl:
    """One declared syscall."""

    name: str
    args: Tuple[ArgSpec, ...]
    #: Resource kind produced by a successful call (fd kinds are refined
    #: at runtime from the installed file object).
    ret_resource: Optional[str] = None
    #: Relative probability in the random corpus generator.
    weight: float = 1.0

    def resource_args(self) -> Tuple[ArgSpec, ...]:
        return tuple(a for a in self.args if a.kind in ("fd", "res"))


class DeclRegistry:
    """All declared syscalls, by name."""

    def __init__(self) -> None:
        self._decls: Dict[str, SyscallDecl] = {}

    def add(self, decl: SyscallDecl) -> SyscallDecl:
        if decl.name in self._decls:
            raise ValueError(f"duplicate syscall {decl.name}")
        self._decls[decl.name] = decl
        return decl

    def get(self, name: str) -> SyscallDecl:
        return self._decls[name]

    def __contains__(self, name: str) -> bool:
        return name in self._decls

    def names(self) -> Sequence[str]:
        return sorted(self._decls)

    def all(self) -> Sequence[SyscallDecl]:
        return [self._decls[name] for name in sorted(self._decls)]


DECLS = DeclRegistry()
