"""Inter-container data-flow analysis (paper §4.1.1, §5.1).

"KIT uses a multi-dimensional map to process the kernel memory accesses
made by test programs.  The keys of the map include width, read/write
flag, memory address, instruction address, and call stack hash.  The
value of the map is a list of test programs."

That map is split by direction: for every kernel address, the distinct
*write points* observed while profiling each program in the **sender**
container, and the distinct *read points* observed in the **receiver**
container.  A write point and a read point at the same address form a
candidate inter-container data flow.

This module extracts the points.  Campaigns pair them through the
on-disk merge-join of :mod:`repro.core.accessindex`; the in-memory
:class:`DataFlowIndex` here is the reference the parity suite and the
corpus-scale gate compare that join against.

Per §4.1.1, read points only count when the reading syscall accesses a
namespace-protected resource (the specification gate): a reader that
cannot observe protected state cannot witness a namespace bug, so flows
into it are not worth testing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .profile import ProgramProfile
from .spec import Specification

Stack = Tuple[int, ...]


def stack_sha1(stack: Stack) -> str:
    """SHA-1 of the function-ID sequence, as the paper's map key uses."""
    payload = b",".join(str(fid).encode() for fid in stack)
    return hashlib.sha1(payload).hexdigest()


@dataclass(frozen=True)
class AccessPoint:
    """One deduplicated (program, site) access to a kernel address."""

    prog_index: int
    call_index: int
    addr: int
    width: int
    ip: int
    stack: Stack

    def stack_suffix(self, depth: int) -> Stack:
        """The innermost *depth* frames (call-stack-depth limiting, §4.1.2)."""
        if depth <= 0:
            return ()
        return self.stack[-depth:]


def iter_write_points(profile: ProgramProfile) -> Iterator[AccessPoint]:
    """One profile's deduplicated sender-side write points, in trace order.

    The canonical extraction: the campaign's
    :class:`~repro.core.accessindex.ColumnarAccessIndex` and the
    reference :class:`DataFlowIndex` both consume this iterator, so the
    two see byte-identical point sets by construction.
    """
    seen: Set[Tuple[int, int, Stack, int]] = set()
    for call_index, accesses in enumerate(profile.sender.accesses):
        if accesses is None:
            continue
        for access, stack in accesses:
            if not access.is_write:
                continue
            key = (access.addr, access.ip, stack, access.width)
            if key in seen:
                continue
            seen.add(key)
            yield AccessPoint(profile.index, call_index, access.addr,
                              access.width, access.ip, stack)


def iter_read_points(profile: ProgramProfile,
                     spec: Specification) -> Iterator[AccessPoint]:
    """One profile's deduplicated, spec-gated receiver read points."""
    seen: Set[Tuple[int, int, Stack, int]] = set()
    for call_index, accesses in enumerate(profile.receiver.accesses):
        if accesses is None:
            continue
        record = (profile.receiver.records[call_index]
                  if call_index < len(profile.receiver.records) else None)
        # §4.1.1's gate: the reader syscall must access a protected
        # resource, otherwise it cannot detect namespace interference.
        if record is None or not spec.call_accesses_protected(record):
            continue
        for access, stack in accesses:
            if access.is_write:
                continue
            key = (access.addr, access.ip, stack, access.width)
            if key in seen:
                continue
            seen.add(key)
            yield AccessPoint(profile.index, call_index, access.addr,
                              access.width, access.ip, stack)


#: (address, write points at it, read points at it) — the join row
#: generation consumes.
Overlap = Tuple[int, List[AccessPoint], List[AccessPoint]]


class DataFlowIndex:
    """Write/read points per kernel address, held in memory.

    The reference map: no campaign builds it.  Tests and the
    corpus-scale gate compare the columnar merge-join against it.
    """

    def __init__(self) -> None:
        self.writers: Dict[int, List[AccessPoint]] = {}
        self.readers: Dict[int, List[AccessPoint]] = {}

    @classmethod
    def build(cls, profiles: Sequence[ProgramProfile],
              spec: Specification) -> "DataFlowIndex":
        index = cls()
        for profile in profiles:
            for point in iter_write_points(profile):
                index.writers.setdefault(point.addr, []).append(point)
            for point in iter_read_points(profile, spec):
                index.readers.setdefault(point.addr, []).append(point)
        return index

    # -- queries ------------------------------------------------------------

    def overlap_addresses(self) -> List[int]:
        """Addresses written by some sender and read by some receiver."""
        return sorted(set(self.writers) & set(self.readers))

    def iter_overlaps(self) -> Iterator[Overlap]:
        """Join rows in ascending address order.

        Point lists keep insertion order (corpus order, then trace
        order) — the order generation's reservoir sampling consumes its
        RNG in, so the columnar join must reproduce it exactly.
        """
        for addr in self.overlap_addresses():
            yield addr, self.writers[addr], self.readers[addr]

    def total_flow_count(self) -> int:
        """Candidate data flows = Σ_addr |writers| × |readers|.

        This is the unclustered "DF" test-case count of Table 4 — the
        quantity that explodes (234M in the paper) and that clustering
        exists to tame.
        """
        total = 0
        for addr in self.overlap_addresses():
            total += len(self.writers[addr]) * len(self.readers[addr])
        return total
