"""On-disk columnar access-map index with merge-join pairing.

The paper's data-flow map covers 98,853 profiled programs; holding every
access point in one in-memory dict product caps a campaign at a few
hundred.  This module is the map every data-flow campaign pairs
through: access points spill to *sorted run segments* on disk, each
stored column-wise (addr, seq, prog, call, width, ip, stack-hash —
compact uint64 arrays instead of pickled objects), and pairing is a
streaming **merge-join** over the sorted address columns of the write
and read runs.

Peak memory is proportional to one spill buffer plus one address group
(the points at a single kernel address), never to the corpus:

* ``build`` consumes profiles as an *iterator* — callers can feed it
  straight from the profiler without materializing the profile list;
* every run segment is written sorted by ``(addr, seq)`` where ``seq``
  is a global extraction sequence number, so a k-way heap merge over
  runs replays points in corpus order, then trace order — the order
  generation's reservoir sampling consumes its RNG in.  The reference
  :class:`~repro.core.dataflow.DataFlowIndex` appends points in that
  same order, and the parity suite holds the two join rows equal;
* call stacks are interned through a stable 64-bit digest into one
  in-memory table (distinct stacks grow with kernel code paths, not
  with corpus size); run segments store only the digest.

The index is re-iterable: runs persist under the index directory until
:meth:`close`, so generation can stream the join once for clustering
and once more for flow counting.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import shutil
import struct
import tempfile
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .dataflow import (
    AccessPoint,
    Overlap,
    Stack,
    iter_read_points,
    iter_write_points,
)
from .profile import ProgramProfile
from .spec import Specification

#: Columns of one run segment, in file order.  ``seq`` is the global
#: extraction sequence number that freezes insertion order across runs.
COLUMNS = ("addr", "seq", "prog", "call", "width", "ip", "stack")

_MAGIC = b"KAI1"
_HEADER = struct.Struct("<4sQ")
#: Points buffered before a sorted run spills to disk.
DEFAULT_RUN_POINTS = 8192
#: Rows a run cursor reads per chunk while merging.
_CHUNK_ROWS = 1024


def stack_key(stack: Stack) -> int:
    """Stable 64-bit digest of a call stack (stack-table interning key)."""
    payload = b",".join(str(fid).encode() for fid in stack)
    return int.from_bytes(hashlib.sha1(payload).digest()[:8], "big")


class _RunWriter:
    """Buffers points and spills them as sorted columnar run segments."""

    def __init__(self, directory: str, prefix: str, run_points: int,
                 stacks: Dict[int, Stack]):
        self._directory = directory
        self._prefix = prefix
        self._run_points = run_points
        self._stacks = stacks
        self._rows: List[Tuple[int, ...]] = []
        self.paths: List[str] = []
        self.points = 0

    def add(self, seq: int, point: AccessPoint) -> None:
        key = stack_key(point.stack)
        known = self._stacks.get(key)
        if known is None:
            self._stacks[key] = point.stack
        elif known != point.stack:  # pragma: no cover - 2^-64 event
            raise RuntimeError(f"stack digest collision on {key:#x}")
        self._rows.append((point.addr, seq, point.prog_index,
                           point.call_index, point.width, point.ip, key))
        self.points += 1
        if len(self._rows) >= self._run_points:
            self.spill()

    def spill(self) -> None:
        if not self._rows:
            return
        self._rows.sort()  # (addr, seq, ...) — addr-major, seq-minor
        path = os.path.join(self._directory,
                            f"{self._prefix}_{len(self.paths):05d}.run")
        # Listed before it is written, so close() also deletes a run
        # cut short by an interrupt.
        self.paths.append(path)
        with open(path, "wb") as handle:
            handle.write(_HEADER.pack(_MAGIC, len(self._rows)))
            for column in range(len(COLUMNS)):
                # uint64: kernel addresses/ips are 0xffff… values.
                handle.write(array("Q", (row[column]
                                         for row in self._rows)).tobytes())
        self._rows = []


class _RunCursor:
    """Streams one sorted run back, a bounded chunk of rows at a time."""

    def __init__(self, path: str):
        self._path = path
        with open(path, "rb") as handle:
            header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"run segment {path!r} is cut inside its "
                             f"{_HEADER.size}-byte header")
        magic, self._rows = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"bad run segment {path!r}")
        # A truncated or padded run would merge silently into a
        # different join, so its size must match its header's row count.
        expected = _HEADER.size + 8 * len(COLUMNS) * self._rows
        if os.path.getsize(path) != expected:
            raise ValueError(f"run segment {path!r} is not the {expected} "
                             f"bytes its {self._rows} rows need")

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        with open(self._path, "rb") as handle:
            for start in range(0, self._rows, _CHUNK_ROWS):
                count = min(_CHUNK_ROWS, self._rows - start)
                columns = []
                for column in range(len(COLUMNS)):
                    handle.seek(_HEADER.size + 8 * (column * self._rows
                                                    + start))
                    data = array("Q")
                    data.frombytes(handle.read(8 * count))
                    columns.append(data)
                yield from zip(*columns)


class ColumnarAccessIndex:
    """The data-flow map on disk: sorted run segments, merge-join queries.

    Generation consumes :meth:`iter_overlaps` and
    :meth:`total_flow_count`; both stream off the run segments.
    """

    def __init__(self, directory: Optional[str] = None,
                 run_points: int = DEFAULT_RUN_POINTS):
        if run_points < 1:
            raise ValueError("run_points must be >= 1")
        self._owns_dir = directory is None
        self._directory = (tempfile.mkdtemp(prefix="kit-accessindex-")
                           if directory is None else directory)
        os.makedirs(self._directory, exist_ok=True)
        self._stacks: Dict[int, Stack] = {}
        self._writes = _RunWriter(self._directory, "w", run_points,
                                  self._stacks)
        self._reads = _RunWriter(self._directory, "r", run_points,
                                 self._stacks)
        self._seq = 0
        self._sealed = False
        self._flow_count: Optional[int] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, profiles: Iterable[ProgramProfile], spec: Specification,
              directory: Optional[str] = None,
              run_points: int = DEFAULT_RUN_POINTS) -> "ColumnarAccessIndex":
        """Index a profile stream; *profiles* may be any iterable.

        If the stream raises (profiling gave up, or Ctrl-C), the runs
        spilled so far are deleted before the error propagates.
        """
        index = cls(directory, run_points=run_points)
        try:
            for profile in profiles:
                index.add_profile(profile, spec)
            index.seal()
        except BaseException:
            index.close()
            raise
        return index

    def add_profile(self, profile: ProgramProfile,
                    spec: Specification) -> None:
        if self._sealed:
            raise RuntimeError("index already sealed")
        for point in iter_write_points(profile):
            self._writes.add(self._seq, point)
            self._seq += 1
        for point in iter_read_points(profile, spec):
            self._reads.add(self._seq, point)
            self._seq += 1

    def seal(self) -> None:
        """Flush buffered points; the index is then queryable."""
        if self._sealed:
            return
        self._writes.spill()
        self._reads.spill()
        self._sealed = True

    # -- telemetry -----------------------------------------------------------

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def write_points(self) -> int:
        return self._writes.points

    @property
    def read_points(self) -> int:
        return self._reads.points

    @property
    def run_segments(self) -> int:
        return len(self._writes.paths) + len(self._reads.paths)

    def bytes_on_disk(self) -> int:
        paths = self._writes.paths + self._reads.paths
        return sum(os.path.getsize(path) for path in paths
                   if os.path.exists(path))

    # -- the merge-join ------------------------------------------------------

    def _merged(self, paths: List[str]) -> Iterator[Tuple[int, ...]]:
        cursors = [iter(_RunCursor(path)) for path in paths]
        # Runs are sorted by (addr, seq) and seq values never repeat, so
        # the heap merge is total and deterministic.
        return heapq.merge(*cursors)

    def _groups(self, paths: List[str]
                ) -> Iterator[Tuple[int, List[AccessPoint]]]:
        """Merge runs and group rows into per-address point lists."""
        addr: Optional[int] = None
        group: List[AccessPoint] = []
        for row in self._merged(paths):
            if row[0] != addr:
                if group:
                    yield addr, group  # type: ignore[misc]
                addr, group = row[0], []
            group.append(AccessPoint(
                prog_index=row[2], call_index=row[3], addr=row[0],
                width=row[4], ip=row[5], stack=self._stacks[row[6]]))
        if group:
            yield addr, group  # type: ignore[misc]

    def iter_overlaps(self) -> Iterator[Overlap]:
        """Stream (addr, writers, readers) join rows in address order.

        The classic sort-merge join: both sides arrive sorted by
        address, the two group iterators advance in lockstep, and only
        the current address's points are ever resident.  Point order
        within a group is seq order: corpus order, then trace order.
        """
        if not self._sealed:
            raise RuntimeError("seal() the index before querying it")
        flows = 0
        writes = self._groups(self._writes.paths)
        reads = self._groups(self._reads.paths)
        write_row = next(writes, None)
        read_row = next(reads, None)
        while write_row is not None and read_row is not None:
            if write_row[0] < read_row[0]:
                write_row = next(writes, None)
            elif write_row[0] > read_row[0]:
                read_row = next(reads, None)
            else:
                flows += len(write_row[1]) * len(read_row[1])
                yield write_row[0], write_row[1], read_row[1]
                write_row = next(writes, None)
                read_row = next(reads, None)
        self._flow_count = flows

    def total_flow_count(self) -> int:
        """Candidate data flows = Σ_addr |writers| × |readers|."""
        if self._flow_count is None:
            for __ in self.iter_overlaps():
                pass
        return self._flow_count or 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Delete the index's on-disk runs (owned temp dirs entirely)."""
        if self._owns_dir:
            shutil.rmtree(self._directory, ignore_errors=True)
            return
        for path in self._writes.paths + self._reads.paths:
            try:
                os.unlink(path)
            except OSError:
                pass

    def __enter__(self) -> "ColumnarAccessIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
