"""Shared-memory segment store for the multiprocess shard pool.

The snapshot a campaign boots from, and the hot post-sender
:class:`~repro.vm.segments.StateDelta` blobs the sender cache memoizes,
are immutable byte strings.  When execution shards are separate
processes (``shard_mode="process"``), copying those bytes into every
shard would multiply the campaign's memory footprint by the shard count
and serialize boot on the copy.  This module instead places them in
POSIX shared memory (``multiprocessing.shared_memory``), so every shard
maps the same physical pages:

* :class:`SegmentStore` — the refcounted lifecycle manager.  Every
  segment a campaign creates carries a campaign-unique name prefix, so
  an end-of-campaign :meth:`~SegmentStore.cleanup` sweep can reclaim
  *every* segment — including ones published by a shard that was
  SIGKILLed mid-write — by globbing ``/dev/shm``.  No segment survives
  a campaign; :meth:`~SegmentStore.active_segments` is the leak audit.

* :class:`SharedSnapshot` — the base snapshot published once by the
  parent: the full kernel pickle plus the per-group segmented payloads,
  packed into one segment behind an offset table.  A shard attaches and
  boots its machine directly from the mapped bytes (zero copies of the
  payloads; see :meth:`~repro.vm.machine.Machine` ``shared_snapshot``).

* :class:`DeltaStore` — the shared tier of the two-tier sender cache.
  Entries use *deterministic* names (digest of the cache key), so no
  cross-process index is needed: publish is create-or-already-exists,
  fetch is attach-or-miss.

Torn-write safety: each segment starts with an 8-byte committed-length
header that is written *last*.  A reader that attaches a segment whose
writer died mid-copy sees length 0 and treats it as a miss; the
half-written segment is reclaimed by the cleanup sweep.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - import guard for exotic builds
    from multiprocessing import resource_tracker, shared_memory
    HAVE_SHM = True
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]
    HAVE_SHM = False

#: Committed payload length, little-endian u64, written after the body.
_HEADER = struct.Struct("<Q")

#: Where Linux materializes POSIX shared memory as files; the cleanup
#: sweep and the leak audit glob this directory by campaign prefix.
_SHM_DIR = "/dev/shm"


def _untrack(name: str) -> None:
    """Detach *name* from the resource tracker's shutdown bookkeeping.

    Python registers every ``SharedMemory`` — attachments included —
    with the per-process resource tracker, which unlinks (and warns
    about) anything still registered at interpreter exit.  The store
    owns its segments' lifecycle explicitly, so tracker interference
    would double-unlink live segments out from under sibling shards.
    """
    if resource_tracker is None:
        return
    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


class SegmentStore:
    """Refcounted create/attach/close/unlink for one campaign's segments.

    All names share the campaign-unique :attr:`prefix`; suffixes are
    chosen by callers (the snapshot publisher, the delta store).  The
    store tracks every open mapping with a refcount so a segment's
    buffer is only closed when its last view is released, and remembers
    every name it ever touched so :meth:`cleanup` reclaims them even on
    platforms without a globbable ``/dev/shm``.
    """

    def __init__(self, prefix: Optional[str] = None) -> None:
        if not HAVE_SHM:
            raise RuntimeError("multiprocessing.shared_memory is not "
                               "available on this platform")
        self.prefix = prefix or \
            f"kitshm-{os.getpid():x}-{os.urandom(4).hex()}"
        self._lock = threading.Lock()
        #: full name -> (mapping, refcount, exported payload view).
        self._open: Dict[str, Tuple[Any, int, memoryview]] = {}
        #: every full name this store created or attached (cleanup set).
        self._known: set = set()
        #: mappings whose payload views are still borrowed (e.g. a live
        #: machine booted from them): detached from bookkeeping but kept
        #: referenced so they are not finalized under the borrower; the
        #: pages are freed when the process exits.
        self._zombies: List[Tuple[Any, memoryview]] = []
        self.created = 0
        self.created_bytes = 0

    def _release_mapping(self, segment: Any, view: memoryview) -> None:
        """Close one mapping, parking it if its view is still borrowed."""
        try:
            view.release()
            segment.close()
        except BufferError:
            # Neutralize the finalizer: it would retry the close at
            # interpreter shutdown (in arbitrary GC order) and spray
            # ignored BufferErrors.  The mapping is freed at exit.
            segment.close = lambda: None  # type: ignore[method-assign]
            with self._lock:
                self._zombies.append((segment, view))

    # -- naming ------------------------------------------------------------

    def name_of(self, suffix: str) -> str:
        return f"{self.prefix}-{suffix}"

    # -- create / attach ---------------------------------------------------

    def create(self, suffix: str, payload: bytes) -> bool:
        """Create and commit one segment; False if it already exists.

        The already-exists outcome is the deduplication contract the
        delta store's deterministic names rely on: two shards publishing
        the same key race on ``FileExistsError``, and the loser simply
        keeps its local copy.  The committed-length header is written
        after the body, so a reader never observes a torn payload.
        """
        name = self.name_of(suffix)
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=_HEADER.size + len(payload))
        except FileExistsError:
            return False
        try:
            _untrack(name)
            # Registered before the commit: if the copy below fails,
            # cleanup() can still find the name on platforms without a
            # globbable /dev/shm (the known set is its only fallback).
            with self._lock:
                self._known.add(name)
            segment.buf[_HEADER.size:_HEADER.size + len(payload)] = payload
            segment.buf[:_HEADER.size] = _HEADER.pack(len(payload))
        finally:
            segment.close()
        with self._lock:
            self.created += 1
            self.created_bytes += len(payload)
        return True

    def attach_view(self, suffix: str) -> Optional[memoryview]:
        """Map one committed segment and return its payload as a view.

        Returns ``None`` for a missing or uncommitted segment.  The
        mapping stays open (refcounted) until a matching
        :meth:`detach`; views are read-only so no shard can scribble on
        pages every other shard has mapped.
        """
        name = self.name_of(suffix)
        with self._lock:
            entry = self._open.get(name)
            if entry is not None:
                segment, refs, view = entry
                self._open[name] = (segment, refs + 1, view)
                return view
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return None
        _untrack(name)
        (length,) = _HEADER.unpack_from(segment.buf, 0)
        if _HEADER.size + length > segment.size:
            length = 0  # header corrupt: treat as uncommitted
        if length == 0:
            segment.close()
            return None
        view = segment.buf[_HEADER.size:_HEADER.size + length].toreadonly()
        with self._lock:
            self._known.add(name)
            racing = self._open.get(name)
            if racing is not None:
                # Lost an attach race in another thread: keep theirs.
                other, refs, other_view = racing
                self._open[name] = (other, refs + 1, other_view)
                view.release()
                segment.close()
                return other_view
            self._open[name] = (segment, 1, view)
        return view

    def detach(self, suffix: str) -> None:
        """Release one reference to an attached segment."""
        name = self.name_of(suffix)
        with self._lock:
            entry = self._open.get(name)
            if entry is None:
                return
            segment, refs, view = entry
            if refs > 1:
                self._open[name] = (segment, refs - 1, view)
                return
            del self._open[name]
        self._release_mapping(segment, view)

    def refcount(self, suffix: str) -> int:
        with self._lock:
            entry = self._open.get(self.name_of(suffix))
            return entry[1] if entry is not None else 0

    def fetch(self, suffix: str) -> Optional[bytes]:
        """Copy one committed segment's payload out (attach/copy/detach)."""
        view = self.attach_view(suffix)
        if view is None:
            return None
        try:
            return bytes(view)
        finally:
            self.detach(suffix)

    # -- unlink / cleanup --------------------------------------------------

    def unlink(self, suffix: str) -> bool:
        """Remove one segment's name; open mappings elsewhere stay valid.

        POSIX semantics: unlinking only removes the name, so a shard
        that already attached the segment keeps reading its pages; any
        later attach by name misses.  Idempotent — a second unlink (or
        unlinking a name a dead shard never finished creating) is a
        no-op.
        """
        name = self.name_of(suffix)
        with self._lock:
            entry = self._open.pop(name, None)
        if entry is not None:
            segment, _refs, view = entry
            self._release_mapping(segment, view)
        return self._unlink_name(name)

    def _unlink_name(self, name: str) -> bool:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return False
        # No _untrack here: this attach registered with the tracker, and
        # segment.unlink() below unregisters — the pair balances.  An
        # extra unregister would make the tracker daemon log a KeyError.
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - unlink race
            _untrack(name)
            return False
        return True

    def active_segments(self) -> List[str]:
        """Every live segment with this store's prefix (the leak audit).

        Scans ``/dev/shm`` where available, so it also finds segments
        published by shards the parent never heard from (a SIGKILL
        between create and announce); falls back to the known-name set.
        """
        found = set()
        if os.path.isdir(_SHM_DIR):
            try:
                for entry in os.listdir(_SHM_DIR):
                    if entry.startswith(self.prefix):
                        found.add(entry)
            except OSError:  # pragma: no cover
                pass
        with self._lock:
            known = list(self._known)
        for name in known:
            if name not in found and os.path.exists(
                    os.path.join(_SHM_DIR, name)):
                found.add(name)
        return sorted(found)

    def open_mappings(self) -> int:
        """Number of segments this store currently has mapped."""
        with self._lock:
            return len(self._open)

    def cleanup(self) -> int:
        """Close every mapping and unlink every segment of this campaign.

        Returns the number of segments reclaimed.  Run in a ``finally``
        around the execution stage: combined with the campaign-unique
        prefix it guarantees no ``/dev/shm`` entry outlives the run, no
        matter how workers died.
        """
        with self._lock:
            open_now = list(self._open.values())
            self._open.clear()
        for segment, _refs, view in open_now:
            self._release_mapping(segment, view)
        reclaimed = 0
        for name in self.active_segments():
            if self._unlink_name(name):
                reclaimed += 1
        return reclaimed


def pack_segments(parts: Sequence[bytes]) -> bytes:
    """Concatenate byte blobs behind a u64 count + per-part length table."""
    head = _HEADER.pack(len(parts)) + b"".join(
        _HEADER.pack(len(part)) for part in parts)
    return head + b"".join(bytes(part) for part in parts)


def unpack_views(buffer: memoryview) -> List[memoryview]:
    """Slice a packed buffer back into zero-copy per-part views."""
    (count,) = _HEADER.unpack_from(buffer, 0)
    lengths = [_HEADER.unpack_from(buffer, _HEADER.size * (1 + i))[0]
               for i in range(count)]
    views: List[memoryview] = []
    offset = _HEADER.size * (1 + count)
    for length in lengths:
        views.append(buffer[offset:offset + length])
        offset += length
    return views


class SharedSnapshotView:
    """One shard's mapping of the published base snapshot."""

    __slots__ = ("content_id", "description", "blob", "payloads")

    def __init__(self, content_id: str, description: str,
                 blob: memoryview, payloads: Optional[List[memoryview]]):
        self.content_id = content_id
        self.description = description
        self.blob = blob
        #: Per-group segmented payloads, or None for full-restore
        #: snapshots (no segmented image was published).
        self.payloads = payloads


class SharedSnapshot:
    """The base snapshot, published once and mapped by every shard.

    Layout (one segment, suffix ``snap``): a pickled metadata dict
    (content id, description, whether a segmented image is included),
    the full kernel pickle, then one part per segmented group payload —
    all behind :func:`pack_segments`' offset table.  The content id is
    carried from the parent, so a shard's machine reports the *same*
    :attr:`~repro.vm.machine.Machine.snapshot_id` without hashing the
    blob again — the compatibility key every shared delta relies on.
    """

    SUFFIX = "snap"

    def __init__(self, store: SegmentStore) -> None:
        self._store = store

    @classmethod
    def publish(cls, store: SegmentStore, snapshot: Any) -> "SharedSnapshot":
        """Pack *snapshot* (a :class:`~repro.vm.snapshot.Snapshot`)."""
        meta = {
            "content_id": snapshot.content_id,
            "description": snapshot.description,
            "segmented": snapshot.image is not None,
        }
        parts: List[bytes] = [
            pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL),
            snapshot.blob,
        ]
        if snapshot.image is not None:
            parts.extend(snapshot.image.payloads)
        if not store.create(cls.SUFFIX, pack_segments(parts)):
            raise RuntimeError("base snapshot already published "
                               f"under prefix {store.prefix}")
        return cls(store)

    def attach(self) -> SharedSnapshotView:
        """Map the published snapshot (call in the shard process)."""
        buffer = self._store.attach_view(self.SUFFIX)
        if buffer is None:
            raise RuntimeError("shared base snapshot is missing "
                               f"(prefix {self._store.prefix})")
        parts = unpack_views(buffer)
        meta = pickle.loads(parts[0])
        payloads = list(parts[2:]) if meta["segmented"] else None
        return SharedSnapshotView(meta["content_id"], meta["description"],
                                  parts[1], payloads)

    def detach(self) -> None:
        self._store.detach(self.SUFFIX)


class DeltaStore:
    """Publish-once shared blobs under deterministic digest names.

    The shared tier of the two-tier sender cache: keys are the local
    tier's ``(snapshot content id, sender hash)`` tuples, hashed into a
    segment suffix.  Because the name is a pure function of the key, no
    cross-process index exists to keep coherent — *the shm namespace is
    the index*.  ``publish`` is idempotent across shards (first create
    wins); ``fetch`` is attach-or-miss.

    Each process tracks the names it published
    (:meth:`take_published`) so the shard protocol can report them to
    the supervisor, which unlinks a dead shard's blobs: they may
    describe a corrupted machine, and unlike the shard's local cache
    entries they outlive its process.
    """

    def __init__(self, store: SegmentStore) -> None:
        self._store = store
        self._lock = threading.Lock()
        self._published: List[str] = []
        self.publishes = 0
        self.fetch_hits = 0
        self.fetch_misses = 0

    @staticmethod
    def suffix_of(key: Any) -> str:
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return f"d{digest[:32]}"

    def publish(self, key: Any, payload: bytes) -> Optional[str]:
        """Publish *payload* under *key*; None if already present."""
        suffix = self.suffix_of(key)
        if not self._store.create(suffix, payload):
            return None
        with self._lock:
            self._published.append(suffix)
            self.publishes += 1
        return suffix

    def fetch(self, key: Any) -> Optional[bytes]:
        payload = self._store.fetch(self.suffix_of(key))
        with self._lock:
            if payload is None:
                self.fetch_misses += 1
            else:
                self.fetch_hits += 1
        return payload

    def unlink(self, suffix: str) -> bool:
        return self._store.unlink(suffix)

    def take_published(self) -> List[str]:
        """Names published by this process since the last take."""
        with self._lock:
            published, self._published = self._published, []
            return published
