"""Segmented kernel snapshots — the fast-restore engine behind §6.5.

A full snapshot restore deserializes the *entire* kernel before every
run, even though a short test program mutates only a sliver of it.  This
module decomposes one kernel into **segments** — disjoint groups of
snapshot *roots* (the kernel shell, the arena, the clock, every
subsystem singleton, every namespace instance, every task) — pickles
each group into its own payload, and restores **in place**: dirty
groups are re-materialized from their payloads while clean groups keep
their live (still-pristine) objects.

Correctness rests on three pillars:

1. **Identity-stable roots.**  Restoring never replaces a root object;
   it overwrites the root's ``__dict__``/slots from the payload.  Every
   cross-segment reference goes through a persistent id — the bare root
   key, resolved in C by the live root table's ``__getitem__`` — so
   clean segments can never see a stale object.  A *flat* group, whose
   captured state holds only immutable values and root references (the
   kernel shell, the arena, the clock), restores by copying that state
   instead of unpickling it: nothing in it can alias live state.
2. **Closure by construction.**  While taking the snapshot, a canonical
   walk records every mutable interior object each root's state reaches.
   Roots that *share* a mutable interior are merged into one group
   (union-find) and pickled with a common memo, so a payload is always a
   closed object graph — no restore order can split a shared object in
   two or revive a stale alias.
3. **Write-barrier dirty tracking.**  Traced kernel-memory writes are
   mapped (field address → group) through a hook on the arena; untraced
   structural mutations (nsproxy swaps, mount-table edits, task and
   namespace creation) are marked explicitly via
   ``Kernel.mark_dirty_object``.  An opt-in consistency check re-walks
   every root after an incremental restore and compares its canonical
   state against the snapshot reference, naming any divergent root — so
   speed is never silently traded for correctness (see
   ``MachineConfig.verify_restore``).

The canonical serialization (:func:`state_fingerprint`) is deliberately
*not* ``pickle.dumps``: pickle encodes sharing of **immutable** objects
(interned strings, small ints) as memo back-references, so two
semantically identical kernels — one restored in place, one freshly
unpickled — can produce different pickles.  The canonical form encodes
values, dict ordering, and aliasing of **mutable** objects only, which
is exactly the state the kernel model can observe.

Objects created *after* the snapshot (sockets, open files, unshared
namespaces) are not roots: writes to their addresses are ignored, and
they vanish when the containers that reference them are restored — the
same lifetime they had under full restore.
"""

from __future__ import annotations

import enum
import io
import pickle
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..kernel.kernel import Kernel
from ..kernel.memory import KCell, KDict, KList, KStruct

#: A stable, picklable identifier for one snapshot root.
RootKey = Tuple[Any, ...]

_PROTO = pickle.HIGHEST_PROTOCOL

#: Kernel attributes that are runtime plumbing or dedicated roots of
#: their own, not ``("sub", name)`` subsystem roots.
_KERNEL_NON_SUB_ATTRS = frozenset({
    "config", "bugs", "tracer", "syscall_seq", "_dirty_roots",
    "arena", "clock", "namespaces", "tasks", "init_nsproxy",
    "init_mnt_ns", "init_net", "init_task",
})

#: Root keys whose groups are restored on *every* reset: their state
#: mutates through untraced paths on effectively every run (virtual
#: time, the syscall sequence counter, the allocator watermark, and
#: conntrack's per-tick background churn).
_ALWAYS_DIRTY_KEYS = (
    ("kernel",), ("clock",), ("arena",), ("sub", "conntrack"),
)


class RestoreConsistencyError(AssertionError):
    """An incremental restore produced state diverging from the snapshot."""

    def __init__(self, offenders: List[RootKey]):
        self.offenders = offenders
        super().__init__(
            "segmented restore diverged from the full snapshot on root(s) "
            + ", ".join(repr(key) for key in offenders)
            + " — a mutation escaped dirty tracking")


def _capture_state(key: RootKey, obj: Any) -> Dict[str, Any]:
    """One root's restorable state, preserving ``__dict__`` key order."""
    if key == ("arena",):
        # The arena's only kernel state is the allocator watermark; the
        # tracer and dirty hook are live plumbing that must survive.
        return {"_next_addr": obj._next_addr}
    d = getattr(obj, "__dict__", None)
    if d is not None:
        state = dict(d)
        if key == ("kernel",):
            # Placeholders: the tracer and the dirty-root set stay live
            # (see _apply_state), but keep their ``__dict__`` positions.
            state["tracer"] = state["_dirty_roots"] = None
        return state
    state = {}
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name != "__dict__" and hasattr(obj, name):
                state[name] = getattr(obj, name)
    return state


def _apply_state(key: RootKey, obj: Any, state: Dict[str, Any]) -> None:
    """Overwrite *obj* in place from *state*, keeping its identity."""
    if key == ("arena",):
        obj._next_addr = state["_next_addr"]
        return
    d = getattr(obj, "__dict__", None)
    if d is None:
        for name, value in state.items():
            setattr(obj, name, value)
    elif key == ("kernel",):
        live = obj.tracer, obj._dirty_roots
        d.clear()
        d.update(state)
        obj.tracer, obj._dirty_roots = live
    else:
        d.clear()
        d.update(state)


#: Value types a restore template may share with live state.
_IMMUTABLE = frozenset({type(None), bool, int, float, str, bytes})


def _is_flat(value: Any, root_pids: Dict[int, RootKey]) -> bool:
    """Whether *value* is a root or immutable all the way down."""
    if type(value) in _IMMUTABLE or id(value) in root_pids:
        return True
    params = getattr(type(value), "__dataclass_params__", None)
    return (params is not None and params.frozen
            and all(_is_flat(v, root_pids) for v in vars(value).values()))


def _addresses_of(obj: Any) -> Tuple[int, ...]:
    """Every traced kernel-memory address owned by *obj*."""
    if isinstance(obj, KStruct):
        base = obj._base
        return tuple(base + off for off in type(obj)._offsets.values())
    if isinstance(obj, (KCell, KList, KDict)):
        return (obj._addr,)
    return ()


#: class -> whether instances own traced kernel memory.  The delta
#: pickler consults this for *every* object it serializes; a dict probe
#: beats two isinstance checks on the (overwhelmingly common) scalars.
_OWNS_ADDRESSES: Dict[type, bool] = {}


def _owns_addresses(cls: type) -> bool:
    owns = _OWNS_ADDRESSES.get(cls)
    if owns is None:
        owns = issubclass(cls, (KStruct, KCell, KList, KDict))
        _OWNS_ADDRESSES[cls] = owns
    return owns


class _CanonicalWalker:
    """Deterministic value-serializer for kernel state graphs.

    Produces bytes that are equal iff two graphs carry the same values,
    the same container orderings, and the same aliasing of mutable
    objects; identity of immutables is deliberately ignored.  Every
    mutable object visited is collected in :attr:`seen` — the walk
    doubles as the closure probe for segment grouping.
    """

    def __init__(self, root_ids: Dict[int, RootKey]):
        self._root_ids = root_ids
        self._memo: Dict[int, int] = {}
        self.seen: List[Any] = []

    def walk_state(self, state: Dict[str, Any]) -> bytes:
        """Canonical bytes of a root's captured state dict."""
        chunks = [b"S%d" % len(state)]
        for name, value in state.items():
            chunks.append(self._w(name))
            chunks.append(self._w(value))
        return b"".join(chunks)

    def _w(self, obj: Any) -> bytes:
        key = self._root_ids.get(id(obj))
        if key is not None:
            return b"R" + repr(key).encode()
        if obj is None or obj is True or obj is False:
            return b"c" + repr(obj).encode()
        kind = type(obj)
        if kind in (int, float, complex, str, bytes):
            return b"v" + repr(obj).encode()
        if isinstance(obj, enum.Enum):
            return (b"E" + type(obj).__qualname__.encode()
                    + b"." + obj.name.encode())
        if isinstance(obj, type):
            return b"T%s:%s" % (obj.__module__.encode(),
                                obj.__qualname__.encode())
        if kind in (tuple, frozenset):
            # Value types: encoded inline, never memoized (their sharing
            # is unobservable).  frozensets are order-canonicalized.
            parts = [self._w(item) for item in obj]
            if kind is frozenset:
                parts.sort()
            return b"t%d(" % len(parts) + b"".join(parts) + b")"
        index = self._memo.get(id(obj))
        if index is not None:
            return b"@%d" % index
        self._memo[id(obj)] = len(self._memo)
        self.seen.append(obj)
        if kind is dict:
            chunks = [b"d%d(" % len(obj)]
            for item_key, value in obj.items():
                chunks.append(self._w(item_key))
                chunks.append(self._w(value))
            return b"".join(chunks) + b")"
        if kind is list:
            return (b"l%d(" % len(obj)
                    + b"".join(self._w(item) for item in obj) + b")")
        if kind is set:
            parts = sorted(self._w(item) for item in obj)
            return b"s%d(" % len(parts) + b"".join(parts) + b")"
        if callable(obj) and not hasattr(obj, "__dict__") \
                and not hasattr(obj, "__slots__"):
            return b"F" + getattr(obj, "__qualname__", repr(obj)).encode()
        # Arbitrary object: class plus captured state.
        head = b"o%s:%s{" % (kind.__module__.encode(),
                             kind.__qualname__.encode())
        getstate = getattr(obj, "__getstate__", None)
        if getstate is not None:
            return head + self._w(getstate()) + b"}"
        d = getattr(obj, "__dict__", None)
        if d is not None:
            return head + self._w(d) + b"}"
        state = {}
        for cls in kind.__mro__:
            for name in getattr(cls, "__slots__", ()):
                if name != "__dict__" and hasattr(obj, name):
                    state[name] = getattr(obj, name)
        return head + self._w(state) + b"}"


def state_fingerprint(kernel: Kernel) -> bytes:
    """Canonical bytes of one kernel's complete observable state.

    Two kernels with equal fingerprints are indistinguishable to any
    test program: same values, same container orderings, same aliasing
    of mutable kernel objects.  Used by the segmented-vs-full restore
    equivalence tests and the benchmark regression gate.
    """
    return _CanonicalWalker({})._w(kernel)


class _GroupPickler(pickle.Pickler):
    """Base-payload writer: stubs each snapshot root with its bare key,
    which a restore resolves through the root table's ``__getitem__``."""

    def __init__(self, stream: io.BytesIO, root_pids: Dict[int, RootKey]):
        super().__init__(stream, protocol=_PROTO)
        self._root_pids = root_pids

    def persistent_id(self, obj: Any) -> Optional[RootKey]:
        return self._root_pids.get(id(obj))


#: The image a delta is being applied to, bound for the length of one
#: :meth:`SegmentedImage.apply_delta`, so the module-level resolvers
#: below (pickled *by reference* into delta payloads) can find the
#: applier's live objects.  Plain module state: a process applies
#: deltas on one thread only.
_DELTA_IMAGE: Optional["SegmentedImage"] = None


def _resolve_root(key: RootKey) -> Any:
    """Delta-payload stub: a snapshot root, resolved by root key."""
    return _DELTA_IMAGE.roots[key]


def _resolve_interior(addrs: Tuple[int, ...]) -> Any:
    """Delta-payload stub: a clean-group traced interior object,
    resolved by its kernel-memory address tuple."""
    image = _DELTA_IMAGE
    return image._interior_addr_map(image._addr_to_group[addrs[0]])[addrs]


class _DeltaDispatch:
    """``Pickler.dispatch_table`` for :meth:`SegmentedImage.capture_delta`.

    Deltas are captured on the execution hot path, so they avoid the
    ``persistent_id`` callback that base payloads use: the C pickler
    invokes ``persistent_id`` once per pickled object, and ~90% of a
    root state's objects are ints and strings that could never be stubs.
    A dispatch table is consulted only for custom-class instances —
    builtins keep the interpreter's fast path — and every snapshot root
    is a custom-class instance, so no stub can be missed.  The per-class
    reducer stubs roots (by key) and clean-group traced interior objects
    (by address) as calls to the module-level resolvers above; anything
    else falls through to the object's ordinary reduction.
    """

    def __init__(self, image: "SegmentedImage", dirty: set):
        self._root_pids = image._root_pids
        self._addr_to_group = image._addr_to_group
        self._dirty = dirty
        self._reducers: Dict[type, Callable[[Any], Tuple]] = {}

    def __getitem__(self, cls: type) -> Callable[[Any], Tuple]:
        reducer = self._reducers.get(cls)
        if reducer is None:
            if issubclass(cls, type):
                # *cls* is a metaclass, the objects are classes: let the
                # pickler fall back to its own by-reference save.
                raise KeyError(cls)
            reducer = self._make_reducer(cls)
            self._reducers[cls] = reducer
        return reducer

    def _make_reducer(self, cls: type) -> Callable[[Any], Tuple]:
        root_pids = self._root_pids
        if not _owns_addresses(cls):
            def reducer(obj: Any) -> Tuple:
                key = root_pids.get(id(obj))
                if key is not None:
                    return (_resolve_root, (key,))
                return obj.__reduce_ex__(_PROTO)
            return reducer

        addr_to_group = self._addr_to_group
        dirty = self._dirty

        def reducer(obj: Any) -> Tuple:
            key = root_pids.get(id(obj))
            if key is not None:
                return (_resolve_root, (key,))
            addrs = _addresses_of(obj)
            if addrs:
                group = addr_to_group.get(addrs[0])
                if group is not None and group not in dirty:
                    return (_resolve_interior, (addrs,))
            # Post-snapshot object (by value) or part of the delta
            # payload itself (aliased through the shared memo).
            return obj.__reduce_ex__(_PROTO)
        return reducer


class _UnionFind:
    def __init__(self, count: int):
        self._parent = list(range(count))

    def find(self, index: int) -> int:
        parent = self._parent
        root = index
        while parent[root] != root:
            root = parent[root]
        while parent[index] != root:
            parent[index], index = root, parent[index]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


class StateDelta:
    """A portable diff between the snapshot and a derived kernel state.

    Captures, for every group dirtied since the last restore, the
    group's *current* (post-execution) root states — pickled with
    cross-group references (roots and clean-group traced interior
    objects alike) stubbed as resolver calls, so they re-bind to the
    live objects of whichever image the delta is later
    applied to.  A delta captured on
    one machine is therefore valid on any machine restoring an
    *identical* snapshot (same config, hence same root enumeration and
    group layout); the sender-state cache enforces that by keying deltas
    on the snapshot's content id.

    Deltas are immutable once captured and carry no references into the
    kernel they were captured from.
    """

    __slots__ = ("groups", "payload", "group_count")

    def __init__(self, groups: Tuple[int, ...], payload: bytes,
                 group_count: int):
        #: Indices of the groups this delta overwrites.
        self.groups = groups
        #: Pickled ``[(root key, state), ...]`` for every root in those
        #: groups, sharing one memo so intra-delta aliasing survives.
        self.payload = payload
        #: Group count of the image the delta was captured from — a
        #: cheap layout-compatibility check at apply time.
        self.group_count = group_count

    @property
    def size_bytes(self) -> int:
        return len(self.payload)


class SegmentedImage:
    """A segmented snapshot of one live kernel, bound to that kernel.

    Build with :meth:`build`; install the write barrier with
    :meth:`attach`; restore dirty segments with :meth:`restore_in_place`.
    Derived states (e.g. post-sender kernel state) can be captured as
    portable :class:`StateDelta` objects with :meth:`capture_delta` and
    re-materialized — on this image or an identically-built one — with
    :meth:`apply_delta`.
    """

    def __init__(self) -> None:
        self.kernel: Kernel = None  # type: ignore[assignment]
        #: RootKey -> live root object (identity-stable across restores).
        self.roots: Dict[RootKey, Any] = {}
        #: id(root) -> RootKey — the persistent-id table.  Roots keep
        #: their identity for the image's lifetime, so this is built
        #: once instead of per capture/walk.
        self._root_pids: Dict[int, RootKey] = {}
        #: id(root) -> group index, for explicit object dirty marks.
        self._group_of_root_id: Dict[int, int] = {}
        #: group index -> pickled [(key, state), ...] payload.
        self.payloads: List[bytes] = []
        #: group index -> captured [(key, state), ...] of a *flat* group
        #: (only immutable values and roots), which restores by copying;
        #: None for a group that must be unpickled.
        self._templates: List[Optional[List[Tuple[RootKey, Dict]]]] = []
        #: group index -> member root keys (diagnostics / telemetry).
        self.group_members: List[List[RootKey]] = []
        #: traced field address -> owning group index.
        self._addr_to_group: Dict[int, int] = {}
        #: per-root canonical state bytes, the consistency reference.
        self._reference: Dict[RootKey, bytes] = {}
        #: groups restored on every reset (untraced hot-path mutations).
        self.always_dirty: frozenset = frozenset()
        #: groups dirtied since the last restore (fed by the write hook
        #: and by the kernel's explicit object marks).
        self._dirty_groups: set = set()
        #: per-group re-materialization counter: bumped whenever a
        #: group's payload (or a delta) replaces its interior objects,
        #: invalidating any cached address map for that group.
        self._generation: List[int] = []
        #: group -> (generation, address tuple -> live interior object),
        #: the delta persistent-id resolution table (lazily rebuilt).
        self._interior_cache: Dict[int, Tuple[int, Dict[Tuple[int, ...],
                                                        Any]]] = {}
        self.attached = False

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, kernel: Kernel) -> "SegmentedImage":
        """Segment *kernel* into independently restorable groups.

        Group *order* is deterministic (roots enumerate in insertion
        order, union-find components appear in first-member order),
        which is what makes cross-machine :class:`StateDelta` exchange
        sound.
        """
        image = cls()
        image.kernel = kernel
        image._enumerate_roots(kernel)
        root_keys = list(image.roots)
        root_pids = {id(obj): key for key, obj in image.roots.items()}
        image._root_pids = root_pids

        # Probe pass: one canonical walk per root yields the consistency
        # reference, interior-object ownership, and traced-address
        # ownership.  ``keepalive`` pins every visited object (and the
        # temporary state dicts) until grouping is done, so ``id()``
        # keys cannot be recycled mid-build.
        owner: Dict[int, int] = {}
        uf = _UnionFind(len(root_keys))
        addr_owner: Dict[int, int] = {}
        keepalive: List[Any] = []
        for index, key in enumerate(root_keys):
            root = image.roots[key]
            state = _capture_state(key, root)
            walker = _CanonicalWalker(root_pids)
            image._reference[key] = walker.walk_state(state)
            keepalive.append((state, walker.seen))
            for addr in _addresses_of(root):
                addr_owner[addr] = index
            for obj in walker.seen:
                for addr in _addresses_of(obj):
                    addr_owner[addr] = index
                previous = owner.setdefault(id(obj), index)
                if previous != index:
                    uf.union(previous, index)

        # Grouping: one payload per union-find component, pickled with a
        # shared memo so intra-group sharing survives restore.
        component_to_group: Dict[int, int] = {}
        members: List[List[int]] = []
        for index in range(len(root_keys)):
            component = uf.find(index)
            group = component_to_group.setdefault(component, len(members))
            if group == len(members):
                members.append([])
            members[group].append(index)

        for group_indices in members:
            entries = []
            for index in group_indices:
                key = root_keys[index]
                entries.append((key, _capture_state(key, image.roots[key])))
            stream = io.BytesIO()
            _GroupPickler(stream, root_pids).dump(entries)
            image.payloads.append(stream.getvalue())
            flat = all(_is_flat(value, root_pids)
                       for __, state in entries for value in state.values())
            image._templates.append(entries if flat else None)
            image.group_members.append([root_keys[i] for i in group_indices])

        for group, group_indices in enumerate(members):
            for index in group_indices:
                root = image.roots[root_keys[index]]
                image._group_of_root_id[id(root)] = group
        image._addr_to_group = {
            addr: image._group_of_root_id[id(image.roots[root_keys[index]])]
            for addr, index in addr_owner.items()
        }
        image.always_dirty = frozenset(
            image._group_of_root_id[id(image.roots[key])]
            for key in _ALWAYS_DIRTY_KEYS if key in image.roots
        )
        image._generation = [0] * len(image.payloads)
        del keepalive
        return image

    def _enumerate_roots(self, kernel: Kernel) -> None:
        roots = self.roots
        roots[("kernel",)] = kernel
        roots[("arena",)] = kernel.arena
        roots[("clock",)] = kernel.clock
        roots[("nsproxy0",)] = kernel.init_nsproxy
        roots[("registry",)] = kernel.namespaces
        roots[("tasktable",)] = kernel.tasks
        for name, value in kernel.__dict__.items():
            if name in _KERNEL_NON_SUB_ATTRS:
                continue
            roots[("sub", name)] = value
        for instances in kernel.namespaces.instances.values():
            for namespace in instances:
                roots[("ns", namespace.inum)] = namespace
        for task in kernel.tasks.tasks:
            roots[("task", task.base_address)] = task

    # -- runtime binding -----------------------------------------------------

    def attach(self) -> None:
        """Install the write barrier and start with a clean dirty set."""
        self.kernel.arena.dirty_hook = self.note_write
        self.kernel._dirty_roots.clear()
        self._dirty_groups.clear()
        self.attached = True

    def note_write(self, addr: int) -> None:
        """Arena write barrier: map one traced store to its group."""
        group = self._addr_to_group.get(addr)
        if group is not None:
            self._dirty_groups.add(group)

    # -- restore -------------------------------------------------------------

    def collect_dirty(self) -> set:
        """Dirty groups = write barrier + explicit marks + always-dirty."""
        dirty = set(self._dirty_groups)
        group_of = self._group_of_root_id
        for obj in self.kernel._dirty_roots:
            group = group_of.get(id(obj))
            if group is not None:
                dirty.add(group)
        dirty |= self.always_dirty
        return dirty

    def restore_in_place(self, skip: Optional[frozenset] = None
                         ) -> Tuple[int, int]:
        """Restore every dirty group into the live kernel.

        Returns ``(restored, skipped)`` group counts.  *skip* names
        dirty groups to leave untouched — the delta fast path passes the
        groups a :class:`StateDelta` is about to overwrite wholesale, so
        their base-state restore would be pure waste.  A skipped group
        is left unmarked; the caller must immediately re-cover it
        (apply_delta marks every delta group dirty again).
        """
        if not self.attached:
            raise RuntimeError("image not attached to its kernel")
        dirty = self.collect_dirty()
        if skip:
            dirty -= skip
        for group in dirty:
            self._restore_group(group)
        self._dirty_groups.clear()
        self.kernel._dirty_roots.clear()
        return len(dirty), len(self.payloads) - len(dirty)

    def _restore_group(self, group: int) -> None:
        """Copy a flat group's template, or unpickle the group's payload
        with every root key resolved in C by the root table."""
        live = self.roots
        entries = self._templates[group]
        if entries is None:
            unpickler = pickle.Unpickler(io.BytesIO(self.payloads[group]))
            unpickler.persistent_load = live.__getitem__
            entries = unpickler.load()
        for key, state in entries:
            _apply_state(key, live[key], state)
        self._generation[group] += 1

    # -- derived-state deltas ------------------------------------------------

    def _interior_addr_map(self, group: int) -> Dict[Tuple[int, ...], Any]:
        """Address tuple -> live interior object, for one *clean* group.

        Resolution table for the delta persistent-id scheme: a canonical
        walk of the group's roots (with every root stubbed, so the walk
        never crosses into another group) enumerates its mutable interior
        objects; those owning traced kernel memory are keyed by their
        full address tuple.  Cached per group and invalidated by the
        re-materialization counter, so the (rare) groups a run actually
        restores are re-walked while everything else stays amortized.
        """
        generation = self._generation[group]
        cached = self._interior_cache.get(group)
        if cached is not None and cached[0] == generation:
            return cached[1]
        walker = _CanonicalWalker(self._root_pids)
        for key in self.group_members[group]:
            walker.walk_state(_capture_state(key, self.roots[key]))
        addr_map: Dict[Tuple[int, ...], Any] = {}
        for obj in walker.seen:
            addrs = _addresses_of(obj)
            if addrs:
                addr_map[addrs] = obj
        self._interior_cache[group] = (generation, addr_map)
        return addr_map

    def capture_delta(self) -> StateDelta:
        """Capture the current divergence from the snapshot as a delta.

        Pickles the live state of every root in every *dirty* group
        (write barrier + explicit marks + always-dirty) into a single
        payload with a shared memo.  Cross-group references are
        stubbed (see :class:`_DeltaDispatch`): roots by key, and traced
        interior objects
        of *clean* groups by kernel-memory address — so an execution
        that linked a new object into clean state (an open file pinning
        a mount, say) re-links to the applier's *live* object instead of
        a detached copy, exactly as re-execution would.  Objects created
        since the snapshot (new namespaces, tasks, sockets) own no
        snapshot-traced memory and are serialized by value — a later
        :meth:`apply_delta` re-materializes fresh copies, which is
        exactly the lifetime they have under a segmented restore.

        The dirty set is left untouched: the capturing machine usually
        keeps executing from this state, and the next reset must still
        restore everything the producer dirtied.
        """
        if not self.attached:
            raise RuntimeError("image not attached to its kernel")
        groups = tuple(sorted(self.collect_dirty()))
        entries = []
        for group in groups:
            for key in self.group_members[group]:
                entries.append((key, _capture_state(key, self.roots[key])))
        stream = io.BytesIO()
        pickler = pickle.Pickler(stream, protocol=_PROTO)
        pickler.dispatch_table = _DeltaDispatch(self, set(groups))
        pickler.dump(entries)
        return StateDelta(groups, stream.getvalue(), len(self.payloads))

    def apply_delta(self, delta: StateDelta) -> int:
        """Overlay *delta* onto the live kernel; returns roots touched.

        The kernel must already hold base-snapshot state (i.e. call this
        right after a reset), so interior address references resolve
        against the same (snapshot) state they were captured against.
        Every group the delta covers is marked dirty so the *next* reset
        restores it back to the snapshot — from the dirty tracker's
        point of view an applied delta is indistinguishable from the
        producer's own execution.
        """
        global _DELTA_IMAGE
        if not self.attached:
            raise RuntimeError("image not attached to its kernel")
        if delta.group_count != len(self.payloads):
            raise ValueError(
                "state delta captured from an incompatible image "
                f"({delta.group_count} groups vs {len(self.payloads)})")
        _DELTA_IMAGE = self
        try:
            entries = pickle.loads(delta.payload)
        finally:
            _DELTA_IMAGE = None
        for key, state in entries:
            _apply_state(key, self.roots[key], state)
        for group in delta.groups:
            self._generation[group] += 1
        self._dirty_groups.update(delta.groups)
        return len(entries)

    # -- consistency ---------------------------------------------------------

    def verify(self) -> None:
        """Re-walk every root and compare against the snapshot reference.

        Raises :class:`RestoreConsistencyError` naming the divergent
        roots if any mutation escaped dirty tracking.
        """
        root_pids = self._root_pids
        offenders: List[RootKey] = []
        for key, reference in self._reference.items():
            state = _capture_state(key, self.roots[key])
            walker = _CanonicalWalker(root_pids)
            if walker.walk_state(state) != reference:
                offenders.append(key)
        if offenders:
            raise RestoreConsistencyError(offenders)

    # -- telemetry -----------------------------------------------------------

    @property
    def group_count(self) -> int:
        return len(self.payloads)


#: Type of the arena's dirty hook, for reference by the kernel layer.
DirtyHook = Callable[[int], None]
