"""Kernel snapshots — the QEMU/QMP snapshot stand-in (§5.2).

A snapshot is a pickled kernel; ``restore()`` deserializes a completely
independent copy, so every test-case execution and profiling run starts
from the identical machine state (§4.1.1's "systematic execution
environment").  Tracers are excluded from snapshots by the kernel's own
``__getstate__``.

Snapshots can additionally be taken *segmented*
(``Snapshot.take(kernel, segmented=True)``): the same kernel state is
also decomposed into per-root payloads by
:class:`~repro.vm.segments.SegmentedImage`, bound to the live kernel the
snapshot was taken from.  :class:`~repro.vm.machine.Machine` uses the
image to restore **in place**, reloading only the segments a run
dirtied — the fast path behind the §6.5 throughput numbers.  The full
blob is always kept: it serves independent-copy restores (full-restore
machines and tests use them), is the byte-identity reference for the
segmented consistency check, and its digest is the snapshot's content
id.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Optional

from ..faults.plan import SITE_RESTORE_FAIL, FaultPlan, RestoreFaultInjected
from ..kernel.kernel import Kernel
from .segments import SegmentedImage


class Snapshot:
    """An immutable, restorable kernel state."""

    __slots__ = ("blob", "description", "image", "_content_id")

    def __init__(self, blob: bytes, description: str = "",
                 image: Optional[SegmentedImage] = None):
        self.blob = blob
        self.description = description
        #: Segmented view bound to the snapshotted kernel, when taken
        #: with ``segmented=True``; None otherwise.
        self.image = image
        self._content_id: Optional[str] = None

    @property
    def content_id(self) -> str:
        """Digest of the snapshot blob — the cache key for derived state.

        Machines booted from the same :class:`MachineConfig` in the same
        process produce identical pickles (same construction order, same
        hash seed), hence the same content id and the same segmented
        group layout — which is exactly the compatibility a
        :class:`~repro.vm.segments.StateDelta` needs to move between
        machines.
        """
        if self._content_id is None:
            self._content_id = hashlib.sha256(self.blob).hexdigest()
        return self._content_id

    @classmethod
    def take(cls, kernel: Kernel, description: str = "",
             segmented: bool = False) -> "Snapshot":
        blob = pickle.dumps(kernel, protocol=pickle.HIGHEST_PROTOCOL)
        image = SegmentedImage.build(kernel) if segmented else None
        return cls(blob, description, image)

    def restore(self, boot_offset_ns: Optional[int] = None,
                faults: Optional[FaultPlan] = None) -> Kernel:
        """Materialize a fresh, independent kernel from the snapshot.

        *boot_offset_ns* rebases the virtual clock — the mechanism behind
        "re-runs the receiver program multiple times with different
        starting times" (§4.3.2).

        *faults* registers this full deserialization as a
        ``restore.fail`` injection site: a firing raises
        :class:`RestoreFaultInjected` before any state is produced, the
        stand-in for a QMP ``loadvm`` that errors out.  The caller
        (:meth:`Machine.reset <repro.vm.machine.Machine.reset>`) owns
        the bounded-retry recovery.
        """
        if faults is not None and faults.should_inject(SITE_RESTORE_FAIL):
            raise RestoreFaultInjected(
                SITE_RESTORE_FAIL, "injected full-snapshot restore failure")
        kernel: Kernel = pickle.loads(self.blob)
        if boot_offset_ns is not None:
            kernel.clock.rebase(boot_offset_ns)
        return kernel

    @property
    def size_bytes(self) -> int:
        return len(self.blob)

    @property
    def segment_count(self) -> int:
        """Number of independently restorable segments (0 if unsegmented)."""
        return self.image.group_count if self.image is not None else 0

    @property
    def segmented_bytes(self) -> int:
        """Total payload size of the segmented view (0 if unsegmented)."""
        return self.image.segmented_bytes if self.image is not None else 0
