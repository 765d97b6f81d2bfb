"""Kernel snapshots — the QEMU/QMP snapshot stand-in (§5.2).

A snapshot holds one kernel state twice.  Its segmented view
(:class:`~repro.vm.segments.SegmentedImage`) decomposes the state into
per-root payloads bound to the live kernel the snapshot was taken from;
:class:`~repro.vm.machine.Machine` uses it to restore **in place**,
reloading only the segments a run dirtied, so every test-case execution
and profiling run starts from the identical machine state (§4.1.1's
"systematic execution environment").  Its full pickle serves
``restore()``, which deserializes a completely independent copy — the
reference the restore tests and gates compare the in-place path
against — and its digest is the snapshot's content id.  Neither view
keeps a tracer.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Optional

from ..kernel.kernel import Kernel
from .segments import SegmentedImage


class Snapshot:
    """An immutable, restorable kernel state."""

    __slots__ = ("blob", "description", "image", "_content_id")

    def __init__(self, blob: bytes, description: str,
                 image: SegmentedImage):
        self.blob = blob
        self.description = description
        #: Segmented view bound to the snapshotted kernel.
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
    def take(cls, kernel: Kernel, description: str = "") -> "Snapshot":
        blob = pickle.dumps(kernel, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(blob, description, SegmentedImage.build(kernel))

    def restore(self, boot_offset_ns: Optional[int] = None) -> Kernel:
        """Materialize a fresh, independent kernel from the snapshot.

        *boot_offset_ns* rebases the virtual clock — the mechanism behind
        "re-runs the receiver program multiple times with different
        starting times" (§4.3.2).
        """
        kernel: Kernel = pickle.loads(self.blob)
        if boot_offset_ns is not None:
            kernel.clock.rebase(boot_offset_ns)
        return kernel

    @property
    def size_bytes(self) -> int:
        return len(self.blob)

    @property
    def segment_count(self) -> int:
        """Number of independently restorable segments."""
        return self.image.group_count
