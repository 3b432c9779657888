"""Dense planes over named shared-memory segments.

One :class:`~repro.core.hub_index.DensePlane` becomes one
``multiprocessing.shared_memory`` segment holding exactly the byte format
of :mod:`repro.serving.codec` — header, JSON manifest, then every buffer
at a 64-byte-aligned offset — byte for byte the TCP payload of the same
plane and epoch.  Export lays the manifest out once and encodes straight
into the freshly created segment; attach decodes the mapped
bytes into zero-copy numpy views, so attaching costs O(#buffers) and the
search loops then index the mapped bytes themselves, exactly as on the
in-process plane.

Cleanup has three layers: explicit :meth:`ShmPlane.close`/``unlink``, the
shm transport unlinking all but its newest ``KEEP_LINKED`` segments at
each publish (see :class:`repro.serving.transport.ShmTransport`; a reader's
mapping outlives the unlink, so no reader is counted), and a module-level
set of every segment this process *created* that an ``atexit`` hook
unlinks — so a crashed writer never strands segments in ``/dev/shm``.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.serving.codec import (
    PlaneGraph,
    decode_plane,
    encode_buffers_into,
    materialize_plane,
    plane_buffers,
    plane_manifest,
)

__all__ = [
    "PlaneGraph",
    "ShmPlane",
    "leaked_segments",
    "shm_available",
    "unlink_segment",
]

try:  # pragma: no cover - exercised only where shm is missing entirely
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None
    shared_memory = None

try:  # pragma: no cover - POSIX-only fast path for tracker-free unlinks
    import _posixshmem
except ImportError:  # pragma: no cover
    _posixshmem = None

# Every segment name this process created and has not yet unlinked.  The
# atexit sweep below is the backstop for writers that die without running
# their session teardown — /dev/shm must never accumulate orphans.
_created: set = set()


def _sweep_created() -> None:  # pragma: no cover - atexit path
    for name in list(_created):
        unlink_segment(name)


atexit.register(_sweep_created)


def shm_available() -> bool:
    """Whether POSIX shared memory actually works on this platform."""
    if shared_memory is None:
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=16)
    except (OSError, ValueError):
        return False
    try:
        probe.close()
        probe.unlink()
    except OSError:  # pragma: no cover
        pass
    return True


def _untrack(name: str) -> None:
    """Unregister a freshly *created* segment from the resource tracker.

    CPython < 3.13 registers every ``SharedMemory`` object with the
    resource tracker as if that process owned it (bpo-39959), and the
    tracker would then unlink live segments whenever any process exits.
    Ownership here is explicit — the transport and the atexit sweep do
    the unlinking — so nothing this module creates stays
    tracked.  Attaches go through :func:`_attach_segment`, which never
    registers in the first place.
    """
    if resource_tracker is None:  # pragma: no cover
        return
    try:
        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:  # pragma: no cover - tracker variations across versions
        pass


_tracker_mutex = threading.Lock()


def _attach_segment(name: str):
    """Map an existing segment without any resource-tracker footprint.

    Unregistering after the attach is not enough: the tracker daemon's
    cache is a *set*, so two readers attaching the same segment collapse
    into one registration and the second matching unregister raises
    KeyError inside the daemon.  Suppressing the registration entirely
    leaves nothing to unbalance.
    """
    if shared_memory is None:  # pragma: no cover
        raise ConfigError("multiprocessing.shared_memory is unavailable")
    if resource_tracker is None:  # pragma: no cover
        return shared_memory.SharedMemory(name=name)
    with _tracker_mutex:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def unlink_segment(name: str) -> bool:
    """Unlink one segment by name; True when it existed.

    Goes straight to ``shm_unlink`` where available — attaching just to
    unlink would re-register the segment with the resource tracker.
    """
    _created.discard(name)
    if _posixshmem is not None:
        try:
            _posixshmem.shm_unlink("/" + name)
        except FileNotFoundError:
            return False
        return True
    if shared_memory is None:  # pragma: no cover
        return False
    try:  # pragma: no cover - non-POSIX fallback
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:  # pragma: no cover
        return False
    _untrack(name)  # pragma: no cover
    try:  # pragma: no cover
        seg.close()
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover
        pass
    return True  # pragma: no cover


def leaked_segments(prefix: str) -> List[str]:
    """Names under ``/dev/shm`` starting with ``prefix`` (leak checking)."""
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-POSIX fallback
        return []
    return sorted(e for e in os.listdir(root) if e.startswith(prefix))


class ShmPlane:
    """One dense plane living in (or attached from) a shm segment.

    Create with :meth:`export` (writer side — encodes the plane's buffers
    into a fresh segment) or :meth:`attach` (reader side — zero-copy views
    over an existing segment).  :meth:`as_dense_plane` rebuilds a fully
    functional :class:`~repro.core.hub_index.DensePlane` over the attached
    arrays; the engine then runs the same flat-array search as in-process.
    """

    def __init__(self, shm, manifest: Dict, arrays: Dict[str, np.ndarray],
                 created: bool) -> None:
        self._shm = shm
        self._manifest = manifest
        self._arrays = arrays
        self._created = created
        self._plane = None

    # -- construction -------------------------------------------------------

    @classmethod
    def export(cls, plane, name: str, epoch: Optional[int] = None) -> "ShmPlane":
        """Serialize ``plane`` into a fresh segment called ``name``.

        The segment is fully written before this returns, so stamping requests
        with its name afterwards (the transport's job) can never expose a
        torn plane to a reader.
        """
        if shared_memory is None:  # pragma: no cover
            raise ConfigError("multiprocessing.shared_memory is unavailable")
        # The one layout both sizes the segment and is written into it:
        # the segment holds exactly encode_plane(plane, epoch).
        buffers = plane_buffers(plane)
        layout = plane_manifest(plane, epoch, buffers)
        shm = shared_memory.SharedMemory(create=True, size=layout[2],
                                         name=name)
        _created.add(name)
        _untrack(name)
        manifest, arrays = encode_buffers_into(buffers, shm.buf, layout)
        return cls(shm, manifest, arrays, created=True)

    @classmethod
    def attach(cls, name: str) -> "ShmPlane":
        """Map an existing segment and wrap its buffers in numpy views.

        O(#buffers): no array is copied and no per-vertex work happens here.
        The views are marked read-only — readers share the writer's bytes.
        """
        shm = _attach_segment(name)
        try:
            manifest, arrays = decode_plane(shm.buf)
        except ConfigError:
            shm.close()
            raise
        return cls(shm, manifest, arrays, created=False)

    # -- introspection ------------------------------------------------------

    @property
    def name(self) -> str:
        return self._shm.name.lstrip("/")

    @property
    def epoch(self) -> int:
        return self._manifest["epoch"]

    @property
    def directed(self) -> bool:
        return self._manifest["directed"]

    @property
    def nbytes(self) -> int:
        """Total segment size (header + manifest + buffers)."""
        return self._shm.size

    @property
    def manifest(self) -> Dict:
        return self._manifest

    def arrays(self) -> Dict[str, np.ndarray]:
        """The named buffer views (zero-copy into the segment)."""
        return dict(self._arrays)

    # -- plane reconstruction ----------------------------------------------

    def as_dense_plane(self):
        """A :class:`DensePlane` over the attached buffers (memoized)."""
        if self._plane is None:
            self._plane = materialize_plane(self._manifest, self._arrays)
        return self._plane

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drop the mapping (reader detach; creators keep the file alive).

        Any plane/arrays handed out must be dropped by the caller first;
        a still-exported buffer keeps the mapping open until GC.
        """
        self._plane = None
        self._arrays = {}
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            pass

    def unlink(self) -> None:
        """Remove the segment from the system (creator-side cleanup)."""
        unlink_segment(self.name)

    def __repr__(self) -> str:
        kind = "created" if self._created else "attached"
        return (
            f"ShmPlane({self.name!r}, epoch={self.epoch}, "
            f"{self.nbytes} bytes, {kind})"
        )
