"""Dense planes over named POSIX shared-memory segments.

One :class:`~repro.core.hub_index.DensePlane` becomes one named segment
(``shm_open`` plus ``mmap``) holding exactly the byte format of
:mod:`repro.serving.codec` — header, JSON manifest, then every buffer at
a 64-byte-aligned offset — byte for byte the TCP payload of the same
plane and epoch.  Export lays the manifest out once and encodes straight
into the freshly created, writable mapping; attach maps the segment
read-only and decodes it into zero-copy numpy views, so attaching costs
O(#buffers), the search loops then index the mapped bytes themselves,
exactly as on the in-process plane, and the OS refuses any reader write.

Cleanup has three layers: explicit :meth:`ShmPlane.close`/``unlink``, the
shm transport unlinking all but its newest ``KEEP_LINKED`` segments at
each publish (see :class:`repro.serving.transport.ShmTransport`; a reader's
mapping outlives the unlink, so no reader is counted), and a module-level
set of every segment this process *created* that an ``atexit`` hook
unlinks — so a crashed writer never strands segments in ``/dev/shm``.
Nothing is registered with ``multiprocessing``'s resource tracker, so no
tracker process starts.
"""

from __future__ import annotations

import atexit
import mmap
import os
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.serving.codec import (
    decode_plane,
    encode_buffers_into,
    materialize_plane,
    plane_buffers,
    plane_manifest,
)

__all__ = [
    "ShmPlane",
    "leaked_segments",
    "shm_available",
    "unlink_segment",
]

try:
    import _posixshmem
except ImportError:  # pragma: no cover - no POSIX shared memory (Windows)
    _posixshmem = None

# Every segment name this process created and has not yet unlinked.  The
# atexit sweep below is the backstop for writers that die without running
# their session teardown — /dev/shm must never accumulate orphans.
_created: set = set()


def _sweep_created() -> None:  # pragma: no cover - atexit path
    for name in list(_created):
        unlink_segment(name)


atexit.register(_sweep_created)


def _map(name: str, size: int = 0) -> mmap.mmap:
    """Map segment ``name``.

    With a ``size``, create the segment that long and map it writable
    (recorded in ``_created`` for the atexit sweep); without one, map an
    existing segment read-only.  The descriptor closes once mapped: the
    mapping outlives it, and outlives an unlink too.
    """
    if _posixshmem is None:  # pragma: no cover
        raise ConfigError("POSIX shared memory is unavailable")
    if not size:
        fd = _posixshmem.shm_open("/" + name, os.O_RDONLY)
        try:
            return mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
    fd = _posixshmem.shm_open("/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR,
                              mode=0o600)
    _created.add(name)
    try:
        os.ftruncate(fd, size)
        return mmap.mmap(fd, size)
    except OSError:
        unlink_segment(name)
        raise
    finally:
        os.close(fd)


def shm_available() -> bool:
    """Whether POSIX shared memory actually works on this platform."""
    name = f"rpprobe-{os.urandom(8).hex()}"
    try:
        _map(name, 16).close()
    except (ConfigError, OSError):
        return False
    unlink_segment(name)
    return True


def unlink_segment(name: str) -> bool:
    """Unlink one segment by name; True when it existed."""
    _created.discard(name)
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        return False
    return True


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

    def __init__(self, name: str, mapping: mmap.mmap, manifest: Dict,
                 arrays: Dict[str, np.ndarray], created: bool) -> None:
        self._name = name
        self._mm = mapping
        self._nbytes = len(mapping)
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
        # The one layout both sizes the segment and is written into it:
        # the segment holds exactly encode_plane(plane, epoch).
        buffers = plane_buffers(plane)
        layout = plane_manifest(plane, epoch, buffers)
        mapping = _map(name, layout[2])
        manifest, arrays = encode_buffers_into(buffers, mapping, layout)
        return cls(name, mapping, manifest, arrays, created=True)

    @classmethod
    def attach(cls, name: str) -> "ShmPlane":
        """Map an existing segment and wrap its buffers in numpy views.

        O(#buffers): no array is copied and no per-vertex work happens here.
        The mapping is read-only — readers share the writer's bytes.
        """
        mapping = _map(name)
        try:
            manifest, arrays = decode_plane(mapping)
        except ConfigError:
            mapping.close()
            raise
        return cls(name, mapping, manifest, arrays, created=False)

    # -- introspection ------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def epoch(self) -> int:
        return self._manifest["epoch"]

    @property
    def directed(self) -> bool:
        return self._manifest["directed"]

    @property
    def nbytes(self) -> int:
        """Total segment size (header + manifest + buffers)."""
        return self._nbytes

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
            self._mm.close()
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
