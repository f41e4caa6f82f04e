"""Shared-memory array publishing for the process engine.

The process engine (:mod:`repro.runtime.process_engine`) must hand every
worker the same large read-only operands — the sample matrix ``X`` each
iteration and the current centroid matrix ``C`` — without pickling hundreds
of megabytes per task.  This module provides the zero-copy seam:

:class:`SharedArena`
    Owns named :class:`multiprocessing.shared_memory.SharedMemory`
    segments, one per published key.  ``publish(key, array)`` copies the
    array into the segment **once** (re-publishing the identical array
    object is free; re-publishing a same-shape replacement — the new
    centroids each iteration — rewrites the segment in place) and returns
    an :class:`ArrayRef` that pickles in a few dozen bytes.

:class:`ArrayRef`
    ``(segment name, shape, dtype)``.  Workers resolve it with
    :func:`as_ndarray`, which attaches the segment and returns a read-only
    ndarray view — no copy in either process.

Lifetime discipline (the part that must survive crashes):

* every arena registers itself in a module-wide set; ``drain_arenas()``
  unlinks every live segment and is wired into
  :func:`repro.runtime.engine.shutdown_pools`, which already runs from an
  ``atexit`` hook — normal interpreter exit (including SIGINT) leaks
  nothing;
* each arena also carries a :func:`weakref.finalize` on itself, so an
  engine (and its arena) collected mid-session releases its segments
  without waiting for interpreter exit;
* a SIGKILL'd parent cannot run either path; there the stdlib
  ``resource_tracker`` — a separate process that outlives the parent —
  best-effort unlinks the leaked segments (``tests/runtime/test_shm.py``
  asserts this end to end against ``/dev/shm``);
* a kill that lands between a segment's creation and its registration
  with the tracker leaves a segment nothing tracks, so every new arena
  first unlinks the ``repro-<pid>-…`` segments whose process is gone
  (:func:`_sweep_orphaned_segments`).

With the fork start method every process shares the *same* resource
tracker (forked children inherit its pipe), and the tracker's registry is
a set of names — a worker's attach-time re-registration of a segment the
parent created is idempotent, and the parent's ``unlink()`` clears the
single entry.  The attach path therefore deliberately does **not**
unregister anything: removing the shared entry would disable the
SIGKILL backstop above.
"""

from __future__ import annotations

import os
import re
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, IntegrityError

__all__ = [
    "ArrayRef",
    "ArrayLike",
    "SharedArena",
    "as_ndarray",
    "drain_arenas",
]


@dataclass(frozen=True)
class ArrayRef:
    """A picklable handle to an ndarray living in a shared-memory segment.

    ``crc`` is the optional integrity checksum stamped by the process
    engine when integrity is on: workers re-verify the segment bytes
    against it on first attach (:func:`as_ndarray`), so corruption that
    lands between the parent's pre-dispatch verification and the task's
    read is still caught inside the worker.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str
    crc: Optional[int] = None

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


#: What the block tasks accept: a plain ndarray (serial/thread engines pass
#: operands through untouched) or an :class:`ArrayRef` (process engine).
ArrayLike = Union[np.ndarray, ArrayRef]


# Attached segments, keyed by name.  Shared by parent (inline fallback) and
# workers (which inherit a fork-time copy and extend it independently).  A
# mapping stays cached across tasks (re-attaching per task would thrash the
# page tables) but the cache is bounded: beyond _ATTACH_CAP entries the
# oldest mappings are closed at the next attach — views resolved by
# :func:`as_ndarray` are only valid for the duration of the task that
# resolved them, so eviction between tasks can never invalidate a live view.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
_ATTACH_LOCK = threading.Lock()
_ATTACH_CAP = 8

# Per-process memo of segment checksums already verified, keyed by segment
# name.  A re-publish rewrites the segment *and* stamps a fresh crc on the
# ref, so a stale memo entry can never vouch for new bytes; bounding it the
# same way as _ATTACHED keeps the worker-side cost at one CRC pass per
# (segment, publish) rather than per task.
_VERIFIED: Dict[str, int] = {}


def _segment_crc(view: np.ndarray) -> int:
    import zlib

    return zlib.crc32(np.ascontiguousarray(view))  # type: ignore[arg-type]


def as_ndarray(ref: ArrayLike) -> np.ndarray:
    """Resolve an :class:`ArrayRef` to a read-only ndarray view (no copy).

    Plain ndarrays pass straight through, so block tasks are engine-agnostic:
    the serial and thread engines share arrays by reference, the process
    engine by segment name.  Refs carrying an integrity ``crc`` are verified
    against the segment bytes on first resolution (memoised per publish);
    a mismatch raises :class:`~repro.errors.IntegrityError` inside the
    worker, where the supervisor's ordinary fault handling picks it up.
    """
    if isinstance(ref, np.ndarray):
        return ref
    with _ATTACH_LOCK:
        shm = _ATTACHED.get(ref.name)
        if shm is None:
            while len(_ATTACHED) >= _ATTACH_CAP:
                stale = _ATTACHED.pop(next(iter(_ATTACHED)))
                try:
                    stale.close()
                except OSError:  # pragma: no cover - platform-specific
                    pass
            try:
                shm = shared_memory.SharedMemory(name=ref.name)
            except FileNotFoundError:
                raise ConfigurationError(
                    f"shared segment {ref.name!r} is gone (arena drained "
                    f"while a task still referenced it)"
                ) from None
            # NOTE: attach re-registers the name with the (shared, fork-
            # inherited) resource tracker; that is an idempotent set-add,
            # and unregistering it here would delete the creator's entry
            # and with it the SIGKILL leak backstop.
            _ATTACHED[ref.name] = shm
    view: np.ndarray = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                                  buffer=shm.buf)
    view.flags.writeable = False
    if ref.crc is not None:
        with _ATTACH_LOCK:
            verified = _VERIFIED.get(ref.name) == ref.crc
        if not verified:
            if _segment_crc(view) != ref.crc:
                raise IntegrityError(
                    f"shared segment {ref.name!r} failed CRC32 verification "
                    f"on task entry (corrupted between publish and read)",
                    location=f"segment:{ref.name}",
                )
            with _ATTACH_LOCK:
                while len(_VERIFIED) >= _ATTACH_CAP:
                    _VERIFIED.pop(next(iter(_VERIFIED)))
                _VERIFIED[ref.name] = ref.crc
    return view


def _detach(name: str) -> None:
    """Close this process's mapping of a segment (if any)."""
    with _ATTACH_LOCK:
        shm = _ATTACHED.pop(name, None)
    if shm is not None:
        try:
            shm.close()
        except OSError:  # pragma: no cover - platform-specific
            pass


#: Live arenas, drained by shutdown_pools() / atexit.  Weak so an arena's
#: own finalizer (GC path) stays the primary owner of its segments.
_ARENAS: "weakref.WeakSet[SharedArena]" = weakref.WeakSet()
_ARENAS_LOCK = threading.Lock()


def _release_segments(segments: Dict[str, shared_memory.SharedMemory]) -> None:
    """Close and unlink every segment in the mapping (idempotent)."""
    for name in sorted(segments):
        shm = segments[name]
        _detach(name)
        try:
            shm.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        except OSError:  # pragma: no cover - platform-specific
            pass
    segments.clear()


#: Where POSIX shared memory shows up as files (Linux).
_SHM_DIR = "/dev/shm"

#: Every segment this module creates is named ``repro-<creator pid>-...``.
_SEGMENT_PID = re.compile(r"repro-(\d{1,9})-")


def _process_gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:  # PermissionError: alive, but another user's
        return False
    return False


def _sweep_orphaned_segments() -> None:
    """Unlink the segments whose creating process no longer exists.

    The resource tracker cannot unlink a segment it was never told about.
    Only this user's segments are touched, and only when the pid in the
    name is gone from this host's (pid namespace's) process table; a
    missing ``/dev/shm`` means there is nothing to sweep.
    """
    try:
        names = sorted(os.listdir(_SHM_DIR))
    except OSError:
        return
    uid = os.getuid()
    for name in names:
        match = _SEGMENT_PID.match(name)
        if match is None or not _process_gone(int(match.group(1))):
            continue
        path = os.path.join(_SHM_DIR, name)
        try:
            if os.stat(path).st_uid == uid:
                os.unlink(path)
        except OSError:  # gone already, or not ours to remove
            pass


class SharedArena:
    """Named shared-memory segments for one engine's published operands.

    ``publish`` is called by the engine's ``share()`` right before a map,
    and every map completes before the next ``publish`` of the same key, so
    rewriting a segment in place can never race a reader.  The identity
    check makes the per-iteration re-publish of a *stable* operand (the
    sample matrix) free; a published array must not be mutated in place
    while tasks may still read it.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self, tag: str = "arena") -> None:
        _sweep_orphaned_segments()
        with SharedArena._counter_lock:
            SharedArena._counter += 1
            serial = SharedArena._counter
        #: Unique prefix: pid disambiguates processes, the serial number
        #: disambiguates arenas within one process.
        self._prefix = f"repro-{os.getpid()}-{serial}-{tag}"
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._views: Dict[str, np.ndarray] = {}
        #: Strong refs to the last-published array per key, so the identity
        #: fast path can never be fooled by id() reuse after GC.
        self._sources: Dict[str, np.ndarray] = {}
        with _ARENAS_LOCK:
            _ARENAS.add(self)
        # GC of the arena (engine teardown) releases the segments even if
        # shutdown_pools() is never called.
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments)

    def publish(self, key: str, array: np.ndarray) -> ArrayRef:
        """Copy ``array`` into the segment for ``key``; return its ref."""
        array = np.ascontiguousarray(array)
        if self._sources.get(key) is array:
            return ArrayRef(self._segments[key].name, array.shape,
                            array.dtype.str)
        shm = self._segments.get(key)
        view = self._views.get(key)
        if shm is None or view is None or view.nbytes < array.nbytes:
            if shm is not None:
                _release_segments({key: self._segments.pop(key)})
                self._views.pop(key, None)
            name = f"{self._prefix}-{key}"
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=max(array.nbytes, 1))
            self._segments[key] = shm
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        self._views[key] = view
        self._sources[key] = array
        return ArrayRef(shm.name, array.shape, array.dtype.str)

    def view(self, key: str) -> Optional[np.ndarray]:
        """The parent-side view over ``key``'s segment (None if unpublished).

        This is what the engines' pre-dispatch integrity verification reads:
        it sees the *segment* bytes — including any corruption injected
        after :meth:`publish` — not the retained source array.
        """
        return self._views.get(key)

    def corrupt(self, key: str, offset: int) -> bool:
        """Flip one bit in ``key``'s segment at ``offset`` (chaos seam).

        Silent by design: readers see the flipped byte with no error raised.
        Returns False when the key was never published (nothing to corrupt).
        """
        view = self._views.get(key)
        if view is None or view.nbytes == 0:
            return False
        raw = view.reshape(-1).view(np.uint8)
        raw[min(int(offset), view.nbytes - 1)] ^= np.uint8(1)
        return True

    def repair(self, key: str) -> bool:
        """Rewrite ``key``'s segment from its retained source array.

        The arena keeps a strong ref to every published array (the identity
        fast path needs it), which doubles as the golden copy for integrity
        repair.  Returns False when the key was never published.
        """
        view = self._views.get(key)
        source = self._sources.get(key)
        if view is None or source is None:
            return False
        view[...] = source
        return True

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """Names of the live segments (for tests and diagnostics)."""
        return tuple(sorted(self._segments[key].name
                            for key in sorted(self._segments)))

    def drain(self) -> None:
        """Unlink every segment now (idempotent; re-publish re-creates)."""
        self._views.clear()
        self._sources.clear()
        _release_segments(self._segments)


def drain_arenas() -> None:
    """Drain every live arena (test teardown + interpreter exit).

    Wired into :func:`repro.runtime.engine.shutdown_pools`, which the
    package registers with :mod:`atexit`.
    """
    with _ARENAS_LOCK:
        arenas = list(_ARENAS)
    for arena in arenas:
        arena.drain()


def _heartbeat_segment(workers: int) -> shared_memory.SharedMemory:
    """A fresh segment sized for one float64 heartbeat slot per worker."""
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    with SharedArena._counter_lock:
        SharedArena._counter += 1
        serial = SharedArena._counter
    return shared_memory.SharedMemory(
        name=f"repro-{os.getpid()}-{serial}-hb", create=True,
        size=8 * workers)


def heartbeat_view(shm: shared_memory.SharedMemory,
                   workers: int) -> np.ndarray:
    """The float64 per-worker heartbeat slots over a heartbeat segment."""
    view: np.ndarray = np.ndarray((workers,), dtype=np.float64,
                                  buffer=shm.buf)
    return view


def make_heartbeats(workers: int
                    ) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Create the heartbeat segment and its slot view for a worker pool.

    The pool owns the segment: workers inherit the mapping through fork (no
    attach, no tracker duplicate) and the pool unlinks it on shutdown.
    """
    shm = _heartbeat_segment(workers)
    view = heartbeat_view(shm, workers)
    view[:] = 0.0
    return shm, view
