"""One BLAS thread budget per pooled run.

NumPy's bundled OpenBLAS starts one thread per CPU in every process, and
an idle OpenBLAS thread spins for about 2^28 cycles after each call before
it sleeps.  A pooled run that lets every kernel runner use every CPU
oversubscribes the host: two process-engine workers run four BLAS threads
on two CPUs, and the fitting process's helper thread, woken by the small
BLAS calls between maps, most likely spins into the next map.  So a pooled
run splits the cores instead (the budgets are set by
:meth:`~repro.runtime.engine.ExecutionEngine.blas_threads`):

* :func:`limit` holds the fitting process at the engine's budget for the
  whole iteration loop of a run and restores the old count on every exit
  path;
* :func:`pin_worker` sets a forked process-engine worker's count once,
  before its first task.

Both only ever go below the count the process has outside any scope, so
a user's ``OPENBLAS_NUM_THREADS=1`` still wins.  The library is found on
first use, never at ``import repro``: NumPy's wheels ship OpenBLAS in the
``numpy.libs`` directory beside the package.  Where NumPy links another
BLAS, :func:`get_num_threads` returns None and every call is a no-op.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from typing import Any, Callable, Iterator, Optional, Tuple

#: ``(set, get)`` symbol pairs of OpenBLAS's thread controls: NumPy 2
#: wheels prefix them ``scipy_``, and 64-bit-integer builds suffix ``64_``.
_SYMBOLS = tuple(
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", ""))

#: Scopes open in this process, across threads, and the count they saved.
_LOCK = threading.Lock()
_depth = 0
_saved: Optional[int] = None


@functools.lru_cache(maxsize=None)
def _library() -> Optional[Tuple[Callable[[int], None], Callable[[], int]]]:
    """NumPy's bundled OpenBLAS ``(set, get)`` controls, or None."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    try:
        names = sorted(name for name in os.listdir(libs) if "openblas" in name)
    except OSError:
        return None
    for name in names:
        try:
            lib: Any = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


def get_num_threads() -> Optional[int]:
    """This process's BLAS thread count; None without a bundled OpenBLAS."""
    controls = _library()
    return None if controls is None else int(controls[1]())


def set_num_threads(threads: int) -> None:
    """Set this process's BLAS thread count (a no-op without OpenBLAS)."""
    controls = _library()
    if controls is not None:
        controls[0](int(threads))


@contextlib.contextmanager
def limit(threads: Optional[int]) -> Iterator[None]:
    """Hold this process at no more than ``threads`` BLAS threads.

    ``None`` leaves BLAS untouched.  Scopes nest and overlap across
    threads: they share one lock and a depth count, so the first saves the
    count and the last to exit restores it, exceptions included.  A scope
    may lower the count further but never raises it.
    """
    global _depth, _saved
    if threads is None:
        yield
        return
    with _LOCK:
        current = get_num_threads()
        if _depth == 0:
            _saved = current
        _depth += 1
        if current is not None and threads < current:
            set_num_threads(threads)
    try:
        yield
    finally:
        with _LOCK:
            _depth -= 1
            if _depth == 0:
                if _saved is not None:
                    set_num_threads(_saved)
                _saved = None


def pin_worker(threads: int) -> None:
    """Set a freshly forked worker to ``threads`` BLAS threads.

    The child inherits its parent's count and scope state at fork time; a
    worker forked (or respawned) inside a run inherits the run's lowered
    count.  So the ceiling is the parent's count outside any scope, and the
    child starts with no scope open and a fresh lock, since a parent thread
    may have held the old one at the fork.
    """
    global _LOCK, _depth, _saved
    ceiling = _saved if _depth else get_num_threads()
    _LOCK, _depth, _saved = threading.Lock(), 0, None
    if ceiling is not None:
        set_num_threads(min(threads, ceiling))
