"""Shared-memory arena lifetime: no /dev/shm leak on any exit path.

The arena has three release paths — explicit ``drain()`` (wired into
``shutdown_pools`` and thus ``atexit``), the per-arena ``weakref.finalize``
(GC of the owning engine), and, for a SIGKILL'd parent that can run
neither, the stdlib ``resource_tracker`` process.  The last one is the
crash-tolerance backstop and gets an end-to-end subprocess test against
``/dev/shm``.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime.engine import shutdown_pools
from repro.runtime.shm import (
    ArrayRef,
    SharedArena,
    as_ndarray,
    drain_arenas,
    heartbeat_view,
    make_heartbeats,
)

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR),
    reason="POSIX shared memory is not mounted at /dev/shm",
)


def _shm_entries(prefix):
    return [name for name in os.listdir(SHM_DIR) if prefix in name]


# ---------------------------------------------------------------------------
# ArrayRef / as_ndarray
# ---------------------------------------------------------------------------

class TestArrayRef:
    def test_publish_and_resolve_round_trip(self):
        arena = SharedArena(tag="t")
        try:
            X = np.arange(12, dtype=np.float64).reshape(3, 4)
            ref = arena.publish("X", X)
            assert isinstance(ref, ArrayRef)
            assert ref.shape == (3, 4)
            assert ref.nbytes == X.nbytes
            np.testing.assert_array_equal(as_ndarray(ref), X)
        finally:
            arena.drain()

    def test_resolved_view_is_read_only(self):
        arena = SharedArena(tag="t")
        try:
            ref = arena.publish("X", np.ones(4))
            view = as_ndarray(ref)
            with pytest.raises(ValueError):
                view[0] = 2.0
        finally:
            arena.drain()

    def test_plain_ndarray_passes_through(self):
        X = np.ones(3)
        assert as_ndarray(X) is X

    def test_missing_segment_raises_configuration_error(self):
        ref = ArrayRef(name="repro-definitely-not-there", shape=(2,),
                       dtype="<f8")
        with pytest.raises(ConfigurationError, match="gone"):
            as_ndarray(ref)

    def test_identity_republish_is_stable(self):
        arena = SharedArena(tag="t")
        try:
            X = np.arange(6, dtype=np.float64)
            assert arena.publish("X", X) == arena.publish("X", X)
        finally:
            arena.drain()

    def test_same_shape_republish_rewrites_segment(self):
        arena = SharedArena(tag="t")
        try:
            a = np.arange(8, dtype=np.float64)
            ref_a = arena.publish("C", a)
            ref_b = arena.publish("C", a + 1)
            assert ref_a.name == ref_b.name
            np.testing.assert_array_equal(as_ndarray(ref_b), a + 1)
        finally:
            arena.drain()


# ---------------------------------------------------------------------------
# arena lifetime: drain, GC, shutdown_pools
# ---------------------------------------------------------------------------

class TestArenaLifetime:
    def test_drain_unlinks_dev_shm_entries(self):
        arena = SharedArena(tag="life")
        arena.publish("X", np.ones(16))
        names = arena.segment_names
        assert names and all(_shm_entries(n) for n in names)
        arena.drain()
        assert not any(_shm_entries(n) for n in names)
        arena.drain()  # idempotent

    def test_shutdown_pools_drains_live_arenas(self):
        arena = SharedArena(tag="pools")
        arena.publish("X", np.ones(8))
        names = arena.segment_names
        shutdown_pools()
        assert not any(_shm_entries(n) for n in names)

    def test_drain_arenas_covers_every_arena(self):
        arenas = [SharedArena(tag=f"multi{i}") for i in range(3)]
        names = []
        for arena in arenas:
            arena.publish("X", np.ones(4))
            names.extend(arena.segment_names)
        drain_arenas()
        assert not any(_shm_entries(n) for n in names)

    def test_finalizer_releases_segments_on_gc(self):
        arena = SharedArena(tag="gc")
        arena.publish("X", np.ones(4))
        names = arena.segment_names
        del arena
        import gc
        gc.collect()
        assert not any(_shm_entries(n) for n in names)

    def test_heartbeat_segment_round_trip(self):
        shm, view = make_heartbeats(3)
        try:
            assert view.shape == (3,)
            assert (view == 0.0).all()
            view[1] = 42.0
            again = heartbeat_view(shm, 3)
            assert again[1] == 42.0
        finally:
            shm.close()
            shm.unlink()


# ---------------------------------------------------------------------------
# the SIGKILL backstop
# ---------------------------------------------------------------------------

_KILLED_PARENT_SCRIPT = """
import os, signal
import numpy as np
from repro.runtime.process_engine import ProcessEngine
from repro.runtime.shm import as_ndarray

def _touch(args):
    ref, lo, hi = args
    return float(as_ndarray(ref)[lo:hi].sum())

engine = ProcessEngine(workers=2)
X = np.arange(4096, dtype=np.float64)
ref = engine.share("X", X)
# Workers attach the segment before the crash: their attach-time
# re-registration with the (shared, fork-inherited) resource tracker must
# not disturb the single registry entry the unlink backstop relies on.
got = engine.map(_touch, [(ref, 0, 2048), (ref, 2048, 4096)])
assert got == [float(X[:2048].sum()), float(X[2048:].sum())]
print(ref.name, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_sigkilled_parent_leaves_no_dev_shm_leak(tmp_path):
    """A SIGKILL'd parent cannot drain its arena; the resource tracker must.

    The tracker is a separate process that outlives the parent and
    best-effort unlinks every registered segment once all its clients are
    gone, so the leak check polls rather than asserts immediately.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        (os.path.join(os.path.dirname(__file__), "..", "..", "src")))
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_PARENT_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120)
    # SIGKILL, not a clean exit: the in-process release paths never ran.
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    segment = proc.stdout.strip().split()[-1]
    assert segment.startswith("repro-")
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if not _shm_entries(segment):
            break
        time.sleep(0.2)
    assert not _shm_entries(segment), (
        f"segment {segment} still in /dev/shm 30s after the parent was "
        f"SIGKILL'd; the resource-tracker backstop is broken")


# ---------------------------------------------------------------------------
# the sweep that does not rely on the tracker
# ---------------------------------------------------------------------------

def _exited_pid():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def _untracked_segment(pid, tag):
    """What a kill between ``shm_open`` and the tracker's ``register``
    leaves behind: a segment file that no resource tracker knows about."""
    name = f"repro-{pid}-0-{tag}"
    os.close(os.open(os.path.join(SHM_DIR, name),
                     os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600))
    return name


def _remove(*names):
    for name in names:
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except FileNotFoundError:
            pass


def test_new_arena_sweeps_segments_of_exited_processes():
    orphan = _untracked_segment(_exited_pid(), "orphan")
    live = _untracked_segment(os.getpid(), "live")
    try:
        SharedArena(tag="sweep")
        assert not _shm_entries(orphan)
        assert _shm_entries(live)
    finally:
        _remove(orphan, live)


@pytest.mark.skipif(os.getuid() != 0, reason="chown needs root")
def test_sweep_spares_other_users_segments():
    foreign = _untracked_segment(_exited_pid(), "foreign")
    try:
        os.chown(os.path.join(SHM_DIR, foreign), 65534, 65534)
        SharedArena(tag="sweep")
        assert _shm_entries(foreign)
    finally:
        _remove(foreign)


def test_sweep_without_dev_shm_is_a_no_op(monkeypatch, tmp_path):
    import repro.runtime.shm as shm

    monkeypatch.setattr(shm, "_SHM_DIR", str(tmp_path / "absent"))
    shm._sweep_orphaned_segments()
