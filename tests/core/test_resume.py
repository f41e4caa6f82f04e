"""Resume-from-durable-checkpoint: the continuation is bit-identical.

Assignments are a pure function of ``(X, C)``, so ``(iteration,
centroids)`` is complete restart state: a run killed at any point and
resumed from its last durable snapshot must converge to exactly the
centroids, assignments, and inertia of the uninterrupted run.
"""

import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import repro
from repro.core.checkpoint import CHECKPOINT_FILENAME
from repro.core.init import init_centroids
from repro.core.kmeans import HierarchicalKMeans
from repro.core.lloyd import lloyd
from repro.data.synthetic import gaussian_blobs
from repro.errors import ConfigurationError, ConvergenceWarning
from repro.machine.machine import toy_machine


@pytest.fixture(scope="module")
def workload():
    X, _ = gaussian_blobs(n=420, k=4, d=6, seed=8)
    C0 = init_centroids(X, 4, method="first")
    return X, C0


def _assert_same_result(a, b):
    np.testing.assert_array_equal(a.centroids, b.centroids)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia
    assert a.n_iter == b.n_iter
    assert a.converged == b.converged


class TestLloydResume:
    def test_resume_from_empty_dir_is_cold_start(self, tmp_path, workload):
        X, C0 = workload
        full = lloyd(X, C0, max_iter=60)
        resumed = lloyd(X, C0, max_iter=60, checkpoint_dir=str(tmp_path),
                        resume=True)
        _assert_same_result(full, resumed)

    def test_resume_without_dir_rejected(self, workload):
        X, C0 = workload
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            lloyd(X, C0, resume=True)

    def test_resume_shape_mismatch_rejected(self, tmp_path, workload):
        X, C0 = workload
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            lloyd(X, C0, max_iter=3, checkpoint_every=1,
                  checkpoint_dir=str(tmp_path))
        with pytest.raises(ConfigurationError, match="shape"):
            lloyd(X, C0[:-1], max_iter=10, checkpoint_dir=str(tmp_path),
                  resume=True)

    def test_resume_past_max_iter_still_usable(self, tmp_path, workload):
        # A snapshot at iteration >= max_iter runs zero iterations; the
        # result must still label against the restored centroids.
        X, C0 = workload
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            lloyd(X, C0, max_iter=6, checkpoint_every=1,
                  checkpoint_dir=str(tmp_path))
        result = lloyd(X, C0, max_iter=5, checkpoint_dir=str(tmp_path),
                       resume=True)
        assert (result.assignments >= 0).all()
        assert np.isfinite(result.inertia)


def _fit(level, tmp_path=None, resume=False, max_iter=60, engine=None,
         workers=None):
    X, _ = gaussian_blobs(n=420, k=4, d=6, seed=8)
    model = HierarchicalKMeans(
        4, machine=toy_machine(n_nodes=2), level=level, seed=13,
        max_iter=max_iter, checkpoint_every=1,
        checkpoint_dir=None if tmp_path is None else str(tmp_path),
        resume=resume, engine=engine, workers=workers)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return model.fit(X)


class TestExecutorResume:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_interrupt_and_resume_bit_identical(self, tmp_path, level):
        full = _fit(level)
        assert full.converged
        # The iteration cap plays the kill; the rerun resumes from the
        # durable snapshot.
        _fit(level, tmp_path, max_iter=4)
        resumed = _fit(level, tmp_path, resume=True)
        _assert_same_result(full, resumed)
        assert any(e.kind == "resume" for e in resumed.host_events)
        # Epoch numbering continued where the killed run left off, so the
        # overlapping telemetry lines up.
        full_by_it = {s.iteration: s.inertia for s in full.history}
        for stats in resumed.history:
            assert full_by_it[stats.iteration] == stats.inertia

    def test_resume_across_engines(self, tmp_path):
        # Killed under the serial engine, resumed under the thread engine:
        # the engine changes scheduling only, so the continuation is still
        # bit-identical.
        full = _fit(1)
        _fit(1, tmp_path, max_iter=4, engine="serial")
        resumed = _fit(1, tmp_path, resume=True, engine="thread", workers=4)
        _assert_same_result(full, resumed)

    def test_facade_resume_needs_dir(self):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            HierarchicalKMeans(4, machine=toy_machine(n_nodes=1),
                               resume=True)

    def test_facade_resume_rejects_multi_init(self, tmp_path):
        with pytest.raises(ConfigurationError, match="n_init"):
            HierarchicalKMeans(4, machine=toy_machine(n_nodes=1),
                               checkpoint_dir=str(tmp_path), resume=True,
                               n_init=3)


def _fit_like_cli(ckpt=None, resume=False):
    """In-process run matching the CLI invocation of the kill test exactly.

    Same data seed, same toy-machine geometry, same model knobs: the block
    boundaries (and hence the float summation order) are a function of the
    machine, so only an identical configuration replays the identical
    trajectory.
    """
    X, _ = gaussian_blobs(n=420, k=4, d=6, seed=13)
    machine = toy_machine(n_nodes=1, cgs_per_node=2, mesh=4,
                          ldm_bytes=16 * 1024)
    model = HierarchicalKMeans(
        4, machine=machine, level=1, seed=13, max_iter=60,
        checkpoint_every=1,
        checkpoint_dir=None if ckpt is None else str(ckpt), resume=resume)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return model.fit(X)


class TestKillAndResume:
    def test_sigkilled_run_resumes_bit_identical(self, tmp_path):
        """Hard-kill a clustering process mid-run; resume from its snapshot.

        The child is slowed with host chaos (slow_task on every block, a
        pure scheduling perturbation) so SIGKILL lands mid-run; whatever
        snapshot the atomic writes left behind, the resumed run must land
        on exactly the uninterrupted trajectory's fixed point.
        """
        ckpt = tmp_path / "ckpt"
        src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) \
            + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CHAOS"] = "slow_task:p=1.0,delay=0.05"
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "cluster",
             "--n", "420", "--k", "4", "--d", "6", "--toy",
             "--level", "1", "--seed", "13", "--max-iter", "60",
             "--checkpoint-every", "1", "--checkpoint-dir", str(ckpt)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Wait for at least one durable snapshot, then kill -9.
            deadline = time.monotonic() + 120
            path = ckpt / CHECKPOINT_FILENAME
            while not path.exists():
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("child never wrote a checkpoint")
                if child.poll() is not None:  # pragma: no cover
                    pytest.fail("child exited before it could be killed")
                time.sleep(0.01)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=60)
        finally:
            if child.poll() is None:  # pragma: no cover
                child.kill()
                child.wait(timeout=60)

        full = _fit_like_cli()
        resumed = _fit_like_cli(ckpt, resume=True)
        _assert_same_result(full, resumed)
