"""The BLAS thread budget of pooled runs (``repro.runtime.blas``).

A pooled run holds the fitting process at its engine's budget and each
process-engine worker at its share of the CPUs; the count comes back
afterwards, a scope never raises it, and a serial fit never touches it.
The count asserts need NumPy's bundled OpenBLAS and skip elsewhere.
"""

import threading
import warnings

import numpy as np
import pytest

from repro.core.kmeans import HierarchicalKMeans
from repro.core.lloyd import lloyd
from repro.data.synthetic import gaussian_blobs
from repro.errors import ConvergenceWarning, NumericalFaultError
from repro.machine.machine import toy_machine
from repro.runtime import blas
from repro.runtime.chaos import ChaosInjector, parse_chaos_plan
from repro.runtime.engine import (
    SerialEngine,
    ThreadEngine,
    blas_share,
    shutdown_pools,
)
from repro.runtime.process_engine import ProcessEngine
from repro.runtime.supervisor import RunSupervisor

#: The count every test starts from, so a scope's lowering always shows.
OUTSIDE = 2


@pytest.fixture
def outside():
    """The process at ``OUTSIDE`` BLAS threads, restored after the test."""
    before = blas.get_num_threads()
    if before is None:
        pytest.skip("NumPy's BLAS is not the bundled OpenBLAS")
    blas.set_num_threads(OUTSIDE)
    yield OUTSIDE
    blas.set_num_threads(before)


@pytest.fixture
def fresh_pools():
    """Workers forked inside the test, and none left behind by it."""
    shutdown_pools()
    yield
    shutdown_pools()


def _worker_threads(_):
    return blas.get_num_threads()


class _BudgetProbe(RunSupervisor):
    """Samples the fitting process's BLAS count at every iteration."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def begin_iteration(self, iteration):
        self.seen.append(blas.get_num_threads())
        super().begin_iteration(iteration)


def _workload():
    X, _ = gaussian_blobs(n=600, k=4, d=5, seed=3)
    return X, np.array(X[:4], copy=True)


def _engine(name):
    if name == "serial":
        return SerialEngine()
    return {"thread": ThreadEngine, "process": ProcessEngine}[name](workers=2)


def _fit(level, engine, **kwargs):
    X, C0 = _workload()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        if level == 0:
            return lloyd(X, C0, max_iter=3, engine=engine, **kwargs)
        return HierarchicalKMeans(
            4, machine=toy_machine(n_nodes=2), level=level, init=C0,
            max_iter=3, engine=engine, **kwargs).fit(X)


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

class TestWorkers:
    def test_worker_runs_at_its_share(self, outside, fresh_pools):
        engine = ProcessEngine(workers=2)
        expected = min(blas_share(2), outside)
        assert engine.map(_worker_threads, range(4)) == [expected] * 4

    def test_respawned_worker_gets_its_share_inside_a_run(
            self, outside, fresh_pools, monkeypatch):
        # Four CPUs make a worker's share (2) differ from the parent's
        # process-engine budget (1), which a worker respawned inside the
        # run inherits at the fork.
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        plan = parse_chaos_plan("worker_kill@1;seed=7")
        engine = ProcessEngine(workers=2, chaos=ChaosInjector(plan))
        with blas.limit(engine.blas_threads()):
            assert blas.get_num_threads() == 1
            counts = engine.map(_worker_threads, range(6))
        kinds = [kind for kind, _, _ in engine.drain_events()]
        assert "worker_respawn" in kinds
        assert counts == [min(2, outside)] * 6


# ---------------------------------------------------------------------------
# the fitting process
# ---------------------------------------------------------------------------

class TestRunScope:
    @pytest.mark.parametrize("level", [0, 3])
    @pytest.mark.parametrize("engine", ["thread", "process"])
    def test_fit_holds_the_engine_budget_then_restores(
            self, outside, engine, level):
        # The thread engine's kernels run in this process; the process
        # engine's run in its workers.
        budget = blas_share(2) if engine == "thread" else 1
        probe = _BudgetProbe()
        _fit(level, _engine(engine), supervisor=probe)
        assert probe.seen and set(probe.seen) == {min(budget, outside)}
        assert blas.get_num_threads() == outside

    @pytest.mark.parametrize("engine", ["thread", "process"])
    def test_count_restored_when_the_fit_raises(self, outside, engine):
        # Squared distances past the float range fail the inertia guard.
        X, C0 = _workload()
        with pytest.raises(NumericalFaultError):
            lloyd(X * 1e200, C0 * 1e200, max_iter=3,
                  engine=_engine(engine))
        assert blas.get_num_threads() == outside

    def test_serial_fit_never_touches_the_count(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a serial fit reached the BLAS library")

        monkeypatch.setattr(blas, "set_num_threads", refuse)
        monkeypatch.setattr(blas, "_library", refuse)
        for level in (0, 3):
            _fit(level, _engine("serial"))
            _fit(level, ThreadEngine(workers=1))

    def test_process_fit_without_openblas_equals_serial(
            self, fresh_pools, monkeypatch):
        monkeypatch.setattr(blas, "_library", lambda: None)
        assert blas.get_num_threads() is None
        serial = _fit(3, _engine("serial"))
        pooled = _fit(3, _engine("process"))
        np.testing.assert_array_equal(serial.centroids, pooled.centroids)
        np.testing.assert_array_equal(serial.assignments, pooled.assignments)
        np.testing.assert_array_equal(serial.inertia, pooled.inertia)


# ---------------------------------------------------------------------------
# scopes
# ---------------------------------------------------------------------------

class TestScopes:
    def test_nested_scopes_restore_the_outermost_count(self, outside):
        with blas.limit(1):
            assert blas.get_num_threads() == 1
            with blas.limit(outside + 1):
                assert blas.get_num_threads() == 1
            assert blas.get_num_threads() == 1
        assert blas.get_num_threads() == outside

    def test_scope_never_raises_the_count(self, outside):
        blas.set_num_threads(1)
        with blas.limit(outside):
            assert blas.get_num_threads() == 1
        assert blas.get_num_threads() == 1

    def test_scope_restores_on_an_exception(self, outside):
        with pytest.raises(KeyError):
            with blas.limit(1):
                raise KeyError("boom")
        assert blas.get_num_threads() == outside

    def test_concurrent_scopes_restore_when_the_last_exits(self, outside):
        # The first thread's scope exits while the second's is still open.
        entered = threading.Event()
        first_done = threading.Event()
        seen = {}

        def second():
            with blas.limit(1):
                entered.set()
                assert first_done.wait(timeout=10)
                seen["after first exit"] = blas.get_num_threads()

        worker = threading.Thread(target=second)
        with blas.limit(1):
            worker.start()
            assert entered.wait(timeout=10)
        first_done.set()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == {"after first exit": 1}
        assert blas.get_num_threads() == outside
