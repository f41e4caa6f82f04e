"""Tests for the pluggable host execution engine.

The engine's contract is that it changes *scheduling only*: for the same
block list and per-block function, the serial and thread engines (at any
worker count) must produce bit-identical centroids, assignments, modelled
ledger seconds, and fault-event replays.  These tests pin that contract
across every partition level, serial Lloyd, and the fused/unfused
kernel pair.
"""

from typing import Optional

import numpy as np
import pytest

from repro.analysis.envvars import ENV_ENGINE, ENV_WORKERS
from repro.core._common import accumulate, assign_with_distances, inertia
from repro.core.init import init_centroids
from repro.core.kernels import resolve_kernel
from repro.core.kmeans import HierarchicalKMeans
from repro.core.lloyd import lloyd
from repro.data.synthetic import gaussian_blobs
from repro.errors import ConfigurationError
from repro.machine.machine import toy_machine
from repro.runtime.engine import (
    SerialEngine,
    ThreadEngine,
    resolve_engine,
)
from repro.runtime.faults import FaultPlan, FaultSpec


# ---------------------------------------------------------------------------
# resolve_engine
# ---------------------------------------------------------------------------

class TestResolveEngine:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        # These tests pin resolve_engine's *default* behaviour; the CI
        # matrix exports REPRO_ENGINE/REPRO_WORKERS for the whole suite.
        monkeypatch.delenv(ENV_ENGINE.name, raising=False)
        monkeypatch.delenv(ENV_WORKERS.name, raising=False)

    def test_default_is_serial(self):
        assert isinstance(resolve_engine(), SerialEngine)

    def test_names(self):
        assert isinstance(resolve_engine("serial"), SerialEngine)
        assert isinstance(resolve_engine("thread"), ThreadEngine)

    def test_instance_passthrough(self):
        eng = ThreadEngine(workers=3)
        assert resolve_engine(eng) is eng
        assert resolve_engine(eng, workers=3) is eng

    def test_instance_worker_conflict(self):
        with pytest.raises(ConfigurationError):
            resolve_engine(ThreadEngine(workers=3), workers=2)

    def test_workers_alone_implies_thread(self):
        eng = resolve_engine(workers=4)
        assert isinstance(eng, ThreadEngine)
        assert eng.workers == 4

    def test_workers_one_stays_serial(self):
        assert isinstance(resolve_engine(workers=1), SerialEngine)

    def test_serial_with_many_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("serial", workers=4)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("gpu")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ThreadEngine(workers=0)

    @pytest.mark.parametrize("workers", [0, -2])
    @pytest.mark.parametrize("name", ["serial", "thread", "process", None])
    def test_resolve_rejects_worker_counts_below_one(
            self, name: Optional[str], workers: int) -> None:
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            resolve_engine(name, workers=workers)

    def test_env_engine(self, monkeypatch):
        monkeypatch.setenv(ENV_ENGINE.name, "thread")
        monkeypatch.setenv(ENV_WORKERS.name, "3")
        eng = resolve_engine()
        assert isinstance(eng, ThreadEngine)
        assert eng.workers == 3

    def test_env_ignored_when_explicit(self, monkeypatch):
        monkeypatch.setenv(ENV_ENGINE.name, "thread")
        monkeypatch.setenv(ENV_WORKERS.name, "3")
        assert isinstance(resolve_engine("serial"), SerialEngine)

    def test_env_bad_workers_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_ENGINE.name, "thread")
        monkeypatch.setenv(ENV_WORKERS.name, "four")
        with pytest.raises(ConfigurationError):
            resolve_engine()

    @pytest.mark.parametrize("value", ["", "  "])
    def test_env_empty_values_are_unset(self, monkeypatch, value):
        # CI matrices export empty strings for legs that don't use a knob;
        # an empty REPRO_WORKERS/REPRO_ENGINE must behave like no override.
        monkeypatch.setenv(ENV_ENGINE.name, value)
        monkeypatch.setenv(ENV_WORKERS.name, value)
        assert isinstance(resolve_engine(), SerialEngine)

    def test_env_workers_alone_implies_thread(self, monkeypatch):
        # Same implication as resolve_engine(workers=4): REPRO_WORKERS > 1
        # without REPRO_ENGINE selects the thread engine rather than
        # rejecting workers on the serial default.
        monkeypatch.setenv(ENV_WORKERS.name, "4")
        eng = resolve_engine()
        assert isinstance(eng, ThreadEngine)
        assert eng.workers == 4

    def test_env_workers_one_stays_serial(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS.name, "1")
        assert isinstance(resolve_engine(), SerialEngine)


class TestMapSemantics:
    @pytest.mark.parametrize("engine", [SerialEngine(), ThreadEngine(2),
                                        ThreadEngine(4)])
    def test_submission_order_preserved(self, engine):
        items = list(range(64))
        assert engine.map(lambda i: i * i, items) == [i * i for i in items]

    @pytest.mark.parametrize("engine", [SerialEngine(), ThreadEngine(2)])
    def test_empty_and_singleton(self, engine):
        assert engine.map(lambda i: i, []) == []
        assert engine.map(lambda i: i + 1, [41]) == [42]

    def test_worker_exceptions_propagate(self):
        def boom(i):
            raise ValueError(f"item {i}")

        with pytest.raises(ValueError):
            ThreadEngine(2).map(boom, range(8))


# ---------------------------------------------------------------------------
# bit-identical execution across engines
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def workload():
    X, _ = gaussian_blobs(n=640, k=5, d=8, seed=17)
    C0 = init_centroids(X, 5, method="first")
    return X, C0


def _fit(level, engine, workers=None, **kwargs):
    X, _ = gaussian_blobs(n=420, k=4, d=6, seed=8)
    model = HierarchicalKMeans(
        4, machine=toy_machine(n_nodes=2), level=level, seed=13,
        max_iter=25, engine=engine, workers=workers, **kwargs)
    return model.fit(X)


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("workers", [2, 4])
def test_thread_engine_bit_identical_to_serial(level, workers):
    serial = _fit(level, "serial")
    threaded = _fit(level, "thread", workers=workers)
    np.testing.assert_array_equal(serial.centroids, threaded.centroids)
    np.testing.assert_array_equal(serial.assignments, threaded.assignments)
    assert serial.inertia == threaded.inertia
    assert serial.n_iter == threaded.n_iter
    assert [s.inertia for s in serial.history] \
        == [s.inertia for s in threaded.history]
    # Modelled time is engine-independent: identical charges, in order.
    assert serial.ledger.records == threaded.ledger.records


@pytest.mark.parametrize("level", [1, 2, 3])
def test_thread_engine_bit_identical_strict_cpe(level):
    serial = _fit(level, "serial", strict_cpe=True)
    threaded = _fit(level, "thread", workers=2, strict_cpe=True)
    np.testing.assert_array_equal(serial.centroids, threaded.centroids)
    np.testing.assert_array_equal(serial.assignments, threaded.assignments)
    assert serial.ledger.records == threaded.ledger.records


@pytest.mark.parametrize("level", [1, 2, 3])
def test_fault_replay_engine_independent(level):
    plan = FaultPlan([
        FaultSpec("transient_dma", iteration=2),
        FaultSpec("collective_timeout", probability=0.05),
    ], seed=99)
    serial = _fit(level, "serial", faults=plan, recovery="retry")
    threaded = _fit(level, "thread", workers=4, faults=plan,
                    recovery="retry")
    np.testing.assert_array_equal(serial.centroids, threaded.centroids)
    assert serial.fault_events == threaded.fault_events
    assert serial.ledger.records == threaded.ledger.records


@pytest.mark.parametrize("kernel", ["naive", "gemm"])
@pytest.mark.parametrize("workers", [2, 4])
def test_lloyd_thread_parity(workload, kernel, workers):
    X, C0 = workload
    # Same chunk_elements both sides: shard boundaries are part of the
    # problem shape, and bit-identity is promised for a fixed shard list.
    serial = lloyd(X, C0, max_iter=20, kernel=kernel, engine="serial",
                   chunk_elements=4096)
    threaded = lloyd(X, C0, max_iter=20, kernel=kernel, engine="thread",
                     workers=workers, chunk_elements=4096)
    np.testing.assert_array_equal(serial.centroids, threaded.centroids)
    np.testing.assert_array_equal(serial.assignments, threaded.assignments)
    assert serial.inertia == threaded.inertia


def test_env_var_selection_round_trip(monkeypatch, workload):
    X, C0 = workload
    baseline = lloyd(X, C0, max_iter=5)
    monkeypatch.setenv(ENV_ENGINE.name, "thread")
    monkeypatch.setenv(ENV_WORKERS.name, "2")
    via_env = lloyd(X, C0, max_iter=5)
    np.testing.assert_array_equal(baseline.centroids, via_env.centroids)


# ---------------------------------------------------------------------------
# fused kernel vs unfused pair
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", ["naive", "gemm"])
def test_fused_matches_unfused(workload, kernel):
    X, C = workload
    backend = resolve_kernel(kernel)
    idx, best, sums, counts = backend.assign_accumulate(X, C)
    ref_idx, ref_best = backend.assign_with_distances(X, C)
    ref_sums, ref_counts = accumulate(X, ref_idx, C.shape[0])
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(best, ref_best)
    np.testing.assert_array_equal(sums, ref_sums)
    np.testing.assert_array_equal(counts, ref_counts)


def test_fused_matches_unfused_on_adversarial_ties():
    # Duplicated centroids and samples sitting exactly on them: every
    # distance ties at 0 and the lowest-index rule decides.  The fused and
    # unfused paths must agree bit for bit, including which index wins.
    rng = np.random.default_rng(3)
    C = np.repeat(rng.normal(size=(4, 6)), 2, axis=0)  # each centroid twice
    X = np.vstack([C, C, rng.normal(size=(32, 6))])
    for kernel in ("naive", "gemm"):
        backend = resolve_kernel(kernel)
        idx, best, sums, counts = backend.assign_accumulate(X, C,
                                                            chunk_elements=64)
        ref_idx, ref_best = backend.assign_with_distances(X, C,
                                                          chunk_elements=64)
        ref_sums, ref_counts = accumulate(X, ref_idx, C.shape[0])
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(best, ref_best)
        np.testing.assert_array_equal(sums, ref_sums)
        np.testing.assert_array_equal(counts, ref_counts)
        # Ties resolve to the lowest centroid index (np.argmin rule).
        assert (idx[:8] == np.arange(8) // 2 * 2).all()


def test_history_inertia_matches_objective(workload):
    # The per-iteration inertia now comes from the winning distances; it
    # must equal the recomputed objective under the incoming centroids.
    X, C0 = workload
    result = lloyd(X, C0, max_iter=6)
    idx, best = assign_with_distances(X, C0)
    assert result.history[0].inertia == pytest.approx(
        inertia(X, C0, idx), rel=1e-12)
    assert result.history[0].inertia == pytest.approx(
        float(best.sum() / X.shape[0]), rel=1e-12)
