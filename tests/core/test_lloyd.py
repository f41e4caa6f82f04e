"""Tests for the serial Lloyd baseline.

The edge cases every level shares (k=1, max_iter=1, the convergence
warning, an empty cluster, an invalid max_iter) run at Level 0 too in
``tests/core/test_levels.py``.
"""

import warnings

import numpy as np
import pytest

from repro.core._common import DEFAULT_CHUNK_ELEMENTS, assign_chunked, inertia
from repro.core.init import init_centroids
from repro.core.lloyd import lloyd, lloyd_single_iteration
from repro.data.synthetic import gaussian_blobs
from repro.errors import ConfigurationError, ConvergenceWarning


@pytest.fixture
def blobs():
    X, labels = gaussian_blobs(n=500, k=5, d=6, spread=0.02, seed=7)
    return X, labels


class TestConvergence:
    def test_converges_on_separated_blobs(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="kmeans++", seed=7)
        result = lloyd(X, C0, max_iter=100)
        assert result.converged
        assert result.n_iter < 100

    def test_fixed_point_is_stable(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="kmeans++", seed=7)
        result = lloyd(X, C0)
        again = lloyd(X, result.centroids, max_iter=2)
        assert again.n_iter == 1
        np.testing.assert_allclose(again.centroids, result.centroids)

    def test_inertia_never_increases(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        result = lloyd(X, C0, max_iter=50)
        inertias = [s.inertia for s in result.history]
        assert all(b <= a + 1e-12 for a, b in zip(inertias, inertias[1:]))

    def test_max_iter_respected(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        with pytest.warns(ConvergenceWarning):
            result = lloyd(X, C0, max_iter=2)
        assert result.n_iter <= 2

    def test_tol_loosens_convergence(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        tight = lloyd(X, C0, tol=0.0)
        loose = lloyd(X, C0, tol=1.0)
        assert loose.n_iter <= tight.n_iter

    def test_final_inertia_is_true_objective_with_tol(self, blobs):
        # A tol > 0 stop halts one Update past the last Assign, so the held
        # labels can be stale against the final centroids; result.inertia
        # must still be the true objective O(C) under nearest-centroid
        # labels, exactly as the pre-fused implementation computed it.
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        result = lloyd(X, C0, tol=0.5, max_iter=50)
        fresh = assign_chunked(X, result.centroids)
        assert result.inertia == inertia(X, result.centroids, fresh)

    def test_final_inertia_is_true_objective_when_not_converged(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = lloyd(X, C0, max_iter=1)
        fresh = assign_chunked(X, result.centroids)
        assert result.inertia == inertia(X, result.centroids, fresh)


class TestCorrectness:
    def test_recovers_ground_truth_blobs(self, blobs):
        X, labels = blobs
        C0 = init_centroids(X, 5, method="kmeans++", seed=3)
        result = lloyd(X, C0)
        # Each found cluster should be nearly pure in ground-truth labels.
        purity = 0
        for j in range(5):
            members = labels[result.assignments == j]
            if members.size:
                purity += np.bincount(members).max()
        assert purity / X.shape[0] > 0.95

    def test_final_assignments_consistent_with_centroids(self, blobs):
        X, _ = blobs
        result = lloyd(X, init_centroids(X, 5, method="first"))
        np.testing.assert_array_equal(
            result.assignments, assign_chunked(X, result.centroids))

    def test_final_inertia_matches_assignments(self, blobs):
        X, _ = blobs
        result = lloyd(X, init_centroids(X, 5, method="first"))
        assert result.inertia == pytest.approx(
            inertia(X, result.centroids, result.assignments))

    def test_k_equals_n(self):
        X = np.random.default_rng(1).normal(size=(10, 2))
        result = lloyd(X, X.copy(), max_iter=5)
        assert result.converged
        assert result.inertia == pytest.approx(0.0, abs=1e-20)

    def test_initial_centroids_not_mutated(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        frozen = C0.copy()
        lloyd(X, C0, max_iter=3)
        np.testing.assert_array_equal(C0, frozen)

    def test_history_telemetry(self, blobs):
        X, _ = blobs
        result = lloyd(X, init_centroids(X, 5, method="first"), max_iter=20)
        assert len(result.history) == result.n_iter
        assert result.history[0].n_reassigned == X.shape[0]
        if result.converged:
            assert result.history[-1].centroid_shift == pytest.approx(0.0)


class TestSingleIteration:
    # 512 elements split the 500 rows into many blocks under every kernel,
    # so the step must merge its per-block partials exactly as lloyd does.
    @pytest.mark.parametrize("kernel", ["naive", "gemm", "pruned"])
    @pytest.mark.parametrize("chunk_elements", [512, DEFAULT_CHUNK_ELEMENTS])
    def test_matches_full_run_first_step(self, blobs, kernel,
                                         chunk_elements):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        a, C1 = lloyd_single_iteration(X, C0, chunk_elements=chunk_elements,
                                       kernel=kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = lloyd(X, C0, max_iter=1, chunk_elements=chunk_elements,
                           kernel=kernel)
        np.testing.assert_array_equal(a, result.assignments)
        np.testing.assert_array_equal(C1, result.centroids)


class TestValidation:
    def test_bad_tol(self, blobs):
        X, _ = blobs
        with pytest.raises(ConfigurationError):
            lloyd(X, X[:2], tol=-1.0)
