"""Tests for the model-selection / stability tools in repro.core.metrics."""

import numpy as np
import pytest

from repro.core.metrics import (
    bootstrap_stability,
    inertia_sweep,
    knee_point,
    silhouette_sweep,
)
from repro.data.synthetic import gaussian_blobs, uniform_cloud
from repro.errors import ConfigurationError
from repro.machine.machine import toy_machine


@pytest.fixture(scope="module")
def machine():
    return toy_machine(n_nodes=1, cgs_per_node=2, mesh=2,
                       ldm_bytes=64 * 1024)


@pytest.fixture(scope="module")
def blobs():
    X, labels = gaussian_blobs(n=600, k=5, d=6, spread=0.03, seed=29)
    return X, labels


class TestKneePoint:
    def test_synthetic_elbow(self):
        # A curve that drops fast to k=4 then flattens: the knee is 4.
        ks = [2, 3, 4, 5, 6, 7]
        inertias = [100.0, 50.0, 10.0, 9.0, 8.5, 8.2]
        assert knee_point(ks, inertias) == 4

    def test_linear_curve_picks_interior(self):
        ks = [1, 2, 3, 4]
        inertias = [4.0, 3.0, 2.0, 1.0]
        assert knee_point(ks, inertias) in ks

    def test_needs_three_points(self):
        with pytest.raises(ConfigurationError):
            knee_point([1, 2], [2.0, 1.0])


class TestInertiaSweep:
    def test_monotone_decreasing_scores(self, machine, blobs):
        X, _ = blobs
        sweep = inertia_sweep(X, [2, 3, 5, 8], machine=machine, seed=1)
        assert all(b <= a * 1.05 for a, b in zip(sweep.scores,
                                                 sweep.scores[1:]))

    def test_finds_true_k_neighbourhood(self, machine, blobs):
        X, _ = blobs
        sweep = inertia_sweep(X, [2, 3, 4, 5, 6, 7, 8], machine=machine,
                              seed=1, n_init=3)
        assert sweep.best_k in (4, 5, 6)

    def test_validation(self, machine, blobs):
        X, _ = blobs
        with pytest.raises(ConfigurationError):
            inertia_sweep(X, [], machine=machine)
        with pytest.raises(ConfigurationError):
            inertia_sweep(X, [3, 2], machine=machine)
        with pytest.raises(ConfigurationError):
            inertia_sweep(X, [0, 2], machine=machine)


class TestSilhouetteSweep:
    def test_peaks_at_true_k(self, machine, blobs):
        X, _ = blobs
        sweep = silhouette_sweep(X, [2, 3, 5, 8], machine=machine, seed=1,
                                 sample_size=None)
        assert sweep.best_k == 5

    def test_rejects_k_of_one(self, machine, blobs):
        X, _ = blobs
        with pytest.raises(ConfigurationError):
            silhouette_sweep(X, [1, 2], machine=machine)


class TestBootstrapStability:
    def test_structured_data_is_stable(self, machine, blobs):
        X, _ = blobs
        report = bootstrap_stability(X, k=5, machine=machine, n_rounds=5,
                                     seed=3)
        assert report.stable
        assert report.mean > 0.8
        assert len(report.scores) == 5

    def test_noise_is_less_stable_than_structure(self, machine, blobs):
        X, _ = blobs
        noise = uniform_cloud(600, 6, seed=1)
        structured = bootstrap_stability(X, k=5, machine=machine,
                                         n_rounds=5, seed=3)
        unstructured = bootstrap_stability(noise, k=5, machine=machine,
                                           n_rounds=5, seed=3)
        assert structured.mean > unstructured.mean

    def test_validation(self, machine, blobs):
        X, _ = blobs
        with pytest.raises(ConfigurationError):
            bootstrap_stability(X, k=3, machine=machine, n_rounds=0)
        with pytest.raises(ConfigurationError):
            bootstrap_stability(X, k=3, machine=machine, subsample=0.0)
