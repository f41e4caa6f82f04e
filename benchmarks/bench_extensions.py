"""Benches for the extension experiments and the bound-based baselines."""

import numpy as np
from conftest import assert_all_checks

from repro.baselines import hamerly, yinyang
from repro.core.init import init_centroids
from repro.core.lloyd import lloyd
from repro.data.synthetic import gaussian_blobs
from repro.experiments import run_experiment


def test_extra_weak_scaling(benchmark):
    out = benchmark(run_experiment, "extra_weak_scaling")
    assert_all_checks(out)
    print("\n" + out.text)


def test_extra_breakdown(benchmark):
    out = benchmark(run_experiment, "extra_breakdown")
    assert_all_checks(out)
    print("\n" + out.text)


def test_extra_validation(benchmark):
    out = benchmark(run_experiment, "extra_validation")
    assert_all_checks(out)
    print("\n" + out.text)


class TestBaselineSpeed:
    """Wall-clock of Lloyd vs the bound-based exact accelerations.

    Same trajectory, less distance work: on well-clustered data the bounds
    should cut the distance evaluations by more than half (the assertion is
    on the work counter, not wall-clock, which Python-loop overheads can
    obscure at this scale).
    """

    def _workload(self):
        X, _ = gaussian_blobs(n=4000, k=32, d=24, seed=2)
        return X, init_centroids(X, 32, method="first")

    def test_lloyd(self, benchmark):
        X, C0 = self._workload()
        result = benchmark(lloyd, X, C0, max_iter=30)
        assert result.converged

    def test_hamerly(self, benchmark):
        X, C0 = self._workload()
        result, stats = benchmark(hamerly, X, C0, max_iter=30)
        assert result.converged
        assert stats.fraction_skipped > 0.5

    def test_yinyang(self, benchmark):
        X, C0 = self._workload()
        result, stats = benchmark(yinyang, X, C0, max_iter=30)
        assert result.converged
        assert stats.fraction_skipped > 0.4

    def test_lloyd_host_parallel(self, benchmark):
        X, C0 = self._workload()
        result = benchmark(lloyd, X, C0, max_iter=30, engine="process",
                           workers=2)
        assert result.converged


def test_extra_dimreduction(benchmark):
    out = benchmark.pedantic(run_experiment, args=("extra_dimreduction",),
                             rounds=1, iterations=1)
    assert_all_checks(out)
    print("\n" + out.text)


def test_extra_flexibility(benchmark):
    out = benchmark(run_experiment, "extra_flexibility")
    assert_all_checks(out)
    print("\n" + out.text)


def test_extra_bounded(benchmark):
    out = benchmark(run_experiment, "extra_bounded")
    assert_all_checks(out)
    print("\n" + out.text)

