"""Tests for the Level 1/2/3 executors: correctness vs the serial baseline.

The central contract of the reproduction: every partitioned executor must
produce exactly the serial Lloyd trajectory (identical assignments,
centroids within fp-reassociation tolerance) for any feasible configuration,
while charging a plausible cost breakdown to its ledger.
"""

import warnings

import numpy as np
import pytest

from repro.core.init import init_centroids
from repro.core.kmeans import HierarchicalKMeans
from repro.core.level1 import Level1Executor, run_level1
from repro.core.level2 import Level2Executor, run_level2
from repro.core.level3 import Level3Executor, run_level3
from repro.core.lloyd import lloyd
from repro.data.synthetic import gaussian_blobs
from repro.errors import ConfigurationError, ConvergenceWarning
from repro.machine.machine import toy_machine


def run_level0(X, C0, machine, **kwargs):
    """Level 0 in the runners' signature; serial Lloyd takes no machine."""
    return lloyd(X, C0, **kwargs)


RUNNERS = {0: run_level0, 1: run_level1, 2: run_level2, 3: run_level3}
EXECUTORS = {1: Level1Executor, 2: Level2Executor, 3: Level3Executor}


def _warned_from(record):
    """The files the recorded convergence warnings are attributed to."""
    return [w.filename for w in record
            if issubclass(w.category, ConvergenceWarning)]


@pytest.fixture(scope="module")
def machine():
    return toy_machine(n_nodes=2, cgs_per_node=2, mesh=2,
                       ldm_bytes=64 * 1024)


@pytest.fixture(scope="module")
def workload():
    X, _ = gaussian_blobs(n=500, k=7, d=12, seed=13)
    C0 = init_centroids(X, 7, method="first")
    return X, C0


@pytest.fixture(scope="module")
def reference(workload):
    X, C0 = workload
    return lloyd(X, C0, max_iter=60)


@pytest.mark.parametrize("level", [1, 2, 3])
class TestEquivalenceWithSerial:
    def test_assignments_identical(self, level, machine, workload, reference):
        X, C0 = workload
        result = RUNNERS[level](X, C0, machine, max_iter=60)
        np.testing.assert_array_equal(result.assignments,
                                      reference.assignments)

    def test_centroids_match(self, level, machine, workload, reference):
        X, C0 = workload
        result = RUNNERS[level](X, C0, machine, max_iter=60)
        np.testing.assert_allclose(result.centroids, reference.centroids,
                                   rtol=1e-9, atol=1e-12)

    def test_same_iteration_count_and_convergence(self, level, machine,
                                                  workload, reference):
        X, C0 = workload
        result = RUNNERS[level](X, C0, machine, max_iter=60)
        assert result.n_iter == reference.n_iter
        assert result.converged == reference.converged

    def test_inertia_matches(self, level, machine, workload, reference):
        X, C0 = workload
        result = RUNNERS[level](X, C0, machine, max_iter=60)
        assert result.inertia == pytest.approx(reference.inertia, rel=1e-9)

    def test_level_attribute(self, level, machine, workload):
        X, C0 = workload
        result = RUNNERS[level](X, C0, machine, max_iter=2)
        assert result.level == level


@pytest.mark.parametrize("level", [2, 3])
class TestStrictCpeDataflow:
    """Strict mode walks the per-CPE/per-slice dataflow explicitly and must
    agree with both the fast path and the serial baseline."""

    def test_strict_equals_fast(self, level, machine, workload):
        X, C0 = workload
        fast = RUNNERS[level](X, C0, machine, max_iter=10)
        strict = RUNNERS[level](X, C0, machine, max_iter=10, strict_cpe=True)
        np.testing.assert_array_equal(fast.assignments, strict.assignments)
        np.testing.assert_allclose(fast.centroids, strict.centroids,
                                   rtol=1e-9)

    def test_strict_with_real_slicing(self, level):
        # A tiny LDM forces k (and d for Level 3) to be genuinely sliced.
        machine = toy_machine(n_nodes=2, cgs_per_node=2, mesh=2,
                              ldm_bytes=2048)
        X, _ = gaussian_blobs(n=300, k=20, d=16, seed=5)
        C0 = init_centroids(X, 20, method="first")
        ref = lloyd(X, C0, max_iter=30)
        result = RUNNERS[level](X, C0, machine, max_iter=30, strict_cpe=True)
        np.testing.assert_array_equal(result.assignments, ref.assignments)


class TestLedgers:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_every_iteration_charged(self, level, machine, workload):
        X, C0 = workload
        result = RUNNERS[level](X, C0, machine, max_iter=5)
        ledger = result.ledger
        assert ledger is not None
        assert ledger.n_iterations == result.n_iter
        for i in range(1, result.n_iter + 1):
            assert ledger.iteration_time(i) > 0

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_all_categories_used(self, level, machine, workload):
        X, C0 = workload
        result = RUNNERS[level](X, C0, machine, max_iter=3)
        totals = result.ledger.total_by_category()
        assert totals["dma"] > 0
        assert totals["compute"] > 0
        assert totals["regcomm"] > 0
        assert totals["network"] > 0  # multi-node machine

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_history_records_modelled_seconds(self, level, machine, workload):
        X, C0 = workload
        result = RUNNERS[level](X, C0, machine, max_iter=3)
        assert all(s.modelled_seconds > 0 for s in result.history)

    def test_single_node_has_no_network_time_at_level1(self, workload):
        machine = toy_machine(n_nodes=1, cgs_per_node=1, mesh=2,
                              ldm_bytes=64 * 1024)
        X, C0 = workload
        result = run_level1(X, C0, machine, max_iter=2)
        assert result.ledger.total_by_category()["network"] == 0.0


class TestCostTrends:
    """Modelled time must respond to scale the way the paper's analysis says."""

    def test_level1_scales_down_with_more_nodes(self):
        # Big enough that compute/DMA dominate the collective latency;
        # undersized workloads genuinely stop strong-scaling.
        X, _ = gaussian_blobs(n=6000, k=24, d=64, seed=13)
        C0 = init_centroids(X, 24, method="first")
        small = run_level1(X, C0, toy_machine(1, 2, 2, 64 * 1024), max_iter=2)
        big = run_level1(X, C0, toy_machine(4, 2, 2, 64 * 1024), max_iter=2)
        assert big.mean_iteration_seconds() < small.mean_iteration_seconds()

    def test_level2_read_amplification(self, machine):
        # Larger mgroup re-reads every sample more times: T'read grows.
        X, _ = gaussian_blobs(n=400, k=8, d=16, seed=2)
        C0 = init_centroids(X, 8, method="first")
        small = run_level2(X, C0, machine, mgroup=1, max_iter=2)
        large = run_level2(X, C0, machine, mgroup=4, max_iter=2)
        dma_small = small.ledger.total_by_category()["dma"]
        dma_large = large.ledger.total_by_category()["dma"]
        assert dma_large > dma_small

    def test_level3_mprime_affects_groups(self, machine):
        X, _ = gaussian_blobs(n=400, k=8, d=16, seed=2)
        C0 = init_centroids(X, 8, method="first")
        one = Level3Executor(machine, mprime_group=1)
        r1 = one.run(X, C0, max_iter=2)
        two = Level3Executor(machine, mprime_group=2)
        r2 = two.run(X, C0, max_iter=2)
        assert one.plan.n_groups == 4
        assert two.plan.n_groups == 2
        np.testing.assert_array_equal(r1.assignments, r2.assignments)


class TestEdgeCases:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_n_smaller_than_units(self, level, machine):
        X, _ = gaussian_blobs(n=6, k=2, d=4, seed=1)
        C0 = init_centroids(X, 2, method="first")
        ref = lloyd(X, C0, max_iter=20)
        result = RUNNERS[level](X, C0, machine, max_iter=20)
        np.testing.assert_array_equal(result.assignments, ref.assignments)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_k_equals_one(self, level, machine):
        X, _ = gaussian_blobs(n=64, k=2, d=4, seed=1)
        C0 = X[:1].copy()
        result = RUNNERS[level](X, C0, machine, max_iter=10)
        np.testing.assert_allclose(result.centroids[0], X.mean(axis=0))
        assert result.converged

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_max_iter_one(self, level, machine, workload):
        X, C0 = workload
        result = RUNNERS[level](X, C0, machine, max_iter=1)
        assert result.n_iter == 1

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_unconverged_run_warns(self, level, machine, workload):
        X, C0 = workload
        with pytest.warns(ConvergenceWarning,
                          match="did not converge") as record:
            result = RUNNERS[level](X, C0, machine, max_iter=1)
        assert not result.converged
        # The warning names the caller's line, not one inside the package.
        assert _warned_from(record) == [__file__]

    @pytest.mark.parametrize("level", [0, 3])
    def test_facade_warning_points_at_the_caller(self, level, machine,
                                                 workload):
        X, _ = workload
        model = HierarchicalKMeans(7, machine=machine, level=level,
                                   init="first", max_iter=1)
        with pytest.warns(ConvergenceWarning) as record:
            model.fit(X)
        assert _warned_from(record) == [__file__]

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_converged_run_does_not_warn(self, level, machine, workload):
        X, C0 = workload
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            result = RUNNERS[level](X, C0, machine, max_iter=60)
        assert result.converged

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_empty_cluster_keeps_centroid(self, level, machine):
        # Place one centroid far away so it captures nothing.
        X = np.random.default_rng(3).normal(size=(60, 4))
        C0 = np.vstack([X[:3], np.full((1, 4), 1e6)])
        result = RUNNERS[level](X, C0, machine, max_iter=3)
        np.testing.assert_allclose(result.centroids[3], 1e6)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_invalid_max_iter(self, level, machine, workload):
        X, C0 = workload
        with pytest.raises(ConfigurationError):
            RUNNERS[level](X, C0, machine, max_iter=0)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_executor_reports_plan_after_setup(self, level, machine,
                                               workload):
        X, C0 = workload
        executor = EXECUTORS[level](machine)
        with pytest.raises(RuntimeError):
            _ = executor.plan
        executor.run(X, C0, max_iter=1)
        assert executor.plan.n == X.shape[0]


class TestCollectiveAlgorithms:
    @pytest.mark.parametrize("algorithm",
                             ["ring", "tree", "recursive-doubling"])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_results_independent_of_algorithm(self, level, algorithm,
                                              machine, workload, reference):
        X, C0 = workload
        result = RUNNERS[level](X, C0, machine, max_iter=60,
                                collective_algorithm=algorithm)
        np.testing.assert_array_equal(result.assignments,
                                      reference.assignments)
