"""``kernel="pruned"``: exact Hamerly-bounded pruning, bit-identical to naive.

The non-negotiable contract of the pruned backend: centroids, labels,
inertia, history, and fault/chaos replays are **bitwise** identical to
``kernel="naive"`` — across engines, worker counts, reduce topologies,
adversarial and decimal near ties, subnormal and overflowing scales,
checkpoint resumes, replans, and rollbacks.  Pruning is allowed to change
exactly one observable: how many distance evaluations the ledger charges
for.
"""

import os
import signal
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from typing import Any, Callable, Dict, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import bounds
from repro.core.bounds import (
    BlockBounds,
    centroid_separation,
    certified_bounds,
)
from repro.core.checkpoint import CHECKPOINT_FILENAME
from repro.core.kernels import (
    GemmKernel,
    NaiveKernel,
    PrunedKernel,
    resolve_kernel,
    screen_margin,
    sqrt_down,
)
from repro.core.kmeans import HierarchicalKMeans
from repro.core.level1 import Level1Executor
from repro.core.level2 import Level2Executor
from repro.core.level3 import Level3Executor
from repro.core.lloyd import lloyd
from repro.core._common import squared_distances, update_centroids
from repro.data.synthetic import gaussian_blobs, uniform_cloud
from repro.errors import (
    ConfigurationError,
    ConvergenceWarning,
    NumericalFaultError,
)
from repro.machine.machine import Machine, toy_machine
from repro.runtime.chaos import ChaosInjector, ChaosPlan, ChaosSpec
from repro.runtime.engine import SerialEngine
from repro.runtime.faults import FaultPlan, FaultSpec

from .test_kernels import _adversarial_case


@pytest.fixture(scope="module")
def machine():
    return toy_machine(n_nodes=2, cgs_per_node=2, mesh=4,
                       ldm_bytes=16 * 1024)


@pytest.fixture(scope="module")
def workload():
    X, _ = gaussian_blobs(n=1200, k=8, d=10, seed=5)
    C0 = np.array(X[:8], copy=True)
    return X, C0


#: ``bounds.ball_limit`` overrides: every ball on the pair path, or none.
BALL_LIMITS: Dict[str, Callable[[int], int]] = {
    "every": lambda k: k,
    "none": lambda k: 0,
}


class _CountingPruned(PrunedKernel):
    """The pruned kernel, counting the rows and pairs each path runs."""

    pairs = pair_rows = wide_rows = 0

    def _ball_block(self, block, rows, C, labels, d2, ub, eta, width,
                    near, near_lb):
        # The label's own distance is carried: width - 1 pairs a row.
        self.pair_rows += rows.size
        self.pairs += int(width.sum()) - rows.size
        return super()._ball_block(block, rows, C, labels, d2, ub, eta,
                                   width, near, near_lb)

    def _label_block(self, block, C, ctx):
        self.wide_rows += block.shape[0]
        return super()._label_block(block, C, ctx)


def _assert_same_result(a, b):
    np.testing.assert_array_equal(a.centroids, b.centroids)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia
    assert a.n_iter == b.n_iter
    assert a.converged == b.converged
    assert [s.inertia for s in a.history] == [s.inertia for s in b.history]
    assert [s.centroid_shift for s in a.history] \
        == [s.centroid_shift for s in b.history]


def _assert_same_final(a, b):
    """Final-state equality only: resumed runs truncate ``history``."""
    np.testing.assert_array_equal(a.centroids, b.centroids)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia
    assert a.n_iter == b.n_iter
    assert a.converged == b.converged


# ---------------------------------------------------------------------------
# Kernel primitives
# ---------------------------------------------------------------------------

class TestKernelPrimitives:
    def test_winner_sq_block_is_row_independent(self) -> None:
        # Gemm's winner distance for a subset of rows must give bitwise
        # the same floats as evaluating it inside the full block.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(257, 13))
        C = rng.normal(size=(9, 13))
        kernel = GemmKernel()
        ctx = kernel._prepare(C, X.shape[0])
        local = rng.integers(0, 9, size=257)
        full = kernel._winner_sq_block(X, C, local, ctx)
        subset = rng.choice(257, size=61, replace=False)
        part = kernel._winner_sq_block(X[subset], C, local[subset], ctx)
        np.testing.assert_array_equal(full[subset], part)

    def test_establish_matches_naive_sweep(
            self, workload: Tuple[np.ndarray, np.ndarray]) -> None:
        X, C0 = workload
        naive, pruned = NaiveKernel(), PrunedKernel()
        n_labels, n_d2, n_sums, n_counts = naive.assign_accumulate(X, C0)
        p_labels, p_d2, p_sums, p_counts, lb, n_dist = pruned.establish(X, C0)
        np.testing.assert_array_equal(n_labels, p_labels)
        np.testing.assert_array_equal(n_d2, p_d2)
        np.testing.assert_array_equal(n_sums, p_sums)
        np.testing.assert_array_equal(n_counts, p_counts)
        assert n_dist == X.shape[0] * C0.shape[0]
        assert np.all(lb >= 0.0)

    def test_pruned_iterations_match_naive_and_prune(
            self, workload: Tuple[np.ndarray, np.ndarray]) -> None:
        # Walk one Lloyd trajectory with both kernels in lock-step; every
        # iteration must agree bitwise, and the evaluation count must fall
        # below the dense n*k once the centroids settle.
        X, C = workload
        n, k = X.shape[0], C.shape[0]
        naive, pruned = NaiveKernel(), PrunedKernel()
        labels, d2, sums, counts, lb, n_dist = pruned.establish(X, C)
        evals = [n_dist]
        anchor = np.array(C, copy=True)
        C = update_centroids(sums, counts, C)
        for _ in range(12):
            n_labels, n_d2, n_sums, n_counts = naive.assign_accumulate(X, C)
            labels, d2, sums, counts, lb, n_dist = \
                pruned.assign_accumulate_pruned(
                    X, C, labels, d2, lb, *certified_bounds(anchor, C))
            np.testing.assert_array_equal(n_labels, labels)
            np.testing.assert_array_equal(n_d2, d2)
            np.testing.assert_array_equal(n_sums, sums)
            np.testing.assert_array_equal(n_counts, counts)
            evals.append(n_dist)
            anchor = np.array(C, copy=True)
            C = update_centroids(sums, counts, C)
        assert evals[0] == n * k
        assert evals[-1] < n * k  # bounds actually pruned work

    def test_single_centroid_edge(self) -> None:
        X = np.arange(40, dtype=np.float64).reshape(20, 2)
        C = np.array([[3.0, 4.0]])
        pruned = PrunedKernel()
        labels, d2, sums, counts, lb, n_dist = pruned.establish(X, C)
        assert np.all(labels == 0)
        assert np.all(np.isinf(lb))  # no runner-up exists
        out = pruned.assign_accumulate_pruned(X, C, labels, d2, lb,
                                              *certified_bounds(C, C))
        np.testing.assert_array_equal(out[0], labels)
        np.testing.assert_array_equal(out[1], d2)
        assert np.all(np.isinf(out[4]))

    def test_underflowing_move_refreshes_winner_distance(self) -> None:
        # A one-ulp move at 1e-150 squares to 0, so a drift measured by
        # its square reads "unmoved" and keeps stale winner distances.
        X = np.random.default_rng(0).normal(size=(50, 3)) * 1e-150
        C = np.array(X[:4], copy=True)
        pruned = PrunedKernel()
        labels, d2, _, _, lb, _ = pruned.establish(X, C)
        anchor = np.array(C, copy=True)
        C[0] = np.nextafter(C[0], np.inf)
        table = certified_bounds(anchor, C)
        drift = table[0]
        assert drift[0] > 0.0 and np.all(drift[1:] == 0.0)
        out = pruned.assign_accumulate_pruned(X, C, labels, d2, lb, *table)
        ref_labels, ref_d2 = NaiveKernel().assign_with_distances(X, C)
        np.testing.assert_array_equal(out[0], ref_labels)
        np.testing.assert_array_equal(out[1].view(np.uint64),
                                      ref_d2.view(np.uint64))

    @given(case=_adversarial_case(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_bounds_hold_in_exact_arithmetic(
            self, case: Tuple[np.ndarray, np.ndarray], seed: int) -> None:
        # Every certified bound, checked against rational arithmetic:
        # lb below each non-label distance (established, carried across
        # one move, and after a sweep that put every row on the ball
        # path), each neighbour-table entry below its separation, 2 s
        # below each separation, and drift above each movement.
        X, C = case
        X, C = X[:12], C[:6]
        pruned = PrunedKernel()
        labels, d2, _, _, lb, _ = pruned.establish(X, C)
        moved = C + np.random.default_rng(seed).normal(
            scale=1e-12, size=C.shape) * np.abs(C)
        drift, s, near, near_lb = certified_bounds(C, moved)
        carried = pruned.assign_accumulate_pruned(X, moved, labels, d2, lb,
                                                  drift, s, near, near_lb)
        # Zero bounds make every row a candidate, and a ball limit of k
        # puts every candidate on the pair path.
        with mock.patch.object(bounds, "ball_limit", BALL_LIMITS["every"]):
            _, _, all_near, all_lb = certified_bounds(C, moved)
        balled = pruned.assign_accumulate_pruned(
            X, moved, labels, d2, np.zeros_like(lb), drift,
            np.zeros_like(s), all_near, all_lb)
        np.testing.assert_array_equal(balled[0],
                                      NaiveKernel().assign(X, moved))

        def exact_sq(a: np.ndarray, b: np.ndarray) -> Fraction:
            return sum(((Fraction(p) - Fraction(q)) ** 2
                        for p, q in zip(a, b)), Fraction(0))

        def below(bound: float, sq: Fraction) -> bool:
            return bound <= 0.0 or Fraction(bound) ** 2 <= sq

        k = C.shape[0]
        for i, x in enumerate(X):
            for j in range(k):
                if j != labels[i]:
                    assert below(lb[i], exact_sq(x, C[j]))
                if j != carried[0][i]:
                    assert below(carried[4][i], exact_sq(x, moved[j]))
                if j != balled[0][i]:
                    assert below(balled[4][i], exact_sq(x, moved[j]))
        for idx, sep in ((near, near_lb), (all_near, all_lb)):
            assert np.all(sep[:, 1:] >= sep[:, :-1])
            for i in range(k):
                assert idx[i, 0] == i and sep[i, 0] == 0.0
                for j, bound in zip(idx[i], sep[i]):
                    if j == k:  # padding past the k centroids
                        assert bound == np.inf
                    else:
                        assert below(bound, exact_sq(moved[i], moved[j]))
        for j in range(k):
            assert Fraction(drift[j]) ** 2 >= exact_sq(moved[j], C[j])
            assert (drift[j] > 0.0) == bool(np.any(moved[j] != C[j]))
            for i in range(k):
                if i != j:
                    assert (2 * Fraction(s[j])) ** 2 \
                        <= exact_sq(moved[i], moved[j])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scale", [1e-160, 1e-3, 1.0, 1e150])
    def test_separation_from_the_table_is_the_row_minimum(
            self, scale: float, seed: int) -> None:
        # s comes from the table's rank-1 column; it must be bitwise the
        # bound of each row's smallest partial form, formed once, as the
        # separation was before the table existed.
        rng = np.random.default_rng(seed)
        k, d = 3 + 9 * seed, 1 + 5 * seed
        C = rng.normal(size=(k, d)) * scale
        C[k - 1] = C[0]  # a duplicate separates by exactly 0
        _, s, _, _ = certified_bounds(C, C)
        rel, tiny = screen_margin(d, C.dtype)
        c_sq = np.einsum("kd,kd->k", C, C)
        g = C @ C.T
        g *= -2.0
        g += c_sq[None, :]
        np.fill_diagonal(g, np.inf)
        m = np.sqrt(c_sq) + np.sqrt(c_sq.max())
        m *= m
        ref = np.nextafter(
            0.5 * sqrt_down(g.min(axis=1) + c_sq - (rel * m + tiny)), 0.0)
        np.testing.assert_array_equal(s.view(np.uint64), ref.view(np.uint64))
        assert s[0] == 0.0 and s[k - 1] == 0.0

    def test_sweep_takes_both_paths_bit_identically(self) -> None:
        # Two separated blobs with a few centroids each give narrow balls;
        # a pile of near-duplicate centroids inside the first blob gives
        # balls wider than the limit.  The sweep must run both paths,
        # equal naive bitwise, and count exactly the pairs, the refreshes
        # and the k-wide screens it ran.
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(size=(400, 8)),
                       rng.normal(size=(400, 8)) + 50.0])
        pile = X[0] + 1e-3 * rng.normal(size=(56, 8))
        C = np.vstack([pile, X[400:408]])
        k = C.shape[0]
        assert bounds.ball_limit(k) == 2
        pruned = _CountingPruned()
        labels, d2, sums, counts, lb, _ = pruned.establish(X, C)
        for _ in range(3):
            anchor, C = C, update_centroids(sums, counts, C)
            drift, s, near, near_lb = certified_bounds(anchor, C)
            stale = int(np.count_nonzero(drift[labels] > 0.0))
            pruned.pairs = pruned.pair_rows = pruned.wide_rows = 0
            labels, d2, sums, counts, lb, n_dist = \
                pruned.assign_accumulate_pruned(X, C, labels, d2, lb, drift,
                                                s, near, near_lb)
            ref = NaiveKernel().assign_accumulate(X, C)
            for got, want in zip((labels, d2, sums, counts), ref):
                np.testing.assert_array_equal(got, want)
            assert pruned.pair_rows > 0 and pruned.wide_rows > 0
            assert n_dist == stale + pruned.pairs + pruned.wide_rows * k

    @pytest.mark.parametrize("block_bytes", [None, 1])
    @pytest.mark.parametrize("d", [1, 68])
    @pytest.mark.parametrize("k", [1, 2, 7, 257])
    def test_separation_blocks_match_one_shot(
            self, monkeypatch: pytest.MonkeyPatch, k: int, d: int,
            block_bytes: Optional[int]) -> None:
        # Row blocks of the direct form must equal the one-shot (k, k, d)
        # evaluation bit for bit; block_bytes=1 forces one row per block.
        if block_bytes is not None:
            monkeypatch.setattr(bounds, "SEPARATION_BLOCK_BYTES", block_bytes)
        C = np.random.default_rng(k * 100 + d).normal(size=(k, d))
        cc, s = centroid_separation(C)
        if k <= 1:
            ref_cc, ref_s = np.full((k, k), np.inf), np.zeros(1)
        else:
            ref_cc = np.sqrt(np.maximum(squared_distances(C, C), 0.0))
            np.fill_diagonal(ref_cc, np.inf)
            ref_s = 0.5 * ref_cc.min(axis=1)
        np.testing.assert_array_equal(cc.view(np.uint64),
                                      ref_cc.view(np.uint64))
        np.testing.assert_array_equal(s.view(np.uint64),
                                      ref_s.view(np.uint64))


# ---------------------------------------------------------------------------
# lloyd (level 0) parity
# ---------------------------------------------------------------------------

class TestLloydParity:
    @pytest.mark.parametrize("engine,workers", [
        ("serial", None), ("thread", 4), ("process", 2),
    ])
    def test_bit_identical_to_naive(
            self, workload: Tuple[np.ndarray, np.ndarray], engine: str,
            workers: Optional[int]) -> None:
        X, C0 = workload
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            ref = lloyd(X, C0, max_iter=25, kernel="naive")
            out = lloyd(X, C0, max_iter=25, kernel="pruned",
                        engine=engine, workers=workers)
        _assert_same_result(ref, out)

    def test_env_default_selects_pruned(self, workload, monkeypatch):
        X, C0 = workload
        monkeypatch.setenv("REPRO_KERNEL", "pruned")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            ref = lloyd(X, C0, max_iter=10, kernel="naive")
            out = lloyd(X, C0, max_iter=10)  # kernel=None -> env
        _assert_same_result(ref, out)


# ---------------------------------------------------------------------------
# Executor (levels 1-3) parity across engines and reduce topologies
# ---------------------------------------------------------------------------

def _fit(machine, level, kernel, engine=None, workers=None, reduce=None,
         max_iter=25, n=1200, k=8, d=10, **kwargs):
    X, _ = gaussian_blobs(n=n, k=k, d=d, seed=5)
    model = HierarchicalKMeans(
        k, machine=machine, level=level, seed=3, max_iter=max_iter,
        kernel=kernel, engine=engine, workers=workers, reduce=reduce,
        **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return model.fit(X)


class TestExecutorParity:
    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("engine,workers,reduce", [
        ("serial", None, "serial"),
        ("thread", 4, "tree"),
        ("process", 2, "serial"),
    ])
    def test_bit_identical_to_naive(self, machine: Machine, level: int,
                                    engine: str, workers: Optional[int],
                                    reduce: str) -> None:
        # The reference runs under the *same* engine and reduce topology:
        # the reduce schedule legitimately changes summation order, and
        # the pruned kernel must be a no-op relative to naive within any
        # one configuration.
        ref = _fit(machine, level, "naive", engine=engine, workers=workers,
                   reduce=reduce)
        out = _fit(machine, level, "pruned", engine=engine, workers=workers,
                   reduce=reduce)
        _assert_same_result(ref, out)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_ledger_charges_actual_evaluations(self, machine, level):
        # Pruned iterations cost fewer modelled compute seconds once the
        # bounds bite; everything non-compute is charged identically.
        ref = _fit(machine, level, "naive")
        out = _fit(machine, level, "pruned")
        ref_cats = ref.ledger.total_by_category()
        out_cats = out.ledger.total_by_category()
        assert out_cats["compute"] < ref_cats["compute"]
        for category in ref_cats:
            if category != "compute":
                assert out_cats[category] == ref_cats[category]

    def test_evals_per_iteration_shrink(self, machine):
        X, _ = gaussian_blobs(n=1200, k=8, d=10, seed=5)
        from repro.core.level1 import Level1Executor
        executor = Level1Executor(machine, kernel="pruned")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            executor.run(X, np.array(X[:8], copy=True), max_iter=25, tol=0.0)
        evals = executor.pruned_evals_per_iteration
        assert evals[0] == 1200 * 8  # establishment sweep is dense
        assert min(evals) < 1200 * 8
        assert evals[-1] <= evals[0]

    def test_level3_single_centroid(self, machine: Machine) -> None:
        X = uniform_cloud(64, 4, seed=2)
        executor = Level3Executor(machine, kernel="pruned")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = executor.run(X, X[:1].copy(), max_iter=10)
        np.testing.assert_allclose(result.centroids[0], X.mean(axis=0))

    def test_level3_streaming_equals_lloyd(self) -> None:
        # A 4 KiB LDM cannot hold the centroid slices: the plan streams
        # them, and the carried bounds must still give Lloyd's labels.
        X, _ = gaussian_blobs(n=400, k=40, d=64, seed=8)
        C0 = np.array(X[:40], copy=True)
        small = toy_machine(n_nodes=2, cgs_per_node=2, mesh=2,
                            ldm_bytes=4096)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            ref = lloyd(X, C0, max_iter=20)
            result = Level3Executor(small, kernel="pruned",
                                    streaming=True).run(X, C0, max_iter=20)
        np.testing.assert_array_equal(result.assignments, ref.assignments)

    def test_strict_cpe_with_explicit_pruned_raises(self, machine):
        with pytest.raises(ConfigurationError, match="strict_cpe"):
            _fit(machine, 2, "pruned", strict_cpe=True, max_iter=3)

    def test_strict_cpe_pins_env_kernel_to_naive(self, machine, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "pruned")
        ref = _fit(machine, 2, "naive", strict_cpe=True, max_iter=5)
        out = _fit(machine, 2, None, strict_cpe=True, max_iter=5)
        _assert_same_result(ref, out)


# ---------------------------------------------------------------------------
# Adversarial ties
# ---------------------------------------------------------------------------

class TestAdversarialTies:
    def test_equidistant_points_keep_argmin_tie_rule(self):
        # Integer coordinates: every distance is exact in float64, so a
        # tie is a true bitwise tie and the lowest-index rule must win in
        # both kernels.  Points at x=1 are exactly equidistant from the
        # centroids at x=0 and x=2; the skewed tail keeps the run moving
        # for several iterations.
        tied = np.array([[1.0, float(y)] for y in range(24)])
        anchors = np.array([[0.0, float(y)] for y in range(24)])
        far = np.array([[2.0, float(y)] for y in range(0, 48, 2)])
        X = np.vstack([tied, anchors, far])
        C0 = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 40.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            ref = lloyd(X, C0, max_iter=20, kernel="naive")
            out = lloyd(X, C0, max_iter=20, kernel="pruned")
        _assert_same_result(ref, out)

    def test_duplicate_centroids_tie(self):
        # Duplicated centroids are the hardest tie: distance differences
        # are exactly 0.0 for every sample, and drift of the loser is 0.
        rng = np.random.default_rng(2)
        X = rng.integers(-8, 8, size=(300, 4)).astype(np.float64)
        C0 = np.array(X[:5], copy=True)
        C0[3] = C0[0]  # exact duplicate
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            ref = lloyd(X, C0, max_iter=15, kernel="naive")
            out = lloyd(X, C0, max_iter=15, kernel="pruned")
        _assert_same_result(ref, out)

    def test_integer_lattice_executor_parity(self, machine):
        rng = np.random.default_rng(9)
        X = rng.integers(0, 4, size=(600, 3)).astype(np.float64)
        model_kwargs = dict(machine=machine, level=1, seed=1, max_iter=20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            ref = HierarchicalKMeans(6, kernel="naive", **model_kwargs).fit(X)
            out = HierarchicalKMeans(6, kernel="pruned",
                                     **model_kwargs).fit(X)
        _assert_same_result(ref, out)


#: A decimal near tie: row 2 is equidistant from C0[2] and C0[3] in real
#: arithmetic, which binary floating point cannot represent exactly.
NEAR_TIE_X = np.array([[0, .001], [.001, .002], [.003, .002], [.003, .001]])
NEAR_TIE_C0 = np.array([[.001, .0015], [0, .001], [.003, .0025],
                        [.003, .0015]])
NEAR_TIE_LABELS = [1, 0, 2, 3]


class TestDecimalNearTie:
    def test_naive_labels_do_not_depend_on_the_block(self) -> None:
        # One 4-row block, then one row per block (chunk_rows is
        # chunk_elements // (k * d) for the naive kernel).
        for chunk_elements in (1 << 20, 8):
            result = lloyd(NEAR_TIE_X, NEAR_TIE_C0, kernel="naive",
                           chunk_elements=chunk_elements)
            assert result.assignments.tolist() == NEAR_TIE_LABELS

    def test_pruned_equals_naive(self) -> None:
        ref = lloyd(NEAR_TIE_X, NEAR_TIE_C0, kernel="naive")
        out = lloyd(NEAR_TIE_X, NEAR_TIE_C0, kernel="pruned")
        _assert_same_result(ref, out)
        assert out.assignments.tolist() == NEAR_TIE_LABELS
        assert out.n_iter == 2

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: gemm's labels "
                       "depend on the block shape on decimal near ties")
    def test_gemm_block_equals_row_by_row(self) -> None:
        kernel = GemmKernel()
        rows = [int(kernel.assign(NEAR_TIE_X[i:i + 1], NEAR_TIE_C0)[0])
                for i in range(len(NEAR_TIE_X))]
        assert kernel.assign(NEAR_TIE_X, NEAR_TIE_C0).tolist() == rows


# ---------------------------------------------------------------------------
# Property-based bit-invariance
# ---------------------------------------------------------------------------

@st.composite
def _decimal_lattice(draw: Any) -> Tuple[np.ndarray, np.ndarray]:
    """Samples at ``m 10^-e`` and centroids at ``m 10^-e / 2``: ties in
    real arithmetic that binary floating point cannot represent."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 40))
    k = draw(st.sampled_from([1, 2, 3, 4, 7]))
    d = draw(st.sampled_from([1, 2, 3]))
    X = rng.integers(0, 5, size=(n, d)) / scale
    C = rng.integers(0, 9, size=(k, d)) / (2.0 * scale)
    return X, C


@st.composite
def _tiny_cloud(draw: Any) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian clouds near 1e-160, where centroid moves square to
    subnormals or to zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    k = draw(st.integers(1, min(n, 8)))
    d = draw(st.sampled_from([1, 3, 8]))
    X = rng.normal(size=(n, d)) * 10.0 ** draw(st.floats(-170.0, -150.0))
    return X, np.array(X[:k], copy=True)


_CASES = st.one_of(_adversarial_case(), _decimal_lattice(), _tiny_cloud())


def _assert_same_outcome(run) -> None:
    """``run(kernel)`` gives the same result, or the identical error,
    under the naive and the pruned kernel.

    Distances past the float range fail the driver's inertia guard at
    every level; the pruned run must then fail the same way.
    """
    outcomes = []
    for kernel in ("naive", "pruned"):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                outcomes.append(run(kernel))
        except NumericalFaultError as exc:
            outcomes.append(str(exc))
    ref, out = outcomes
    if isinstance(ref, str):
        assert out == ref
    else:
        _assert_same_result(ref, out)


def _lloyd_outcome(case: Tuple[np.ndarray, np.ndarray],
                   chunk: Optional[int]) -> None:
    X, C0 = case
    kwargs = {} if chunk is None else {
        "chunk_elements": chunk * C0.shape[0] * C0.shape[1]}
    _assert_same_outcome(lambda kernel: lloyd(
        X, C0, max_iter=8, kernel=kernel, **kwargs))


def _level_outcome(machine: Machine, case: Tuple[np.ndarray, np.ndarray],
                   level: int) -> None:
    # Executors take at most n centroids.
    X, C0 = case
    C0 = C0[:X.shape[0]]
    executor = {1: Level1Executor, 2: Level2Executor,
                3: Level3Executor}[level]
    _assert_same_outcome(lambda kernel: executor(
        machine, kernel=kernel, engine="thread", workers=2,
        model_costs=False).run(X, C0, max_iter=6))


class TestHypothesisInvariance:
    @given(case=_CASES, chunk=st.sampled_from([1, 64, None]))
    @settings(max_examples=200, deadline=None)
    def test_lloyd_pruned_equals_naive(
            self, case: Tuple[np.ndarray, np.ndarray],
            chunk: Optional[int]) -> None:
        _lloyd_outcome(case, chunk)

    @given(case=_CASES, level=st.sampled_from([1, 2, 3]))
    @settings(max_examples=15, deadline=None)
    def test_levels_pruned_equal_naive(
            self, machine: Machine, case: Tuple[np.ndarray, np.ndarray],
            level: int) -> None:
        _level_outcome(machine, case, level)

    # At these k, the default ball limit rarely puts a row on the pair
    # path; forcing it covers each path alone.

    @pytest.mark.parametrize("limit", sorted(BALL_LIMITS))
    @given(case=_CASES, chunk=st.sampled_from([1, 64, None]))
    @settings(max_examples=200, deadline=None)
    def test_lloyd_pruned_equals_naive_at_forced_ball_limit(
            self, limit: str, case: Tuple[np.ndarray, np.ndarray],
            chunk: Optional[int]) -> None:
        with mock.patch.object(bounds, "ball_limit", BALL_LIMITS[limit]):
            _lloyd_outcome(case, chunk)

    @pytest.mark.parametrize("limit", sorted(BALL_LIMITS))
    @given(case=_CASES, level=st.sampled_from([1, 2, 3]))
    @settings(max_examples=15, deadline=None)
    def test_levels_pruned_equal_naive_at_forced_ball_limit(
            self, limit: str, machine: Machine,
            case: Tuple[np.ndarray, np.ndarray], level: int) -> None:
        with mock.patch.object(bounds, "ball_limit", BALL_LIMITS[limit]):
            _level_outcome(machine, case, level)


# ---------------------------------------------------------------------------
# Faults, chaos, and recovery: replays stay identical, bounds invalidate
# ---------------------------------------------------------------------------

class TestFaultAndChaosParity:
    def _fault_fit(self, machine, kernel, **kwargs):
        return _fit(machine, 1, kernel, n=420, k=4, d=6, max_iter=30,
                    **kwargs)

    def test_fault_probe_order_matches_naive(self, machine: Machine) -> None:
        # Probabilistic faults draw from the injector RNG once per probed
        # charge, so identical fault_events prove the pruned path charges
        # the identical dma/regcomm/network sequence.
        plan = FaultPlan([
            FaultSpec("transient_dma", iteration=2),
            FaultSpec("collective_timeout", probability=0.02),
            FaultSpec("degraded_link", iteration=1, bandwidth_factor=0.5,
                      duration=2),
        ], seed=99)
        ref = self._fault_fit(machine, "naive", faults=plan,
                              recovery="retry")
        out = self._fault_fit(machine, "pruned", faults=plan,
                              recovery="retry")
        _assert_same_result(ref, out)
        assert ref.fault_events == out.fault_events
        assert len(out.fault_events) >= 2

    def test_replan_invalidates_bounds_bit_identically(self, machine):
        # iteration=2: late enough that a checkpoint exists, early enough
        # that the (quickly converging) run actually reaches it.
        plan = FaultPlan([FaultSpec("cg_failure", iteration=2, cg_index=1)],
                         seed=7)
        ref = self._fault_fit(machine, "naive", faults=plan,
                              recovery="replan", checkpoint_every=1)
        out = self._fault_fit(machine, "pruned", faults=plan,
                              recovery="replan", checkpoint_every=1)
        _assert_same_result(ref, out)
        assert ref.fault_events == out.fault_events
        assert any(e.action == "replanned" for e in out.fault_events)

    def test_nan_chaos_rollback_invalidates_bounds(self, machine):
        # A poisoned partial rolls the iteration back to the checkpoint;
        # the carried bounds must be invalidated with it, or the re-walked
        # trajectory would prune against pre-rollback state.
        clean = self._fault_fit(machine, "pruned")
        engine = SerialEngine(chaos=ChaosInjector(
            ChaosPlan([ChaosSpec("nan_result", task_id=2)])))
        survived = self._fault_fit(machine, "pruned", engine=engine,
                                   recovery="replan", checkpoint_every=1)
        assert any(e.kind == "rollback" for e in survived.host_events)
        np.testing.assert_array_equal(clean.centroids, survived.centroids)
        np.testing.assert_array_equal(clean.assignments,
                                      survived.assignments)
        assert clean.inertia == survived.inertia

    def test_task_chaos_absorbed_bit_identically(self, machine,
                                                 monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        ref = self._fault_fit(machine, "naive")
        monkeypatch.setenv(
            "REPRO_CHAOS",
            "task_exception:p=0.05;slow_task:p=0.05,delay=0.001;seed=3")
        out = self._fault_fit(machine, "pruned", engine="thread", workers=4)
        np.testing.assert_array_equal(ref.centroids, out.centroids)
        np.testing.assert_array_equal(ref.assignments, out.assignments)
        assert ref.inertia == out.inertia


# ---------------------------------------------------------------------------
# Checkpoint-resume: restored runs re-establish instead of reusing bounds
# ---------------------------------------------------------------------------

class TestResumeInvalidation:
    def test_lloyd_interrupt_and_resume(self, tmp_path, workload):
        X, C0 = workload
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            full = lloyd(X, C0, max_iter=40, kernel="pruned")
            lloyd(X, C0, max_iter=5, kernel="pruned", checkpoint_every=1,
                  checkpoint_dir=str(tmp_path))
            resumed = lloyd(X, C0, max_iter=40, kernel="pruned",
                            checkpoint_every=1, checkpoint_dir=str(tmp_path),
                            resume=True)
        _assert_same_final(full, resumed)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_executor_interrupt_and_resume(self, tmp_path, machine, level):
        naive_full = _fit(machine, level, "naive", n=420, k=4, d=6,
                          max_iter=40)
        full = _fit(machine, level, "pruned", n=420, k=4, d=6, max_iter=40)
        _fit(machine, level, "pruned", n=420, k=4, d=6, max_iter=4,
             checkpoint_every=1, checkpoint_dir=str(tmp_path))
        resumed = _fit(machine, level, "pruned", n=420, k=4, d=6,
                       max_iter=40, checkpoint_every=1,
                       checkpoint_dir=str(tmp_path), resume=True)
        _assert_same_final(full, resumed)
        _assert_same_final(naive_full, resumed)

    def test_fresh_bounds_after_manual_invalidate(self):
        bounds = BlockBounds()
        assert not bounds.valid
        bounds.commit(np.zeros((2, 2)), np.zeros(4, dtype=np.int64),
                      np.zeros(4), np.zeros(4))
        assert bounds.valid
        bounds.invalidate()
        assert not bounds.valid
        assert bounds.labels is None and bounds.anchor is None


def _fit_like_cli(ckpt=None, resume=False):
    """In-process run matching the CLI invocation of the kill test."""
    X, _ = gaussian_blobs(n=420, k=4, d=6, seed=13)
    machine = toy_machine(n_nodes=1, cgs_per_node=2, mesh=4,
                          ldm_bytes=16 * 1024)
    model = HierarchicalKMeans(
        4, machine=machine, level=1, seed=13, max_iter=60,
        kernel="pruned", checkpoint_every=1,
        checkpoint_dir=None if ckpt is None else str(ckpt), resume=resume)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return model.fit(X)


class TestKillAndResume:
    def test_sigkilled_pruned_run_resumes_bit_identical(self, tmp_path):
        """SIGKILL a pruned clustering process mid-run, resume, compare.

        The kill can land anywhere — including between a checkpoint write
        and the bound-state commit — so the resumed process proves that
        invalidation-on-resume reconstructs everything the crash dropped.
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
             "--kernel", "pruned",
             "--checkpoint-every", "1", "--checkpoint-dir", str(ckpt)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
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
        _assert_same_final(full, resumed)


# ---------------------------------------------------------------------------
# Facade / resolution seams
# ---------------------------------------------------------------------------

class TestResolution:
    def test_facade_accepts_instance(self, machine):
        ref = _fit(machine, 1, "pruned", max_iter=5)
        out = _fit(machine, 1, PrunedKernel(), max_iter=5)
        _assert_same_result(ref, out)

    def test_resolver_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="kernel"):
            resolve_kernel("hamerly")
