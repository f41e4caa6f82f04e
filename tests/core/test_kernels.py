"""Kernel-backend and ledger-observer seams.

Three invariants hold across the whole executor stack:

* the ``naive`` backend's GEMM screen is invisible: its labels and winner
  distances are bit-identical to the full direct form, on adversarial
  data too (lattice ties, duplicate centroids, subnormal and overflowing
  scales);
* the ``gemm`` backend produces the same assignments (and inertias within
  1e-9) as the ``naive`` reference on every level, for arbitrary (n, k, d);
* ``model_costs=False`` (NullLedger) changes nothing about the numerics —
  identical centroids and assignments, just no time ledger.
"""

from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._common import accumulate, inertia, squared_distances
from repro.core.kernels import (
    KERNELS,
    GemmKernel,
    KernelBackend,
    NaiveKernel,
    PrunedKernel,
    resolve_kernel,
)
from repro.core.kmeans import HierarchicalKMeans
from repro.core.lloyd import lloyd
from repro.data.synthetic import gaussian_blobs
from repro.errors import ConfigurationError
from repro.machine.machine import Machine, toy_machine
from repro.runtime.ledger import LedgerProtocol, NullLedger, TimeLedger


@pytest.fixture(scope="module")
def machine():
    return toy_machine(n_nodes=2, cgs_per_node=2, mesh=4,
                       ldm_bytes=16 * 1024)


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(3)
    return rng.normal(size=(2000, 16))


# ---------------------------------------------------------------------------
# Raw backend parity
# ---------------------------------------------------------------------------

class TestBackendParity:
    @given(n=st.integers(2, 400), k=st.integers(1, 32),
           d=st.integers(1, 48), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_assign_parity(self, n, k, d, seed):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        X = rng.normal(size=(n, d))
        C = rng.normal(size=(k, d))
        np.testing.assert_array_equal(
            NaiveKernel().assign(X, C), GemmKernel().assign(X, C))

    @given(n=st.integers(2, 200), k=st.integers(1, 16),
           d=st.integers(1, 32), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_pairwise_parity(self, n, k, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        C = rng.normal(size=(min(k, n), d))
        np.testing.assert_allclose(
            GemmKernel().pairwise_sq(X, C), NaiveKernel().pairwise_sq(X, C),
            rtol=0, atol=1e-9)

    def test_assign_with_distances_parity(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(500, 24))
        C = rng.normal(size=(12, 24))
        ia, da = NaiveKernel().assign_with_distances(X, C)
        ib, db = GemmKernel().assign_with_distances(X, C)
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_allclose(da, db, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_assign_accumulate_matches_unfused(self, kernel):
        from repro.core._common import accumulate
        rng = np.random.default_rng(19)
        X = rng.normal(size=(700, 20))
        C = rng.normal(size=(11, 20))
        backend = resolve_kernel(kernel)
        for chunk in (256, 4_000_000):
            idx, best, sums, counts = backend.assign_accumulate(
                X, C, chunk_elements=chunk)
            ref_idx, ref_best = backend.assign_with_distances(
                X, C, chunk_elements=chunk)
            ref_sums, ref_counts = accumulate(X, ref_idx, C.shape[0])
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(best, ref_best)
            np.testing.assert_array_equal(sums, ref_sums)
            np.testing.assert_array_equal(counts, ref_counts)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_sweep_winner_matches_assign_on_ties(self, kernel):
        # assign() and the sweeps behind assign_with_distances() /
        # assign_accumulate() must break near-exact ties identically: the
        # winner has to come from the same distance form in both paths
        # (the gemm partial form drops |x|^2; adding it back and clamping
        # before the argmin can flip ties).
        backend = resolve_kernel(kernel)
        rng = np.random.default_rng(23)
        for _ in range(20):
            base = rng.normal(size=(6, 4))
            # Duplicated / barely-perturbed centroids make exact and
            # near-exact ties; the 1e3 offset makes |x|^2 dwarf the gaps.
            C = np.vstack([base,
                           base + rng.normal(scale=1e-12, size=base.shape)])
            C += 1e3
            X = np.repeat(base, 4, axis=0) + 1e3
            ref = backend.assign(X, C)
            idx, _ = backend.assign_with_distances(X, C)
            np.testing.assert_array_equal(idx, ref)
            np.testing.assert_array_equal(
                backend.assign_accumulate(X, C)[0], ref)

    def test_chunk_rows_policy(self):
        # The naive form materialises a (rows, k, d) temporary, so its rows
        # shrink by a factor of d relative to the (rows, k) GEMM output.
        n, k, d, budget = 10_000, 16, 32, 4096
        assert NaiveKernel().chunk_rows(n, k, d, budget) == budget // (k * d)
        assert GemmKernel().chunk_rows(n, k, d, budget) == budget // k
        # Degenerate budgets still make progress.
        assert NaiveKernel().chunk_rows(n, k, d, 1) == 1

    def test_chunked_equals_unchunked(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 8))
        C = rng.normal(size=(9, 8))
        g = GemmKernel()
        np.testing.assert_array_equal(
            g.assign(X, C, chunk_elements=2 * C.shape[0]), g.assign(X, C))

    def test_resolve_kernel(self):
        assert resolve_kernel("naive").name == "naive"
        assert resolve_kernel("gemm").name == "gemm"
        assert resolve_kernel("pruned").name == "pruned"
        inst = GemmKernel()
        assert resolve_kernel(inst) is inst
        with pytest.raises(ConfigurationError, match="kernel"):
            resolve_kernel("blas3000")
        assert set(KERNELS) == {"naive", "gemm", "pruned"}

    def test_resolve_kernel_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel(None).name == "naive"
        monkeypatch.setenv("REPRO_KERNEL", "pruned")
        assert resolve_kernel(None).name == "pruned"
        # Explicit arguments win over the environment.
        assert resolve_kernel("gemm").name == "gemm"
        monkeypatch.setenv("REPRO_KERNEL", "blas3000")
        with pytest.raises(ConfigurationError, match="kernel"):
            resolve_kernel(None)

    def test_backends_are_kernel_backends(self) -> None:
        assert isinstance(NaiveKernel(), KernelBackend)
        assert isinstance(GemmKernel(), KernelBackend)
        assert isinstance(PrunedKernel(), NaiveKernel)


# ---------------------------------------------------------------------------
# Naive kernel: the certified GEMM screen against the direct form
# ---------------------------------------------------------------------------

def _direct_reference(X, C):
    """The full direct form: argmin of squared_distances and its entries."""
    d2 = squared_distances(np.ascontiguousarray(X), C)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(X.shape[0]), labels]


@st.composite
def _adversarial_case(draw):
    """(X, C) built to break a wrong certificate: ties, scales, layouts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    k = draw(st.sampled_from([1, 2, 3, 7, 16]))
    d = draw(st.sampled_from([1, 2, 3, 8, 29]))
    if draw(st.booleans()):
        # Integer lattice: exact ties between distinct centroids abound.
        X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        C = rng.integers(-2, 3, size=(k, d)).astype(np.float64)
    else:
        X = rng.normal(size=(n, d))
        C = rng.normal(size=(k, d))
    if draw(st.booleans()):
        # Duplicate centroids (rows drawn with replacement), and a
        # centroid sitting on a sample.
        C = C[rng.integers(0, k, size=k)]
        C[0] = X[0]
    if draw(st.booleans()):
        # Near ties below the partial form's resolution: nudged centroids
        # far from the origin, where |c|^2 - 2 x.c cancels catastrophically.
        C = C + rng.normal(scale=1e-9, size=C.shape) + 1e3
        X = X + 1e3
    # One global scale from subnormal (1e-310) to overflowing partials
    # (|x|.|c| ~ 1e320 > max float), then optional per-row magnitudes.
    scale = 10.0 ** draw(st.one_of(
        st.sampled_from([-310.0, -300.0, 150.0, 155.0]),
        st.floats(-165.0, -150.0),  # products of ~1e-320 are subnormal
        st.floats(-310.0, 160.0)))
    X, C = X * scale, C * scale
    if draw(st.booleans()):
        X *= 10.0 ** rng.uniform(-30.0, 30.0, size=(n, 1))
    if draw(st.booleans()):
        C *= 10.0 ** rng.uniform(-160.0, 0.0, size=(k, 1))
    if draw(st.booleans()):
        # Non-contiguous input: every other row of a wider buffer.
        wide = np.zeros((2 * n, d))
        wide[::2] = X
        X = wide[::2]
    return X, C


class TestNaiveCertificate:
    """Each test here fails for a certificate that is wrong or idle."""

    @given(case=_adversarial_case(), chunk=st.sampled_from([1, 64, None]))
    @settings(max_examples=200, deadline=None)
    def test_argmin_paths_match_direct_form(
            self, case: Tuple[np.ndarray, np.ndarray],
            chunk: Optional[int]) -> None:
        X, C = case
        kernel = NaiveKernel()
        args = () if chunk is None else (chunk * C.shape[0] * C.shape[1],)
        ref_labels, ref_best = _direct_reference(X, C)
        ref_sums, ref_counts = accumulate(X, ref_labels, C.shape[0])
        np.testing.assert_array_equal(kernel.assign(X, C, *args), ref_labels)
        labels, best = kernel.assign_with_distances(X, C, *args)
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(best.view(np.uint64),
                                      ref_best.view(np.uint64))
        labels, best, sums, counts = kernel.assign_accumulate(X, C, *args)
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(best.view(np.uint64),
                                      ref_best.view(np.uint64))
        np.testing.assert_array_equal(sums, ref_sums)
        np.testing.assert_array_equal(counts, ref_counts)

    @pytest.mark.parametrize("d", [*range(1, 81), 127, 128, 129, 196,
                                   255, 256, 257, 1000])
    def test_winner_einsum_matches_direct_entry(self, d: int) -> None:
        # The certified path reports einsum("bd,bd->b") over x - c_j*; it
        # must equal the (b, k, d) direct-form entry bit for bit, whatever
        # the block's shape or alignment.
        rng = np.random.default_rng(d)
        for k in (1, 3, 17):
            C = rng.normal(size=(k, d))
            for b in (1, 5, 64):
                flat = rng.normal(size=b * d + 1)
                for block in (flat[:-1].reshape(b, d),    # aligned
                              flat[1:].reshape(b, d)):    # 8-byte offset
                    full = squared_distances(block, C)
                    for j in range(k):
                        diff = block - C[np.full(b, j)]
                        np.testing.assert_array_equal(
                            np.einsum("bd,bd->b", diff, diff).view(np.uint64),
                            full[:, j].view(np.uint64))

    def test_fast_path_certifies_blobs(self) -> None:
        # Well-separated data must take the fast path; a certificate that
        # never certifies would pass every parity test, only slower.
        X, _ = gaussian_blobs(n=20_000, k=64, d=32, seed=5)
        C = X[:64].copy()
        assert NaiveKernel().certified(X, C).mean() >= 0.99

    def test_subnormal_products_match_direct_form(self) -> None:
        # Products near 1e-320 are subnormal, so their absolute rounding
        # error dwarfs any relative bound; only tau's absolute term keeps
        # these rows off the fast path.
        rng = np.random.default_rng(7)
        kernel = NaiveKernel()
        for _ in range(300):
            X = rng.integers(-2, 3, size=(20, 3)).astype(np.float64)
            C = rng.integers(-2, 3, size=(7, 3)).astype(np.float64)
            scale = 10.0 ** rng.uniform(-165.0, -150.0)
            X, C = X * scale, C * scale
            np.testing.assert_array_equal(kernel.assign(X, C),
                                          _direct_reference(X, C)[0])

    def test_ties_are_not_certified(self) -> None:
        # Equidistant centroids: the screen must defer to the direct form,
        # whose tie rule (lowest index) then decides.
        X = np.zeros((4, 3))
        C = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        kernel = NaiveKernel()
        assert not kernel.certified(X, C).any()
        np.testing.assert_array_equal(kernel.assign(X, C), [0, 0, 0, 0])

    def test_overflowing_rows_are_not_certified(self) -> None:
        # |x|.|c| ~ 1e320 overflows the partial form to inf/NaN; with
        # centroids of mixed magnitude a row can keep one finite partial
        # while every direct-form distance is inf (so index 0 wins).
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 4)) * 1e160
        C = rng.normal(size=(5, 4)) * 1e160
        C[1:3] *= 1e-160
        kernel = NaiveKernel()
        assert not kernel.certified(X, C).any()
        labels, best = _direct_reference(X, C)
        np.testing.assert_array_equal(kernel.assign(X, C), labels)
        idx, d2 = kernel.assign_with_distances(X, C)
        np.testing.assert_array_equal(idx, labels)
        np.testing.assert_array_equal(d2, best)


# ---------------------------------------------------------------------------
# Whole-stack parity: every level, both backends
# ---------------------------------------------------------------------------

LEVEL_KWARGS = [
    pytest.param(1, {}, id="level1"),
    pytest.param(2, {}, id="level2"),
    pytest.param(3, {}, id="level3"),
]


class TestExecutorKernelParity:
    @pytest.mark.parametrize("level,extra", LEVEL_KWARGS)
    def test_gemm_matches_naive(self, machine, blobs, level, extra):
        runs = {}
        for kernel in KERNELS:
            model = HierarchicalKMeans(8, machine=machine, level=level,
                                       init="first", max_iter=25,
                                       kernel=kernel, **extra)
            runs[kernel] = model.fit(blobs)
        np.testing.assert_array_equal(runs["naive"].assignments,
                                      runs["gemm"].assignments)
        assert abs(runs["naive"].inertia
                   - runs["gemm"].inertia) <= 1e-9
        np.testing.assert_allclose(runs["naive"].centroids,
                                   runs["gemm"].centroids,
                                   rtol=0, atol=1e-9)

    @given(n=st.integers(50, 600), k=st.integers(2, 12),
           d=st.integers(2, 24), seed=st.integers(0, 999))
    @settings(max_examples=15, deadline=None)
    def test_lloyd_gemm_matches_naive(self, n, k, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        C0 = X[:k].copy()
        a = lloyd(X, C0, max_iter=10)
        b = lloyd(X, C0, max_iter=10, kernel="gemm")
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert abs(a.inertia - b.inertia) <= 1e-9

    def test_gemm_modelled_seconds_equal_naive(self, machine, blobs):
        """The cost model prices the plan, not the host arithmetic — both
        backends must charge identical modelled time."""
        runs = [HierarchicalKMeans(8, machine=machine, level=2,
                                   init="first", max_iter=10,
                                   kernel=kern).fit(blobs)
                for kern in KERNELS]
        assert runs[0].ledger.total() == runs[1].ledger.total()

    def test_strict_cpe_requires_naive(self, machine):
        from repro.core.level2 import Level2Executor
        with pytest.raises(ConfigurationError, match="strict_cpe"):
            Level2Executor(machine, strict_cpe=True, kernel="gemm")

    def test_predict_uses_selected_kernel(self, machine, blobs):
        model = HierarchicalKMeans(8, machine=machine, init="first",
                                   max_iter=10, kernel="gemm")
        model.fit(blobs)
        np.testing.assert_array_equal(
            model.predict(blobs),
            NaiveKernel().assign(blobs, model.result_.centroids))


class TestFinalObjective:
    """``result.inertia`` is O(C) of the final centroids at every level.

    A max_iter stop halts one Update past the last Assign, so the held
    labels are stale against the final C; the executors re-label on the
    host for the objective, exactly like lloyd().
    """

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_max_iter_stop_reports_true_objective(
            self, machine: Machine, blobs: np.ndarray, level: int,
            kernel: str) -> None:
        C0 = blobs[:8].copy()
        model = HierarchicalKMeans(8, machine=machine, level=level,
                                   init=C0, max_iter=3, kernel=kernel)
        with pytest.warns(Warning, match="did not converge"):
            result = model.fit(blobs)
        assert not result.converged
        backend = resolve_kernel(kernel)
        fresh = backend.assign(blobs, result.centroids)
        # reprolint: disable=D104 -- the objective *is* a fresh re-label, bit for bit
        assert result.inertia == inertia(blobs, result.centroids, fresh)
        # result.assignments stays the last-Assign labels.
        assert not np.array_equal(result.assignments, fresh)
        with pytest.warns(Warning, match="did not converge"):
            oracle = lloyd(blobs, C0, max_iter=3, kernel=kernel)
        assert abs(result.inertia - oracle.inertia) <= 1e-12 * oracle.inertia


# ---------------------------------------------------------------------------
# Ledger observer: NullLedger runs are numerically identical
# ---------------------------------------------------------------------------

class TestModelCostsOff:
    @pytest.mark.parametrize("level,extra", LEVEL_KWARGS)
    def test_null_ledger_preserves_numerics(self, machine, blobs, level,
                                            extra):
        ledgered = HierarchicalKMeans(8, machine=machine, level=level,
                                      init="first", max_iter=25,
                                      **extra).fit(blobs)
        pure = HierarchicalKMeans(8, machine=machine, level=level,
                                  init="first", max_iter=25,
                                  model_costs=False, **extra).fit(blobs)
        np.testing.assert_array_equal(ledgered.assignments, pure.assignments)
        np.testing.assert_array_equal(ledgered.centroids, pure.centroids)
        assert ledgered.inertia == pure.inertia
        assert ledgered.n_iter == pure.n_iter
        assert pure.ledger is None
        assert ledgered.ledger is not None and ledgered.ledger.total() > 0.0
        assert pure.mean_iteration_seconds() == 0.0

    def test_history_still_counts_iterations(self, machine, blobs):
        pure = HierarchicalKMeans(8, machine=machine, level=1, init="first",
                                  max_iter=25, model_costs=False).fit(blobs)
        assert [h.iteration for h in pure.history] == \
            list(range(1, pure.n_iter + 1))
        assert all(h.modelled_seconds == 0.0 for h in pure.history)

    def test_null_ledger_interface(self):
        ledger = NullLedger()
        assert isinstance(ledger, LedgerProtocol)
        assert not ledger.enabled
        ledger.charge("compute", "x", 1.0)  # discarded, not validated
        ledger.charge("not-a-category", "x", -5.0)  # still discarded
        assert ledger.charge_parallel("dma", "y", [1.0, 2.0]) == 0.0
        assert ledger.total() == 0.0
        assert ledger.records == ()
        assert ledger.next_iteration() == 1
        assert ledger.n_iterations == 1
        assert set(ledger.total_by_category()) == \
            set(TimeLedger().total_by_category())

    def test_time_ledger_is_protocol(self):
        assert isinstance(TimeLedger(), LedgerProtocol)
        assert TimeLedger().enabled
