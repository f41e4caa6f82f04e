"""Pluggable compute kernels for the Assign step.

Every executor funnels its nearest-centroid arithmetic through a
:class:`KernelBackend`, decoupling *which distance formulation runs* from
*how the partition charges modelled cost*.  Three backends ship:

``naive``
    The direct ``sum((x - c)^2)`` form — numerically identical to what the
    dimension-sliced hardware dataflow computes and sums, so it is the
    reference for the fidelity/strict-CPE tests.  Its argmin paths find
    the winner with a certified GEMM screen: the gemm partial form picks
    each row's candidate, a rounding bound proves it is the direct-form
    argmin, and only the winner's distance is evaluated in the direct
    form.  Rows the bound cannot certify (near ties, overflow) run the
    full chunked direct form, so every label and distance is bit-identical
    to it.

``gemm``
    The communication-avoiding blocked formulation
    ``|x|^2 - 2 X C^T + |c|^2``: one BLAS GEMM per sample block instead of
    an (n, k, d) subtraction temporary, with the centroid norms computed
    once per call and the (rows, k) distance block reused across chunks.
    For pure assignment the ``|x|^2`` term is a per-row constant and is
    dropped from the argmin entirely.

``pruned``
    The gemm formulation plus Hamerly-style triangle-inequality bounds
    carried across iterations (:class:`~repro.core.bounds.BlockBounds`):
    a point whose exact distance to its assigned centroid is provably
    below both the half-separation of that centroid and the drifted
    lower bound to the runner-up skips the k-wide sweep entirely, and
    only the surviving candidates pay the blocked GEMM.  Bit-identical
    to ``gemm`` — centroids, labels, and inertia — because every reported
    distance comes from the same row-independent winner routine and
    skipped points cannot change assignment in exact arithmetic.  The
    exception is a near tie that binary floating point cannot represent
    (decimal coordinates such as ``0.001``): the skip test carries no
    rounding margin, and gemm's own argmin there depends on the block
    shape, so the two can pick different winners (ROADMAP item 1).

Backends are selected with ``HierarchicalKMeans(..., kernel="gemm")`` (or
per-executor via ``Level3Executor(machine, kernel="gemm")``), with the
``REPRO_KERNEL`` environment variable as the default when no explicit
``kernel=`` is given, and produce identical assignments on non-degenerate
data; only the floating-point rounding of near-exact ties can differ
between formulations.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Optional, Tuple, Union

import numpy as np

from ..analysis.envvars import ENV_KERNEL, read_str
from ..errors import ConfigurationError
from ._common import (
    DEFAULT_CHUNK_ELEMENTS,
    accumulate,
    chunk_ranges,
    squared_distances,
    validate_data,
)

#: Names accepted by :func:`resolve_kernel`.
KERNELS = ("naive", "gemm", "pruned")

#: Environment variable consulted when no explicit ``kernel=`` is given.
KERNEL_ENV = ENV_KERNEL.name


class KernelBackend(ABC):
    """One distance formulation behind the Assign step.

    Subclasses implement the per-chunk primitives; the base class owns the
    chunking loop so every backend observes the same bounded working set
    (the in-memory analogue of streaming sample blocks through the LDM)
    and the same tie rule (np.argmin — lowest centroid index wins).
    """

    #: Registry name of the backend ("naive", "gemm", ...).
    name: str = ""

    # -- per-chunk primitives ----------------------------------------------------

    @abstractmethod
    def _prepare(self, C: np.ndarray, max_rows: int) -> object:
        """Per-call setup (centroid norms, scratch buffers); returns a context."""

    @abstractmethod
    def _argmin_block(self, block: np.ndarray, C: np.ndarray,
                      ctx: object) -> np.ndarray:
        """Nearest-centroid index for one sample block."""

    @abstractmethod
    def _sq_block(self, block: np.ndarray, C: np.ndarray,
                  ctx: object) -> np.ndarray:
        """Full (b, k) squared-distance block for one sample block."""

    def _argmin_best_block(self, block: np.ndarray, C: np.ndarray,
                           ctx: object) -> Tuple[np.ndarray, np.ndarray]:
        """Winning index plus its squared distance for one sample block.

        Must pick the winner exactly like :meth:`_argmin_block` — same
        formulation, same ties — so ``assign()`` and the sweeps behind
        ``assign_with_distances()`` / ``assign_accumulate()`` never
        disagree.  Backends whose argmin runs on a cheaper partial form
        override this to argmin that form and materialise the full
        distance for the winner only.
        """
        d2 = self._sq_block(block, C, ctx)
        local = np.argmin(d2, axis=1)
        return local, d2[np.arange(block.shape[0]), local]

    # -- chunk policy -------------------------------------------------------------

    def chunk_rows(self, n: int, k: int, d: int,
                   chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> int:
        """Sample rows per chunk so the transient working set stays bounded.

        The default assumes the largest per-chunk temporary is the
        (rows, k) distance block.  Backends whose intermediates scale
        differently (the naive form's (rows, k, d) subtraction temporary)
        override this — it is the single place the chunk shape is decided,
        so the fused and unfused sweeps always agree on boundaries.
        """
        return max(1, chunk_elements // max(k, 1))

    # -- public API ---------------------------------------------------------------

    def assign(self, X: np.ndarray, C: np.ndarray,
               chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> np.ndarray:
        """Nearest-centroid assignment for every sample (int64 indices)."""
        X, C = validate_data(X, C)
        n, k = X.shape[0], C.shape[0]
        rows = self.chunk_rows(n, k, X.shape[1], chunk_elements)
        ctx = self._prepare(C, min(rows, n))
        out = np.empty(n, dtype=np.int64)
        for lo, hi in chunk_ranges(n, rows):
            out[lo:hi] = self._argmin_block(X[lo:hi], C, ctx)
        return out

    def _sweep(self, X: np.ndarray, C: np.ndarray, chunk_elements: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """One chunked pass: winning index and squared distance per sample."""
        n, k = X.shape[0], C.shape[0]
        rows = self.chunk_rows(n, k, X.shape[1], chunk_elements)
        ctx = self._prepare(C, min(rows, n))
        idx = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=X.dtype)
        for lo, hi in chunk_ranges(n, rows):
            local, best_block = self._argmin_best_block(X[lo:hi], C, ctx)
            idx[lo:hi] = local
            best[lo:hi] = best_block
        return idx, best

    def assign_with_distances(self, X: np.ndarray, C: np.ndarray,
                              chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                              ) -> Tuple[np.ndarray, np.ndarray]:
        """Assignments plus the squared distance to the winning centroid."""
        X, C = validate_data(X, C)
        return self._sweep(X, C, chunk_elements)

    def assign_accumulate(self, X: np.ndarray, C: np.ndarray,
                          chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]:
        """Fused Assign+Accumulate: ``(assignments, best_d2, sums, counts)``.

        The executors' hot path.  One chunked sweep produces the winning
        index *and* its squared distance (the per-iteration inertia then
        costs a vector mean instead of a fresh ``X - C[assignments]``
        pass), followed by one bincount accumulation over the whole block.
        The accumulation deliberately runs over the full block rather than
        per chunk so the sums are bit-identical to the unfused
        ``assign_with_distances`` + ``accumulate`` pair — the property the
        engine-parity tests and fault replays rely on.
        """
        X, C = validate_data(X, C)
        idx, best = self._sweep(X, C, chunk_elements)
        sums, counts = accumulate(X, idx, C.shape[0])
        return idx, best, sums, counts

    def pairwise_sq(self, X: np.ndarray, C: np.ndarray,
                    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                    ) -> np.ndarray:
        """Dense (n, k) squared distances, assembled chunk by chunk."""
        X, C = validate_data(X, C)
        n, k = X.shape[0], C.shape[0]
        rows = self.chunk_rows(n, k, X.shape[1], chunk_elements)
        ctx = self._prepare(C, min(rows, n))
        out = np.empty((n, k), dtype=X.dtype)
        for lo, hi in chunk_ranges(n, rows):
            out[lo:hi] = self._sq_block(X[lo:hi], C, ctx)
        return out


def _gamma(m: int, u: float) -> float:
    """Higham's ``gamma_m = m u / (1 - m u)``; +inf once ``m u >= 1``."""
    return m * u / (1.0 - m * u) if m * u < 1.0 else np.inf


class NaiveKernel(KernelBackend):
    """Direct-form distances — the fidelity reference — behind a GEMM screen.

    Every label and distance it reports is the direct form: the hardware
    computes and sums per-dimension ``(x - c)^2`` terms, so
    ``argmin_j D_j`` with ``D_j = sum((x - c_j)^2)`` (lowest index on
    ties) is what the partitioned dimension slices produce bit for bit.
    The argmin paths only *find* that winner faster: per chunk they argmin
    the partial form ``G_j = |c_j|^2 - 2 x.c_j`` on the gemm kernel's
    scratch code and keep the winner ``j*`` for every row the rounding
    bound below certifies.  A certified row's direct-form distance is
    evaluated for ``j*`` alone; every other row (exact or near ties,
    non-finite partials) runs the full direct form exactly as before.
    ``pairwise_sq`` always runs the full direct form.

    **The certificate.**  For a row ``x`` let ``u`` be the unit roundoff,
    ``s`` the smallest subnormal, ``gamma_m = m u / (1 - m u)``,
    ``M = (|x| + max_j |c_j|)^2`` and ``P_j = |x - c_j|^2``.  Both ``P_j``
    and ``|c_j|^2 + 2 sum_i |x_i c_ji|`` are at most ``M``, so the
    standard dot-product bound gives, for any summation order, with or
    without FMA, and for any BLAS blocking:

    * direct form (one rounding each for the difference and the square,
      ``d - 1`` for the sum): ``|D_j - P_j| <= gamma_{d+2} M + d s/2``;
    * partial form (``gamma_d`` each for ``|c|^2`` and ``x.c``, an exact
      ``* -2``, one rounding for the add):
      ``|G_j - (P_j - |x|^2)| <= gamma_{d+1} M + 3 d s/2``.

    The ``s/2`` terms cover each product that underflows (subnormal sums
    and differences are exact).  So if every ``j != j*`` has
    ``G_j - G_j* > tau`` with ``tau = 2 (gamma_{d+1} + gamma_{d+2}) M +
    4 (d + 2) s``, then ``D_j > D_j*``: ``j*`` is the unique direct-form
    argmin, whatever the tie rule.  The row compares the rounded gap
    ``fl(G_(2) - G_j*)`` with ``tau``; rounding is monotone, so a rounded
    gap above ``tau`` is an exact gap above it.  The computed ``tau`` is
    doubled to absorb its own rounding and that of ``M``.  A row certifies
    only when its ``M`` is finite; a finite ``M`` bounds every partial, so
    overflowed (inf or NaN) partials always take the fallback.

    The winner distance is ``einsum("bd,bd->b")`` over ``x - c_j*``;
    numpy reduces each pair's d-vector with the same inner loop whatever
    the outer shape, so it is bit-identical to the ``(b, k)`` direct-form
    entry.  Certification is per row, so labels do not depend on chunk
    boundaries.
    """

    name = "naive"

    def __init__(self) -> None:
        #: Supplies the screen's centroid norms and (thread-local) scratch.
        self._gemm = GemmKernel()

    def chunk_rows(self, n: int, k: int, d: int,
                   chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> int:
        # The direct-form fallback materialises a (rows, k, d) subtraction
        # temporary, so sizing rows by k alone would overshoot the
        # working-set bound by a factor of d.
        return max(1, chunk_elements // max(k * d, 1))

    def _prepare(self, C: np.ndarray, max_rows: int) -> object:
        gemm_ctx = self._gemm._prepare(C, max_rows)
        c_sq, _ = gemm_ctx
        d = C.shape[1]
        info = np.finfo(C.dtype)
        u = float(info.eps) / 2.0
        # tau = rel * M + tiny: the bound above, doubled.
        rel = 4.0 * (_gamma(d + 1, u) + _gamma(d + 2, u))
        tiny = 8.0 * (d + 2) * float(info.smallest_subnormal)
        return gemm_ctx, np.sqrt(c_sq.max()), rel, tiny

    def _screen(self, block: np.ndarray, C: np.ndarray, ctx: object
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Partial-form argmin per row, plus the rows it certifies."""
        gemm_ctx, c_norm, rel, tiny = ctx
        # Overflowing partials are expected here and sent to the fallback;
        # they must not warn where the direct form itself stays silent.
        with np.errstate(over="ignore", invalid="ignore"):
            g = self._gemm._partial_block(block, C, gemm_ctx)
            rows = np.arange(g.shape[0])
            local = np.argmin(g, axis=1)
            best = g[rows, local]
            # The runner-up: mask the winner out of the (spent) scratch.
            g[rows, local] = np.inf
            gap = g.min(axis=1) - best
            m = np.sqrt(np.einsum("bd,bd->b", block, block)) + c_norm
            m *= m
            ok = np.isfinite(m) & (gap > rel * m + tiny)
        return local, ok

    def certified(self, X: np.ndarray, C: np.ndarray,
                  chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                  ) -> np.ndarray:
        """Per-sample flag: True where the GEMM screen certifies the label.

        Diagnostic view of the fast path — the argmin paths run the full
        direct form only for the False rows.
        """
        X, C = validate_data(X, C)
        n, k = X.shape[0], C.shape[0]
        rows = self.chunk_rows(n, k, X.shape[1], chunk_elements)
        ctx = self._prepare(C, min(rows, n))
        out = np.empty(n, dtype=bool)
        for lo, hi in chunk_ranges(n, rows):
            out[lo:hi] = self._screen(X[lo:hi], C, ctx)[1]
        return out

    def _argmin_block(self, block: np.ndarray, C: np.ndarray,
                      ctx: object) -> np.ndarray:
        local, ok = self._screen(block, C, ctx)
        rest = np.flatnonzero(~ok)
        if rest.size:
            local[rest] = np.argmin(squared_distances(block[rest], C), axis=1)
        return local

    def _argmin_best_block(self, block: np.ndarray, C: np.ndarray,
                           ctx: object) -> Tuple[np.ndarray, np.ndarray]:
        local, ok = self._screen(block, C, ctx)
        diff = block - C[local]
        best = np.einsum("bd,bd->b", diff, diff)
        rest = np.flatnonzero(~ok)
        if rest.size:
            d2 = squared_distances(block[rest], C)
            local[rest] = np.argmin(d2, axis=1)
            best[rest] = d2[np.arange(rest.size), local[rest]]
        return local, best

    def _sq_block(self, block: np.ndarray, C: np.ndarray,
                  ctx: object) -> np.ndarray:
        return squared_distances(block, C)


class GemmKernel(KernelBackend):
    """Blocked ``|x|^2 - 2 X C^T + |c|^2`` — the production hot path.

    One BLAS matmul per chunk replaces the (b, k, d) subtraction temporary
    of the naive form.  The centroid norms ``|c|^2`` are computed once per
    call, and one (rows, k) scratch buffer is reused across chunks (and
    across calls, while shapes allow) so the steady-state loop allocates
    nothing.  The argmin drops the per-row-constant ``|x|^2`` term.

    The scratch buffer is thread-local: one backend instance is shared by
    every executor, restart, and predict() call, and the thread engine maps
    block sweeps of the *same* instance across a pool concurrently.
    """

    name = "gemm"

    def __init__(self) -> None:
        self._scratch = threading.local()

    def _buffer(self, rows: int, k: int, dtype: np.dtype) -> np.ndarray:
        buf: Optional[np.ndarray] = getattr(self._scratch, "buf", None)
        if (buf is None or buf.shape[0] < rows
                or buf.shape[1] != k or buf.dtype != dtype):
            buf = np.empty((rows, k), dtype=dtype)
            self._scratch.buf = buf
        return buf

    def _prepare(self, C: np.ndarray, max_rows: int) -> object:
        c_sq = np.einsum("kd,kd->k", C, C)
        buf = self._buffer(max(1, max_rows), C.shape[0], C.dtype)
        return c_sq, buf

    def _partial_block(self, block: np.ndarray, C: np.ndarray,
                       ctx: object) -> np.ndarray:
        """``|c|^2 - 2 x.c`` for one chunk, written into the scratch buffer."""
        c_sq, buf = ctx
        b = block.shape[0]
        g = buf[:b]
        np.matmul(block, C.T, out=g)
        g *= -2.0
        g += c_sq[None, :]
        return g

    def _argmin_block(self, block: np.ndarray, C: np.ndarray,
                      ctx: object) -> np.ndarray:
        # |x|^2 shifts every candidate of a row equally — skip it.
        return np.argmin(self._partial_block(block, C, ctx), axis=1)

    def _sq_block(self, block: np.ndarray, C: np.ndarray,
                  ctx: object) -> np.ndarray:
        d2 = self._partial_block(block, C, ctx).copy()
        d2 += np.einsum("bd,bd->b", block, block)[:, None]
        np.maximum(d2, 0.0, out=d2)
        return d2

    def _winner_sq_block(self, block: np.ndarray, C: np.ndarray,
                         local: np.ndarray, ctx: object) -> np.ndarray:
        """Exact squared distance of each row to its chosen centroid.

        Deliberately *not* gathered from the GEMM result: a BLAS matmul
        element can depend on the whole chunk's blocking, while this
        einsum contraction reduces each row independently — so the pruned
        kernel reproduces the value for any subset of rows (skipped
        points, surviving candidates) bit-for-bit.
        """
        c_sq, _ = ctx
        best = c_sq[local] - 2.0 * np.einsum("bd,bd->b", block, C[local])
        best += np.einsum("bd,bd->b", block, block)
        np.maximum(best, 0.0, out=best)
        return best

    def _argmin_best_block(self, block: np.ndarray, C: np.ndarray,
                           ctx: object) -> Tuple[np.ndarray, np.ndarray]:
        # Argmin over the same partial form assign() uses — adding the
        # per-row |x|^2 and clamping first can flip near-exact ties — then
        # materialise the exact squared distance for the winner only, via
        # the row-independent routine the pruned kernel shares.
        g = self._partial_block(block, C, ctx)
        local = np.argmin(g, axis=1)
        return local, self._winner_sq_block(block, C, local, ctx)


#: One pruned block sweep: (labels, best_d2, sums, counts, lb, n_dist).
PrunedSweep = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                    np.ndarray, int]


class PrunedKernel(GemmKernel):
    """Gemm formulation plus per-block triangle-inequality pruning.

    The stateless public API (``assign`` / ``assign_with_distances`` /
    ``assign_accumulate`` / ``pairwise_sq``) is inherited from
    :class:`GemmKernel` unchanged — without carried bounds there is
    nothing to prune.  The two extra entry points implement the stateful
    sweep the executors drive through
    :class:`~repro.core.bounds.BlockBounds`:

    ``establish``
        A full gemm sweep that additionally derives, per sample, the
        exact winning squared distance (via the row-independent winner
        routine) and a lower bound on the runner-up distance from the
        second-smallest partial.

    ``assign_accumulate_pruned``
        The bounded iteration.  Per chunk: refresh the exact assigned
        distance only where the assigned centroid moved (``drift > 0`` —
        unmoved centroids are bitwise unchanged, so the stored exact
        value still holds), drift the lower bound by the worst centroid
        movement, and run the k-wide GEMM only for candidates whose
        upper bound fails Hamerly's test ``ub < max(s[a], lb)``.  Skipped
        points keep their assignment in exact arithmetic, and every
        reported distance comes from the shared winner routine, so
        labels, sums, and inertia are bit-identical to the unpruned gemm
        sweep — except on floating-point near ties, where the margin-free
        skip test can keep a winner gemm would replace (see the module
        docstring).

    Both return the actual number of point-centroid distance evaluations
    (``n_dist``) so the executors can charge the ledger for work done,
    not work avoided.
    """

    name = "pruned"

    def establish(self, X: np.ndarray, C: np.ndarray,
                  chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                  ) -> PrunedSweep:
        """Full sweep that also establishes the bound state for a block."""
        X, C = validate_data(X, C)
        n, k = X.shape[0], C.shape[0]
        rows = self.chunk_rows(n, k, X.shape[1], chunk_elements)
        ctx = self._prepare(C, min(rows, n))
        labels = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=X.dtype)
        lb = np.empty(n, dtype=np.float64)
        for lo, hi in chunk_ranges(n, rows):
            block = X[lo:hi]
            g = self._partial_block(block, C, ctx)
            local = np.argmin(g, axis=1)
            labels[lo:hi] = local
            best[lo:hi] = self._winner_sq_block(block, C, local, ctx)
            lb[lo:hi] = self._runnerup_lb(block, g, k)
        sums, counts = accumulate(X, labels, k)
        return labels, best, sums, counts, lb, n * k

    def assign_accumulate_pruned(self, X: np.ndarray, C: np.ndarray,
                                 labels_in: np.ndarray, d2_in: np.ndarray,
                                 lb_in: np.ndarray, drift: np.ndarray,
                                 s: np.ndarray,
                                 chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                                 ) -> PrunedSweep:
        """One bounded sweep over a block with carried state.

        Pure with respect to its inputs: the carried arrays are read
        only, fresh outputs are returned — an engine-level task retry
        re-runs from unpoisoned state.
        """
        X, C = validate_data(X, C)
        n, k = X.shape[0], C.shape[0]
        rows = self.chunk_rows(n, k, X.shape[1], chunk_elements)
        ctx = self._prepare(C, min(rows, n))
        labels = np.array(labels_in, copy=True)
        d2 = np.array(d2_in, copy=True)
        lb = lb_in - (drift.max() if k > 1 else 0.0)
        n_dist = 0
        for lo, hi in chunk_ranges(n, rows):
            block = X[lo:hi]
            chunk_labels = labels[lo:hi]
            chunk_d2 = d2[lo:hi]
            # Refresh the exact assigned distance only where the assigned
            # centroid actually moved; an unmoved centroid is bitwise
            # unchanged, so the stored exact value is still the exact
            # current value.  (An exact zero test on the drift vector is
            # intentional: it detects bitwise-identical centroids, not
            # numerical closeness.)
            moved = np.flatnonzero(drift[chunk_labels] > 0.0)
            if moved.size:
                chunk_d2[moved] = self._winner_sq_block(
                    block[moved], C, chunk_labels[moved], ctx)
                n_dist += int(moved.size)
            # Hamerly's test on exact upper bounds: strict failure only —
            # a point tied with its runner-up always stays a candidate,
            # so tie-breaking matches the unpruned argmin exactly.
            ub = np.sqrt(chunk_d2)
            cand = np.flatnonzero(
                ub >= np.maximum(s[chunk_labels], lb[lo:hi]))
            if cand.size:
                sub = block[cand]
                g = self._partial_block(sub, C, ctx)
                local = np.argmin(g, axis=1)
                chunk_labels[cand] = local
                chunk_d2[cand] = self._winner_sq_block(sub, C, local, ctx)
                lb[lo:hi][cand] = self._runnerup_lb(sub, g, k)
                n_dist += int(cand.size) * k
        sums, counts = accumulate(X, labels, k)
        return labels, d2, sums, counts, lb, n_dist

    def _runnerup_lb(self, block: np.ndarray, g: np.ndarray,
                     k: int) -> np.ndarray:
        """Lower bound on the distance to the second-closest centroid.

        Derived from the second-smallest entry of the partial form ``g``
        (the same ordering the argmin used) plus the per-row ``|x|^2``.
        With one centroid there is no runner-up: the bound is +inf and
        the Hamerly test can never unskip anything.
        """
        if k <= 1:
            return np.full(block.shape[0], np.inf)
        second = np.partition(g, 1, axis=1)[:, 1]
        lb_sq = second + np.einsum("bd,bd->b", block, block)
        np.maximum(lb_sq, 0.0, out=lb_sq)
        return np.sqrt(lb_sq)


#: Anything :func:`resolve_kernel` accepts (None consults ``REPRO_KERNEL``).
KernelLike = Union[str, KernelBackend]


def resolve_kernel(kernel: Optional[KernelLike] = None) -> KernelBackend:
    """Turn a backend name (or a ready instance) into a :class:`KernelBackend`.

    ``kernel=None`` consults ``REPRO_KERNEL`` (default ``"naive"``);
    empty or whitespace-only values count as unset, so CI matrices can
    export empty strings on the legs that don't use the knob.
    """
    if isinstance(kernel, KernelBackend):
        return kernel
    if kernel is None:
        kernel = read_str(ENV_KERNEL) or "naive"
    if kernel == "naive":
        return NaiveKernel()
    if kernel == "gemm":
        return GemmKernel()
    if kernel == "pruned":
        return PrunedKernel()
    raise ConfigurationError(
        f"kernel must be a KernelBackend instance or one of {KERNELS}, "
        f"got {kernel!r}"
    )
