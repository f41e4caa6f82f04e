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
    The naive kernel plus Hamerly-style triangle-inequality bounds carried
    across iterations (:class:`~repro.core.bounds.BlockBounds`): a point
    whose assigned distance is provably below both the half-separation of
    its centroid and the drifted lower bound to the runner-up skips the
    k-wide sweep.  A surviving candidate evaluates only its certified
    ball, the centroids whose certified distance to its label's centroid
    is at most twice its upper bound; a ball wider than a few centroids
    runs naive's certified screen instead.  The bounds carry rounding
    margins, so every point provably keeps naive's label and distance:
    centroids, labels and inertia are bit-identical to ``naive``, on near
    ties too.

Backends are selected with ``HierarchicalKMeans(..., kernel="gemm")`` (or
per-executor via ``Level3Executor(machine, kernel="gemm")``), with the
``REPRO_KERNEL`` environment variable as the default when no explicit
``kernel=`` is given, and produce identical assignments on non-degenerate
data; only the floating-point rounding of near-exact ties can differ
between gemm and the direct form.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import NamedTuple, Optional, Tuple, Union

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

#: Bytes of one (pairs, d) direct-form temporary on the pruned kernel's
#: ball path.  Slices this small stay in cache: 10,400 pairs at d=68 took
#: 2.0 ms in 512-pair slices and 5.6 ms in one.
PAIR_BLOCK_BYTES = 1 << 18


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
        so the fused and unfused sweeps always agree on boundaries.  It is
        also ``lloyd``'s shard policy: it fixes the block boundaries, and
        with them the order in which the sums accumulate.
        """
        return max(1, chunk_elements // max(k, 1))

    def _context(self, X: np.ndarray, C: np.ndarray, chunk_elements: int
                 ) -> Tuple[int, object]:
        """Rows per chunk of one argmin sweep over ``X``, and its context."""
        n = X.shape[0]
        rows = self.chunk_rows(n, C.shape[0], X.shape[1], chunk_elements)
        return rows, self._prepare(C, min(rows, n))

    # -- public API ---------------------------------------------------------------

    def assign(self, X: np.ndarray, C: np.ndarray,
               chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> np.ndarray:
        """Nearest-centroid assignment for every sample (int64 indices)."""
        X, C = validate_data(X, C)
        rows, ctx = self._context(X, C, chunk_elements)
        out = np.empty(X.shape[0], dtype=np.int64)
        for lo, hi in chunk_ranges(X.shape[0], rows):
            out[lo:hi] = self._argmin_block(X[lo:hi], C, ctx)
        return out

    def _sweep(self, X: np.ndarray, C: np.ndarray, chunk_elements: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """One chunked pass: winning index and squared distance per sample."""
        n = X.shape[0]
        rows, ctx = self._context(X, C, chunk_elements)
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


def screen_margin(d: int, dtype: np.dtype) -> Tuple[float, float]:
    """``(rel, tiny)`` of the screen's rounding bound ``tau = rel M + tiny``.

    Derived in :class:`NaiveKernel`; the pruned kernel's bounds and
    :func:`~repro.core.bounds.certified_bounds` reuse the same margin.
    """
    info = np.finfo(dtype)
    u = float(info.eps) / 2.0
    # The bound, doubled.
    rel = 4.0 * (_gamma(d + 1, u) + _gamma(d + 2, u))
    tiny = 8.0 * (d + 2) * float(info.smallest_subnormal)
    return rel, tiny


def sqrt_down(sq: np.ndarray) -> np.ndarray:
    """``sqrt(sq)`` rounded down, so never above the exact root.

    A correctly rounded square root lies within half an ulp of the exact
    one, so the next float toward zero is below it.  NaN, infinite and
    negative entries give 0, which bounds any distance from below.
    """
    sq = np.where(np.isfinite(sq) & (sq > 0.0), sq, 0.0)
    return np.nextafter(np.sqrt(sq), 0.0)


def _row_bound(block: np.ndarray, c_norm: float
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Per row: ``|x|^2`` and ``M = (|x| + max_j |c_j|)^2``."""
    x_sq = np.einsum("bd,bd->b", block, block)
    m = np.sqrt(x_sq) + c_norm
    m *= m
    return x_sq, m


def _winner_sq(block: np.ndarray, C: np.ndarray,
               local: np.ndarray) -> np.ndarray:
    """Direct-form squared distance of each row to its centroid ``local``."""
    diff = C[local]
    np.subtract(block, diff, out=diff)
    return np.einsum("bd,bd->b", diff, diff)


class _ScreenContext(NamedTuple):
    """Per-call state of :class:`NaiveKernel`'s screen."""

    gemm: object        # GemmKernel context: centroid norms, scratch
    c_norm: float       # max_j |c_j|
    rel: float          # tau = rel M + tiny
    tiny: float
    direct_rows: int    # rows per (rows, k, d) direct-form temporary


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
    boundaries, and the fallback may run in sub-chunks of any size.
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
        rel, tiny = screen_margin(C.shape[1], C.dtype)
        return _ScreenContext(gemm_ctx, np.sqrt(c_sq.max()), rel, tiny,
                              max_rows)

    def _screen(self, block: np.ndarray, C: np.ndarray,
                ctx: _ScreenContext) -> Tuple[np.ndarray, np.ndarray,
                                              np.ndarray, np.ndarray,
                                              np.ndarray]:
        """Screen one chunk: ``(winner, certified, runner, |x|^2, M)``.

        ``winner`` is each row's partial-form argmin ``j*``, ``certified``
        the rows whose ``j*`` the bound proves, and ``runner`` the masked
        runner-up partial ``G_(2)`` (+inf when k = 1).
        """
        # Overflowing partials are expected here and sent to the fallback;
        # they must not warn where the direct form itself stays silent.
        with np.errstate(over="ignore", invalid="ignore"):
            g = self._gemm._partial_block(block, C, ctx.gemm)
            rows = np.arange(g.shape[0])
            local = np.argmin(g, axis=1)
            best = g[rows, local]
            # The runner-up: mask the winner out of the (spent) scratch.
            # Gathering at the argmin is the row minimum (NaN included)
            # and cheaper than min(axis=1).
            g[rows, local] = np.inf
            runner = g[rows, np.argmin(g, axis=1)]
            x_sq, m = _row_bound(block, ctx.c_norm)
            ok = np.isfinite(m) & (runner - best > ctx.rel * m + ctx.tiny)
        return local, ok, runner, x_sq, m

    def _direct(self, rows: np.ndarray, C: np.ndarray,
                ctx: _ScreenContext
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The full direct form: argmin, its ``D`` and the runner-up ``D_(2)``.

        Runs in sub-chunks of the context's ``direct_rows``, which bounds
        the (rows, k, d) temporary.
        """
        b = rows.shape[0]
        local = np.empty(b, dtype=np.int64)
        best = np.empty(b, dtype=rows.dtype)
        runner = np.empty(b, dtype=rows.dtype)
        for lo, hi in chunk_ranges(b, ctx.direct_rows):
            d2 = squared_distances(rows[lo:hi], C)
            i = np.arange(hi - lo)
            j = np.argmin(d2, axis=1)
            local[lo:hi] = j
            best[lo:hi] = d2[i, j]
            d2[i, j] = np.inf
            runner[lo:hi] = d2.min(axis=1)
        return local, best, runner

    def _settle(self, block: np.ndarray, C: np.ndarray,
                ctx: _ScreenContext
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Label, winner ``D`` and runner-up estimate per row, plus ``M``.

        The runner-up estimate approximates the second-smallest squared
        distance: ``G_(2) + |x|^2`` where the screen certified, ``D_(2)``
        where the row ran the direct form.
        """
        local, ok, runner, x_sq, m = self._screen(block, C, ctx)
        best = _winner_sq(block, C, local)
        with np.errstate(over="ignore", invalid="ignore"):
            second = runner + x_sq
        rest = np.flatnonzero(~ok)
        if rest.size:
            local[rest], best[rest], second[rest] = self._direct(
                block[rest], C, ctx)
        return local, best, second, m

    def certified(self, X: np.ndarray, C: np.ndarray,
                  chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                  ) -> np.ndarray:
        """Per-sample flag: True where the GEMM screen certifies the label.

        Diagnostic view of the fast path — the argmin paths run the full
        direct form only for the False rows.
        """
        X, C = validate_data(X, C)
        rows, ctx = self._context(X, C, chunk_elements)
        out = np.empty(X.shape[0], dtype=bool)
        for lo, hi in chunk_ranges(X.shape[0], rows):
            out[lo:hi] = self._screen(X[lo:hi], C, ctx)[1]
        return out

    def _argmin_block(self, block: np.ndarray, C: np.ndarray,
                      ctx: object) -> np.ndarray:
        local, ok = self._screen(block, C, ctx)[:2]
        rest = np.flatnonzero(~ok)
        if rest.size:
            local[rest] = self._direct(block[rest], C, ctx)[0]
        return local

    def _argmin_best_block(self, block: np.ndarray, C: np.ndarray,
                           ctx: object) -> Tuple[np.ndarray, np.ndarray]:
        local, best, _, _ = self._settle(block, C, ctx)
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
        """Expanded-form squared distance of each row to its centroid.

        Deliberately *not* gathered from the GEMM result: a BLAS matmul
        element can depend on the whole chunk's blocking, while this
        einsum contraction reduces each row independently, so a row's
        value does not depend on the chunk it was swept in.
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
        # materialise the squared distance for the winner only, via the
        # row-independent routine.
        g = self._partial_block(block, C, ctx)
        local = np.argmin(g, axis=1)
        return local, self._winner_sq_block(block, C, local, ctx)


#: One pruned block sweep: (labels, best_d2, sums, counts, lb, n_dist).
PrunedSweep = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                    np.ndarray, int]


class PrunedKernel(NaiveKernel):
    """Naive's certified screen plus per-block triangle-inequality pruning.

    The stateless public API (``assign`` / ``assign_with_distances`` /
    ``assign_accumulate`` / ``pairwise_sq``) is naive's — without carried
    bounds there is nothing to prune.  The two extra entry points
    implement the stateful sweep the executors drive through
    :class:`~repro.core.bounds.BlockBounds`:

    ``establish``
        Naive's sweep that also keeps, per sample, a lower bound ``lb`` on
        the distance to every centroid but its label.

    ``assign_accumulate_pruned``
        The bounded iteration.  Per chunk: refresh the assigned distance
        where the assigned centroid changed (``drift > 0``; an unchanged
        centroid is bitwise the same, so the stored direct-form value
        still holds), drift ``lb`` by the worst centroid movement, and
        evaluate only the candidates that fail Hamerly's test
        ``ub < max(s[a], lb)``: each against the centroids of its
        certified ball, or with naive's screen where the ball is wide.

    Both return the actual number of point-centroid distance evaluations
    (``n_dist``) so the executors can charge the ledger for work done,
    not work avoided.

    **The bounds.**  With ``u``, ``gamma_m``, ``M``, ``P_j``, ``D_j`` and
    ``G_j`` as in :class:`NaiveKernel`, ``s_min`` its smallest subnormal
    ``s`` (here ``s`` is the half-separation vector), let
    ``eta = rel M + tiny`` be the screen's ``tau`` (:func:`screen_margin`),
    ``rel = 4 (gamma_{d+1} + gamma_{d+2})`` and
    ``tiny = 8 (d + 2) s_min``.

    * *Lower bound.*  A row labelled ``a`` has, for every ``j != a``,
      ``P_j >= E - (gamma_{d+1} + gamma_{d+2}) M - 2 d s_min``: on a certified
      row ``E = G_(2) + |x|^2`` (``G_j >= G_(2)``, the masked runner-up,
      plus the partial-form bound and ``gamma_d M + d s_min/2`` for the
      computed ``|x|^2``); on any other row ``E = D_(2)``, the direct
      form's runner-up (the direct-form bound).  Both terms of ``E`` are
      at most about ``M``, so forming ``E`` and subtracting ``eta`` rounds
      by at most ``5 u M``, and the computed ``M`` is at most about
      ``gamma_{d+4} M`` low; ``rel`` is four times the relative term the
      inequality needs, which absorbs both.  So ``lb^2 = fl(E - eta)``
      is at most every ``P_j``, and ``lb = nextafter(sqrt(lb^2), 0)`` (a
      correctly rounded root is within half an ulp) is at most every
      ``|x - c_j|``.  A NaN, infinite or negative ``lb^2`` (overflowed
      partials) gives ``lb = 0``; k = 1 gives ``+inf``: there is no
      runner-up.
    * *Drift.*  A centroid that moved by at most ``drift[j]`` changes any
      distance to it by at most that much, so ``lb - max(drift)`` stays a
      lower bound; the difference is rounded toward ``-inf`` once more,
      so the carried bound stays below over any number of iterations.
      :func:`~repro.core.bounds.certified_bounds` makes ``drift`` an upper
      bound on each movement, and ``s`` a lower bound on each centroid's
      half-distance to its nearest other centroid.
    * *Upper bound.*  ``ub = fl(sqrt(fl(D_a + eta))) (1 + 4u)``: the
      factor covers the add, the root and the product, so
      ``ub^2 >= D_a + eta >= P_a``, as ``eta`` exceeds the direct-form
      error ``gamma_{d+2} M + d s_min/2``.
    * *The skip.*  A row is skipped when ``ub < max(s[a], lb)``.  Then
      every ``j != a`` has ``|x - c_j| > ub``: directly when ``lb > ub``,
      and by the triangle inequality when ``s[a] > ub``
      (``|x - c_j| >= 2 s[a] - |x - c_a| > 2 ub - ub``).  So
      ``P_j > ub^2 >= D_a + eta``, and the direct-form bound gives
      ``D_j >= P_j - gamma_{d+2} M - d s_min/2 > D_a``: ``a`` is the unique
      direct-form argmin, naive's label whatever the tie rule, and the
      stored ``D_a`` is naive's distance.  A NaN anywhere fails the
      comparison, so the row stays a candidate.
    * *The ball.*  :func:`~repro.core.bounds.certified_bounds` lists, per
      centroid ``a``, the centroids nearest to it in ascending order of a
      certified bound ``L[a, j] <= |c_a - c_j|`` (the runner-up bound
      above at ``x = c_a``), ``a`` itself first with ``L[a, a] = 0``.  Any
      ``j`` with ``L[a, j] > 2 ub`` has
      ``|x - c_j| >= L[a, j] - |x - c_a| > ub``, so ``D_j > D_a`` as in
      the skip.  The ball ``{j : L[a, j] <= 2 ub}``, a prefix of the
      list, therefore holds naive's winner and all of its exact ties: the
      lexicographic minimum of ``(D_j, j)`` over it is naive's label and
      distance, with no winner certificate, near ties included.  Each
      member's ``D_j`` is :func:`_winner_sq`'s einsum, bitwise naive's
      (b, k) entry; the label's is the stored ``D_a``.
    * *The ball's lower bound.*  For the new label ``w``,
      ``lb = min(sqrt_down(D_(2) - eta), nextafter(L[a, r] - ub, -inf))``.
      ``D_(2)``, the smallest ``D_j`` over the other members, bounds them
      as on a direct-form row (+inf when the ball held only the label).
      ``r`` is the first rank outside the ball, and ``L[a, r] - ub``
      bounds every centroid outside it by the triangle inequality (+inf
      when the ball is all of k).  On this path ``ub`` is finite: an
      infinite one puts every rank in the ball, which is then wide.
    * *Selection.*  The list holds the first ``T + 1`` ranks,
      ``T = ball_limit(k) = max(2, k // 32)``.  A ball of at most T
      centroids takes the pair path: all (row, member) pairs of a chunk
      run as one gathered direct-form pass.  A wider one, decided from
      those T + 1 ranks, runs :meth:`NaiveKernel._settle`, whose one GEMM
      per chunk is cheaper for wide balls.

    Either way every label and distance is naive's: results are
    bit-identical to ``naive``.
    """

    name = "pruned"

    def _context(self, X: np.ndarray, C: np.ndarray, chunk_elements: int
                 ) -> Tuple[int, object]:
        # The screen's largest temporary is the (rows, k) partial block, so
        # sweeps take gemm-sized chunks; chunk_rows (naive's) stays the
        # shard policy and bounds the direct-form fallback's sub-chunks.
        n, k = X.shape[0], C.shape[0]
        rows = max(1, chunk_elements // max(k, 1))
        ctx = self._prepare(C, min(rows, n))
        direct = self.chunk_rows(n, k, X.shape[1], chunk_elements)
        return rows, ctx._replace(direct_rows=direct)

    def _label_block(self, block: np.ndarray, C: np.ndarray,
                     ctx: _ScreenContext
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Naive's label and distance per row, plus its runner-up bound."""
        local, best, second, m = self._settle(block, C, ctx)
        if C.shape[0] == 1:
            return local, best, np.full(block.shape[0], np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            lb = sqrt_down(second - (ctx.rel * m + ctx.tiny))
        return local, best, lb

    def establish(self, X: np.ndarray, C: np.ndarray,
                  chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                  ) -> PrunedSweep:
        """Full sweep that also establishes the bound state for a block."""
        X, C = validate_data(X, C)
        rows, ctx = self._context(X, C, chunk_elements)
        n, k = X.shape[0], C.shape[0]
        labels = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=X.dtype)
        lb = np.empty(n, dtype=np.float64)
        for lo, hi in chunk_ranges(n, rows):
            labels[lo:hi], best[lo:hi], lb[lo:hi] = self._label_block(
                X[lo:hi], C, ctx)
        sums, counts = accumulate(X, labels, k)
        return labels, best, sums, counts, lb, n * k

    def _ball_block(self, block: np.ndarray, rows: np.ndarray,
                    C: np.ndarray, labels: np.ndarray, d2: np.ndarray,
                    ub: np.ndarray, eta: np.ndarray, width: np.ndarray,
                    near: np.ndarray, near_lb: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Naive's label and distance for ``block[rows]`` from each row's
        certified ball alone, plus its new lower bound.

        Row ``i``'s ball is the first ``width[i]`` ranks of its label's
        table row, rank 0 being the label.  The label's ``D`` is the
        carried ``d2[i]``; every other member's is evaluated in one
        gathered direct-form pass over all (rank, row) pairs, in slices of
        :data:`PAIR_BLOCK_BYTES`.
        """
        k = C.shape[0]
        member = near.T[:, labels]                       # (rank, row)
        dist = np.full(member.shape, np.inf, dtype=block.dtype)
        dist[0] = d2
        other = np.arange(near.shape[1])[:, None] < width
        other[0] = False
        todo = np.flatnonzero(other)
        pair_rows = rows[todo % rows.shape[0]]
        pair_member = member.reshape(-1)[todo]
        flat = dist.reshape(-1)
        step = max(1, PAIR_BLOCK_BYTES // (block.shape[1] * block.itemsize))
        for lo, hi in chunk_ranges(todo.shape[0], step):
            diff = block[pair_rows[lo:hi]]
            diff -= C[pair_member[lo:hi]]
            flat[todo[lo:hi]] = np.einsum("bd,bd->b", diff, diff)
        # The lexicographic minimum of (D_j, j), then the runner-up D.
        best = dist.min(axis=0)
        win = np.where(dist == best, member, k).min(axis=0)
        runner = np.where(member == win, np.inf, dist).min(axis=0)
        edge = near_lb[labels, width]
        with np.errstate(over="ignore", invalid="ignore"):
            inner = sqrt_down(runner - eta)
            inner[width == 1] = np.inf
            outer = np.where(np.isinf(edge), np.inf,
                             np.nextafter(edge - ub, -np.inf))
        return win, best, np.minimum(inner, outer)

    def assign_accumulate_pruned(self, X: np.ndarray, C: np.ndarray,
                                 labels_in: np.ndarray, d2_in: np.ndarray,
                                 lb_in: np.ndarray, drift: np.ndarray,
                                 s: np.ndarray, near: np.ndarray,
                                 near_lb: np.ndarray,
                                 chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                                 ) -> PrunedSweep:
        """One bounded sweep over a block with carried state.

        ``drift``, ``s`` and the neighbour table ``near``/``near_lb`` must
        be certified bounds (:func:`~repro.core.bounds.certified_bounds`).
        Pure with respect to its inputs: the carried arrays are read only,
        fresh outputs are returned — an engine-level task retry re-runs
        from unpoisoned state.
        """
        X, C = validate_data(X, C)
        rows, ctx = self._context(X, C, chunk_elements)
        n, k = X.shape[0], C.shape[0]
        labels = np.array(labels_in, copy=True)
        d2 = np.array(d2_in, copy=True)
        if k > 1:
            lb = np.nextafter(lb_in - drift.max(), -np.inf)
        else:
            lb = np.array(lb_in, copy=True)
        moved = drift > 0.0
        grow = 1.0 + 2.0 * float(np.finfo(X.dtype).eps)  # 1 + 4u
        widest = near.shape[1] - 1

        n_dist = 0
        for lo, hi in chunk_ranges(n, rows):
            block = X[lo:hi]
            chunk_labels = labels[lo:hi]
            chunk_d2 = d2[lo:hi]
            chunk_lb = lb[lo:hi]
            stale = np.flatnonzero(moved[chunk_labels])
            if stale.size:
                chunk_d2[stale] = _winner_sq(block[stale], C,
                                             chunk_labels[stale])
                n_dist += int(stale.size)
            with np.errstate(over="ignore", invalid="ignore"):
                _, m = _row_bound(block, ctx.c_norm)
                eta = ctx.rel * m + ctx.tiny
                ub = np.sqrt(chunk_d2 + eta)
                ub *= grow
                skip = ub < np.maximum(s[chunk_labels], chunk_lb)
                cand = np.flatnonzero(~skip)
                # The ball: the label's ranks within 2 ub, a sorted prefix.
                width = np.count_nonzero(
                    near_lb[chunk_labels[cand]] <= 2.0 * ub[cand, None],
                    axis=1)
            narrow = width <= widest
            wide = cand[~narrow]
            if wide.size:
                chunk_labels[wide], chunk_d2[wide], chunk_lb[wide] = \
                    self._label_block(block[wide], C, ctx)
                n_dist += int(wide.size) * k
            pair = cand[narrow]
            if pair.size:
                width = width[narrow]
                chunk_labels[pair], chunk_d2[pair], chunk_lb[pair] = \
                    self._ball_block(block, pair, C, chunk_labels[pair],
                                     chunk_d2[pair], ub[pair], eta[pair],
                                     width, near, near_lb)
                # The label's own distance is carried, not evaluated.
                n_dist += int(width.sum()) - int(pair.size)
        sums, counts = accumulate(X, labels, k)
        return labels, d2, sums, counts, lb, n_dist


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
