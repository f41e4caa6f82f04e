"""Shared triangle-inequality bound mathematics for exact k-means pruning.

Every bounds-accelerated path in the repo — the Elkan/Hamerly/Yinyang
baselines and the ``kernel="pruned"`` sweep, which is the one Hamerly
path of the partitioned executors at every level — relies on the same
two facts:

* a centroid that moved by ``drift[j]`` changes any point's distance to it
  by at most ``drift[j]`` (triangle inequality), so upper/lower bounds on
  those distances stay valid when drifted by the movement;
* a point whose distance to its assigned centroid is below half the
  distance to the nearest *other* centroid (``s[j]``) provably cannot
  change assignment [Elkan 2003, Lemma 1]; more generally, a centroid
  more than twice that distance from the assigned one cannot take the
  point, which leaves only a ball of centroids around the assigned one
  to evaluate (the annulus filter of Newling and Fleuret, ICML 2016).

The drift and separation vectors used to be computed in three nearly
identical copies across the baselines; this module is now the single
implementation, and the bound-drifting rules of each algorithm family are
named helpers so their (deliberately different) semantics stay visible at
the call sites.  The baselines use :func:`centroid_drift` and
:func:`centroid_separation` as computed; the pruned kernel, which must
keep the naive kernel's bits, takes both vectors, and the sorted
neighbour table its balls are cut from, from :func:`certified_bounds`,
which rounds each toward safety.

:class:`BlockBounds` is the persistent state carrier of the pruned kernel
path: the per-sample labels, direct-form squared distances, and lower
bounds of the previous committed iteration, anchored to the exact
centroid array they were computed against.  The anchor is what makes
invalidation trivial and checkpoint-resume sound — see
``docs/invariants.md`` ("Bounds invalidation").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._common import chunk_ranges, squared_distances
from .kernels import _gamma, screen_margin, sqrt_down

__all__ = [
    "BlockBounds",
    "apply_elkan_drift",
    "apply_hamerly_drift",
    "apply_yinyang_drift",
    "ball_limit",
    "centroid_drift",
    "centroid_separation",
    "certified_bounds",
    "group_members_of",
]

#: Bytes of the (rows, k, d) direct-form temporary one block of
#: :func:`centroid_separation` may build (7 rows at k=256, d=68).
SEPARATION_BLOCK_BYTES = 1 << 20


def centroid_drift(old_C: np.ndarray, new_C: np.ndarray) -> np.ndarray:
    """Per-centroid Euclidean movement ``|new_C[j] - old_C[j]|``.

    A centroid whose membership did not change between iterations gets a
    bit-identical mean and therefore a drift of exactly ``0.0``; so does
    a movement whose square underflows (:func:`certified_bounds` counts
    those).
    """
    return np.sqrt(np.maximum(((new_C - old_C) ** 2).sum(axis=1), 0.0))


def centroid_separation(C: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inter-centroid distances ``cc`` (diagonal +inf) and half-minima ``s``.

    ``s[j]`` is half the distance from centroid j to its nearest other
    centroid: any point closer to c_j than ``s[j]`` provably keeps
    assignment j this iteration.  With a single centroid there is nothing
    to separate: ``s`` is all zeros and ``cc`` all +inf.
    """
    k = C.shape[0]
    if k <= 1:
        return np.full((k, k), np.inf), np.zeros(max(k, 1))
    # Row blocks of the direct form: each entry reduces its own d-vector,
    # so the blocks are bitwise the one-shot (k, k, d) evaluation.
    row_bytes = max(1, k * C.shape[1] * C.itemsize)
    rows = max(1, SEPARATION_BLOCK_BYTES // row_bytes)
    sq = np.empty((k, k), dtype=C.dtype)
    for lo, hi in chunk_ranges(k, rows):
        sq[lo:hi] = squared_distances(C[lo:hi], C)
    cc = np.sqrt(np.maximum(sq, 0.0))
    np.fill_diagonal(cc, np.inf)
    return cc, 0.5 * cc.min(axis=1)


def ball_limit(k: int) -> int:
    """Widest certified ball, in centroids, the pruned kernel evaluates pair
    by pair; a wider ball runs naive's k-wide screen.

    The pair path gathers one d-vector per (row, centroid) pair while the
    screen shares one GEMM per chunk, so wide balls are cheaper on the
    screen.  ``max(2, k // 32)`` follows the measured crossover: 2 at k=64,
    d=32 and 8 at k=256, d=64.
    """
    return max(2, k // 32)


def certified_bounds(anchor: np.ndarray, C: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """``(drift, s, near, near_lb)`` for the pruned sweep, rounded toward safety.

    ``drift[j]`` is an upper bound on the movement ``|C[j] - anchor[j]|``
    and is > 0 exactly where ``C[j]`` differs from ``anchor[j]``, so a
    movement whose square underflows still counts as one.  ``s[j]`` is a
    lower bound on half the distance from ``C[j]`` to its nearest other
    centroid (0 when k = 1).  ``near`` and ``near_lb`` are the sorted
    neighbour table: row ``i`` lists the ``T + 1`` centroids nearest to
    ``C[i]`` by certified bound, ``T = ball_limit(k)``, itself first with
    bound 0, and ``near_lb[i, r] <= |C[i] - C[near[i, r]]|`` ascends
    along the row.  Ranks past k are padding: index k, bound
    +inf.  With ``u``, ``s_min`` and ``gamma_m`` as in
    :class:`~repro.core.kernels.NaiveKernel`:

    * *Drift.*  Each ``f_i = fl(C_i - anchor_i)`` is within a factor
      ``1 - u`` of the exact difference (exact when subnormal); each
      square rounds by ``u`` relative or ``s_min/2`` absolute, and the
      sum by ``gamma_{d-1}``.  So the squared movement is at most
      ``(S + d s_min/2) / (1 - gamma_{d+2})`` for the computed sum of
      squares ``S``, and ``fl(sqrt(fl(S + d s_min))) (1 + gamma_{d+4})``
      exceeds its root once the add, the root and the product have
      rounded.
    * *Table.*  Row i of the k x k GEMM ``C C^T`` gives the screen's
      partial form for ``x = c_i``: ``G_j = |c_j|^2 - 2 c_i.c_j``.  Each
      ``fl(fl(G_j + |c_i|^2) - (rel M_i + tiny))``, ``M_i = (|c_i| +
      max|c|)^2``, is at most ``|c_i - c_j|^2``: the pruned kernel's
      runner-up bound for a certified row (see
      :class:`~repro.core.kernels.PrunedKernel`), and ``near_lb`` is its
      root rounded down.  The diagonal sorts first, and an overflowed
      entry, which bounds nothing, right after it; both have bound 0.
      Only the first ``T + 1`` ranks are sorted.
    * *Separation.*  ``s`` halves rank 1's bound, then rounds down again,
      as halving a subnormal can round up.  Rounding is monotone, so this
      is bitwise the bound of the row's smallest ``G_j`` formed once,
      unless an entry of the row overflowed; then ``s`` is 0.
    """
    k, d = C.shape
    info = np.finfo(C.dtype)
    u = float(info.eps) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        diff = C - anchor
        drift = np.sqrt(np.einsum("kd,kd->k", diff, diff)
                        + d * float(info.smallest_subnormal))
        drift *= 1.0 + _gamma(d + 4, u)
    drift[np.all(C == anchor, axis=1)] = 0.0
    ranks = ball_limit(k) + 1
    near = np.full((k, ranks), k, dtype=np.intp)
    near_lb = np.full((k, ranks), np.inf)
    if k <= 1:
        near[:, 0] = 0
        near_lb[:, 0] = 0.0
        return drift, np.zeros(1), near, near_lb
    rel, tiny = screen_margin(d, C.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        c_sq = np.einsum("kd,kd->k", C, C)
        g = C @ C.T
        g *= -2.0
        g += c_sq[None, :]
        g += c_sq[:, None]
        m = np.sqrt(c_sq) + np.sqrt(c_sq.max())
        m *= m
        g -= (rel * m + tiny)[:, None]
    # An overflowed entry bounds nothing: it sorts right after the
    # diagonal, which sorts first.  Both have bound 0.
    g[~np.isfinite(g)] = -np.finfo(C.dtype).max
    np.fill_diagonal(g, -np.inf)
    # Rank 1 feeds s even where the table keeps rank 0 alone.
    last = min(max(ranks, 2), k) - 1
    idx = np.argpartition(g, last, axis=1)[:, :last + 1]
    sq = np.take_along_axis(g, idx, axis=1)
    order = np.argsort(sq, axis=1, kind="stable")
    idx = np.take_along_axis(idx, order, axis=1)
    bound = sqrt_down(np.take_along_axis(sq, order, axis=1))
    kept = min(ranks, last + 1)
    near[:, :kept] = idx[:, :kept]
    near_lb[:, :kept] = bound[:, :kept]
    return drift, np.nextafter(0.5 * bound[:, 1], 0.0), near, near_lb


def apply_hamerly_drift(ub: np.ndarray, lb: np.ndarray, drift: np.ndarray,
                        assignments: np.ndarray) -> None:
    """Hamerly's rule, in place: per-sample ub up, one global lb down.

    The single lower bound covers *every* non-assigned centroid, so it
    must retreat by the worst-case movement ``drift.max()``; the upper
    bound only tracks the assigned centroid's own drift.
    """
    ub += drift[assignments]
    if drift.shape[0] > 1:
        lb -= drift.max()


def apply_elkan_drift(ub: np.ndarray, lb: np.ndarray, drift: np.ndarray,
                      assignments: np.ndarray) -> np.ndarray:
    """Elkan's rule: ub in place, per-centroid lb matrix returned fresh.

    Elkan keeps one lower bound per (sample, centroid) pair, so each
    column retreats by its own centroid's drift (clamped at zero — a
    distance bound can never go negative).
    """
    ub += drift[assignments]
    return np.maximum(lb - drift[None, :], 0.0)


def apply_yinyang_drift(ub: np.ndarray, lb: np.ndarray, drift: np.ndarray,
                        assignments: np.ndarray,
                        group_members: Sequence[np.ndarray]) -> None:
    """Yinyang's rule, in place: per-group lb columns retreat together.

    Each group's lower bound covers only its member centroids, so it
    retreats by the worst movement *within the group* — tighter than
    Hamerly's global maximum, cheaper than Elkan's full matrix.
    """
    ub += drift[assignments]
    group_drift = np.array([
        drift[members].max() if members.size else 0.0
        for members in group_members
    ])
    lb -= group_drift[None, :]


class BlockBounds:
    """Persistent bound state of the ``kernel="pruned"`` sweep.

    One instance per run holds, for every sample, the committed state of
    the last successful iteration:

    ``labels``
        the assignment (int64),
    ``d2``
        the direct-form squared distance to the assigned centroid —
        bit-identical to what the naive sweep reports for the same label,
    ``lb``
        a lower bound on the distance to every centroid but the assigned
        one,
    ``anchor``
        the exact centroid array the three arrays were computed against.

    The executors slice the arrays per partition block and ship them with
    the block tasks; per-iteration drift is always measured against
    ``anchor`` (:func:`certified_bounds`), so the state stays sound no
    matter how the host-side loop got from there to the current
    centroids.  ``commit`` is called only at
    the very end of a successful iteration (after every fault-probing
    charge), which makes a retried iteration re-run from unpoisoned
    state; ``invalidate`` is called on every checkpoint restore, replan,
    and rollback — stale bounds against restored centroids would be
    unsound, so the next iteration re-establishes them from scratch
    (reprolint rule D107 enforces the discipline statically).
    """

    __slots__ = ("labels", "d2", "lb", "anchor")

    def __init__(self) -> None:
        self.labels: Optional[np.ndarray] = None
        self.d2: Optional[np.ndarray] = None
        self.lb: Optional[np.ndarray] = None
        self.anchor: Optional[np.ndarray] = None

    @property
    def valid(self) -> bool:
        """True when the state can prune the next iteration."""
        return self.anchor is not None

    def invalidate(self) -> None:
        """Drop all state; the next iteration runs a full establishment."""
        self.labels = None
        self.d2 = None
        self.lb = None
        self.anchor = None

    def commit(self, anchor_C: np.ndarray, labels: np.ndarray,
               d2: np.ndarray, lb: np.ndarray) -> None:
        """Adopt one iteration's outputs as the next iteration's state.

        ``anchor_C`` is copied (the caller's loop variable moves on);
        the per-sample arrays are adopted by reference — the callers hand
        over freshly scattered arrays they never mutate afterwards.
        """
        self.anchor = np.array(anchor_C, copy=True)
        self.labels = labels
        self.d2 = d2
        self.lb = lb


def group_members_of(groups: np.ndarray, n_groups: int) -> List[np.ndarray]:
    """Member-index arrays per group id — the Yinyang grouping layout."""
    return [np.flatnonzero(groups == g) for g in range(n_groups)]
