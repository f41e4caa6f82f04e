"""Centroid initialisation strategies.

The paper treats initial centroids as an input ("initial centroid set C")
and studies per-iteration cost only, so any strategy works for reproducing
its figures; the library still provides the standard ones for real use:

* ``"first"``     — the first k samples (deterministic, what a fixed input
  file gives you; used by the experiments so every level starts identically),
* ``"random"``    — k distinct samples chosen uniformly,
* ``"kmeans++"``  — D^2 weighting [Arthur & Vassilvitskii 2007], the default
  for quality-sensitive applications such as the land-cover demo.

k-means++ keeps each sample's squared direct-form distance to its nearest
chosen centroid and lowers it after every draw.  Each round reads X once
through one GEMV: the partial form ``|c|^2 - 2 x.c`` plus the cached
``|x|^2`` screens out every row whose new distance provably cannot fall
below its stored one, within a rounding bound ``tau`` derived in
:func:`_kmeans_plus_plus`.  Only the rows that remain (a few percent on
well-spread data) run the direct form, so every distance, draw and seeded
centroid is bit-identical to the plain D^2 loop.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import ConfigurationError, DataShapeError
from ._common import squared_distances
from .kernels import _gamma

#: Strategies accepted by :func:`init_centroids`.
METHODS = ("first", "random", "kmeans++")

RngLike = Union[int, np.random.Generator, None]


def _as_rng(seed: RngLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def init_centroids(X: np.ndarray, k: int, method: str = "kmeans++",
                   seed: RngLike = None) -> np.ndarray:
    """Choose k initial centroids from the rows of X.

    Parameters
    ----------
    X:
        (n, d) sample matrix.
    k:
        Number of centroids; must satisfy ``1 <= k <= n``.
    method:
        One of :data:`METHODS`.
    seed:
        Seed or Generator for the stochastic methods.

    Returns
    -------
    (k, d) float array, a copy (safe to mutate).
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise DataShapeError(f"X must be 2-D, got shape {X.shape}")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ConfigurationError(f"k must be in [1, n={n}], got {k}")
    if method not in METHODS:
        raise ConfigurationError(
            f"unknown init method {method!r}; expected one of {METHODS}"
        )
    if method == "first":
        return np.array(X[:k], dtype=np.float64, copy=True)
    rng = _as_rng(seed)
    if method == "random":
        idx = rng.choice(n, size=k, replace=False)
        return np.array(X[np.sort(idx)], dtype=np.float64, copy=True)
    return _kmeans_plus_plus(X.astype(np.float64, copy=False), k, rng)


def _kmeans_plus_plus(X: np.ndarray, k: int,
                      rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding.

    Each new centroid is drawn with probability proportional to the squared
    distance from the nearest already-chosen centroid.  Distances are
    maintained incrementally (one (n,) vector ``d2``), not recomputed per
    round: after drawing ``c``, ``d2 = minimum(d2, D)`` with ``D`` the
    direct-form ``sum((x - c)^2)``.  A non-finite ``d2`` total (non-finite
    X, or distances past the float range) raises :class:`DataShapeError`.

    **The screen.**  From the second draw on, one GEMV gives each row the
    partial form ``G = |c|^2 + x.(-2c)``; adding the cached ``Q = |x|^2``
    gives ``E`` with ``E ~ |x - c|^2``.  A row whose rounded gap
    ``fl(E - d2)`` exceeds ``tau`` keeps its ``d2`` untouched, because its
    ``D`` provably exceeds ``d2`` and ``minimum`` would have kept ``d2``'s
    bits anyway.  Every other row runs the direct form through
    :func:`squared_distances`, whose einsum reduces each row's d-vector
    with the same inner loop whatever the number of rows.

    **The certificate.**  With ``u``, ``s`` and ``gamma_m`` as in
    :class:`~repro.core.kernels.NaiveKernel`, ``M = (|x| + |c|)^2`` and
    ``P = |x - c|^2``, the standard dot-product bound gives, for any
    summation order and any BLAS blocking:

    * direct form: ``|D - P| <= gamma_{d+2} M + d s/2``;
    * partial form (``gamma_d`` each for ``|c|^2`` and ``x.(-2c)``, one
      rounding for the add): ``|G - (P - |x|^2)| <= gamma_{d+1} M + 3d s/2``;
    * cached ``|x|^2``: ``|Q - |x|^2| <= gamma_d M + d s/2``;
    * ``E = fl(G + Q)``: one more rounding, at most ``u |G + Q| <= 2u M + s``.

    So ``E - d2 > B`` with ``B = (gamma_d + gamma_{d+1} + gamma_{d+2} + 2u) M
    + (5d/2 + 1) s`` proves ``D > d2``.  Rounding is monotone, so a rounded
    gap above ``tau`` is an exact gap above it.  The code uses ``tau =
    2 (gamma_d + gamma_{d+1} + gamma_{d+2}) M + 8 (d + 2) s``: the doubling
    absorbs ``E``'s rounding (the ``2u M``), the shortfall of the computed
    ``M`` (formed from ``Q``, so up to about ``gamma_{d+4} M`` low) and
    the rounding and underflow of ``tau`` itself.  ``tau`` is evaluated as a
    multiple of ``(2|x| + 2|c|)^2 = 4M``, which overflows to inf once ``M``
    nears a quarter of the float range; below that no term of ``E``
    overflows.  A row is skipped only when ``fl(E - d2) > tau``, which
    fails for an infinite or NaN ``tau`` and for a NaN gap, so rows with
    a non-finite or overflowing term always run the direct form.
    """
    n, d = X.shape
    centroids = np.empty((k, d), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = X[first]
    # Min squared distance to any chosen centroid so far.
    d2 = squared_distances(X, centroids[:1])[:, 0]
    info = np.finfo(np.float64)
    u = float(info.eps) / 2.0
    # tau = rel * 4M + tiny: the bound above, doubled.
    rel = 0.5 * (_gamma(d, u) + _gamma(d + 1, u) + _gamma(d + 2, u))
    tiny = 8.0 * (d + 2) * float(info.smallest_subnormal)
    x_sq = np.einsum("nd,nd->n", X, X)
    x_norm2 = np.sqrt(x_sq)
    x_norm2 *= 2.0
    gap = np.empty(n)
    tau = np.empty(n)
    rest = np.empty(n, dtype=bool)
    for j in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise _seeding_error(X)
        if total <= 0.0:
            # All remaining mass is on already-chosen points (duplicates):
            # fall back to uniform choice among all samples.
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=d2 / total))
        c = X[choice]
        centroids[j] = c
        c_sq = float(c @ c)
        # Overflow and inf - inf land in tau or the gap and fail the test.
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(X, -2.0 * c, out=gap)
            gap += c_sq
            gap += x_sq
            gap -= d2
            np.add(x_norm2, 2.0 * np.sqrt(c_sq), out=tau)
            tau *= tau
            tau *= rel
            tau += tiny
            np.greater(gap, tau, out=rest)
        np.logical_not(rest, out=rest)
        idx = np.flatnonzero(rest)
        if idx.size:
            d2[idx] = np.minimum(
                d2[idx], squared_distances(X[idx], centroids[j:j + 1])[:, 0])
    return centroids


def _seeding_error(X: np.ndarray) -> DataShapeError:
    """The typed error for a k-means++ round whose D^2 total is not finite."""
    if not np.isfinite(X).all():
        return DataShapeError("X contains non-finite values (NaN or Inf)")
    return DataShapeError(
        "k-means++ seeding overflowed: squared distances exceed the float "
        "range; rescale X")


def spread_centroids(k: int, d: int, low: float = -1.0, high: float = 1.0,
                     seed: RngLike = 0) -> np.ndarray:
    """Uniform random centroids in a box — for cost benchmarks where only
    the (k, d) shape matters, not clustering quality."""
    if k < 1 or d < 1:
        raise ConfigurationError(f"k and d must be >= 1, got k={k}, d={d}")
    rng = _as_rng(seed)
    return rng.uniform(low, high, size=(k, d))
