"""Mini-batch k-means [Sculley, WWW 2010] — the inexact streaming baseline.

The paper cites nested mini-batch k-means (Newling & Fleuret) among the
algorithmic alternatives to brute scaling; this module provides the classic
mini-batch variant as the library's inexact baseline: each step samples a
batch, assigns it against the current centroids, and moves each centroid
toward the batch members with a per-centroid learning rate ``1/count``.

Unlike Lloyd/Hamerly/Yinyang/Elkan this is an *approximation* — it trades
objective quality for touching only ``batch_size`` samples per step — so
its contract is different: the tests assert convergence-in-expectation
(inertia within a factor of Lloyd's) rather than trajectory equality.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core._common import (
    assign_chunked,
    inertia,
    max_centroid_shift,
    validate_data,
)
from ..core.result import IterationStats, KMeansResult
from ..errors import ConfigurationError


def minibatch(X: np.ndarray, centroids: np.ndarray, batch_size: int = 256,
              max_iter: int = 200, tol: float = 1e-4,
              seed: int | np.random.Generator | None = 0,
              ) -> KMeansResult:
    """Run mini-batch k-means.

    Parameters
    ----------
    batch_size:
        Samples drawn (with replacement across steps) per update.
    max_iter:
        Number of mini-batch steps.
    tol:
        Stop when the max centroid movement over a step drops below tol.
    seed:
        RNG for batch sampling.

    Returns
    -------
    KMeansResult with level = 0; assignments/inertia are computed once
    against the full dataset at the end.
    """
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    if batch_size < 1:
        raise ConfigurationError(
            f"batch_size must be >= 1, got {batch_size}"
        )
    if tol < 0:
        raise ConfigurationError(f"tol must be >= 0, got {tol}")
    X, C = validate_data(X, np.array(centroids, copy=True))
    n = X.shape[0]
    k = C.shape[0]
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)

    counts = np.zeros(k, dtype=np.int64)
    history: List[IterationStats] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        batch_idx = rng.integers(0, n, size=min(batch_size, n))
        batch = X[batch_idx]
        a = assign_chunked(batch, C)

        old_C = C.copy()
        # Per-centroid incremental mean update (Sculley's learning rate).
        for j in np.unique(a):
            members = batch[a == j]
            for x in members:
                counts[j] += 1
                eta = 1.0 / counts[j]
                C[j] = (1.0 - eta) * C[j] + eta * x

        shift = max_centroid_shift(old_C, C)
        history.append(IterationStats(
            iteration=it,
            inertia=float("nan"),   # full inertia not evaluated per step
            centroid_shift=shift,
            n_reassigned=0,
        ))
        if shift <= tol:
            converged = True
            break

    assignments = assign_chunked(X, C)
    return KMeansResult(
        centroids=C,
        assignments=assignments,
        inertia=inertia(X, C, assignments),
        n_iter=it,
        converged=converged,
        history=history,
        ledger=None,
        level=0,
    )
