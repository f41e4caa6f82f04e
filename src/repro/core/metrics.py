"""Clustering quality metrics.

The paper deliberately excludes solution quality from its evaluation ("the
quality of the solution (precision) are not considered"), but a usable
library needs it: the land-cover application (Figure 10) and downstream
users must be able to score a clustering.  Implemented here:

* ``purity``                  — fraction of samples whose cluster's majority
  label matches their own,
* ``normalized_mutual_info``  — NMI between assignment and ground truth,
* ``adjusted_rand_index``     — chance-corrected pair-counting agreement,
* ``silhouette_score``        — cohesion vs separation, with sampling so it
  stays tractable at large n,
* ``davies_bouldin``          — ratio of within-cluster scatter to
  between-centroid separation (lower is better).

All metrics are pure NumPy, vectorised, and validated against hand-worked
examples in the tests (no sklearn dependency).

The paper takes k as given (its subject is scale, not model selection),
but a library user's first question is "what k?", and the second is
whether the answer is stable.  On top of the facade:

* ``inertia_sweep``       — final inertia per k (optionally multi-restart);
  ``best_k`` is the knee of the curve,
* ``knee_point``          — the Kneedle-style maximum-distance-to-chord
  rule on an inertia curve,
* ``silhouette_sweep``    — mean silhouette per k for small/medium n,
* ``bootstrap_stability`` — refit on bootstrap subsamples and score each
  refit's agreement (ARI) with the full-data clustering on the shared
  points: a high mean ARI is stable structure, near zero is k-means
  carving noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, DataShapeError
from ..machine.machine import Machine
from ._common import assign_chunked, squared_distances
from .kmeans import HierarchicalKMeans


def _validate_labels(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise DataShapeError(
            f"label arrays must have equal length, got {a.shape} vs {b.shape}"
        )
    if a.size == 0:
        raise DataShapeError("label arrays must be non-empty")
    return a.astype(np.int64), b.astype(np.int64)


def contingency(assignments: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Contingency table N[c, t] = #samples in cluster c with true label t."""
    a, t = _validate_labels(assignments, truth)
    if a.min() < 0 or t.min() < 0:
        raise ConfigurationError("labels must be non-negative integers")
    n_clusters = int(a.max()) + 1
    n_classes = int(t.max()) + 1
    table = np.zeros((n_clusters, n_classes), dtype=np.int64)
    np.add.at(table, (a, t), 1)
    return table


def purity(assignments: np.ndarray, truth: np.ndarray) -> float:
    """Weighted majority-label agreement in [0, 1]."""
    table = contingency(assignments, truth)
    return float(table.max(axis=1).sum() / table.sum())


def normalized_mutual_info(assignments: np.ndarray,
                           truth: np.ndarray) -> float:
    """NMI with arithmetic-mean normalisation, in [0, 1].

    Degenerate partitions (a single cluster or a single class) have zero
    entropy on one side; we return 0.0 there, matching the convention that
    a constant labelling carries no information.
    """
    table = contingency(assignments, truth).astype(np.float64)
    n = table.sum()
    pxy = table / n
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    nz = pxy > 0
    outer = np.outer(px, py)
    mi = float((pxy[nz] * np.log(pxy[nz] / outer[nz])).sum())
    hx = float(-(px[px > 0] * np.log(px[px > 0])).sum())
    hy = float(-(py[py > 0] * np.log(py[py > 0])).sum())
    denom = 0.5 * (hx + hy)
    if denom <= 0:
        return 0.0
    return max(0.0, min(1.0, mi / denom))


def adjusted_rand_index(assignments: np.ndarray, truth: np.ndarray) -> float:
    """Hubert & Arabie's adjusted Rand index in [-1, 1]."""
    table = contingency(assignments, truth).astype(np.float64)
    n = table.sum()

    def comb2(x: np.ndarray) -> np.ndarray:
        return x * (x - 1.0) / 2.0

    sum_comb = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(np.array(n))
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0 if sum_comb == expected else 0.0
    return float((sum_comb - expected) / (max_index - expected))


def silhouette_score(X: np.ndarray, assignments: np.ndarray,
                     sample_size: Optional[int] = 2000,
                     seed: int = 0) -> float:
    """Mean silhouette coefficient in [-1, 1].

    For each sample: ``(b - a) / max(a, b)`` where a is the mean distance to
    its own cluster and b the smallest mean distance to another cluster.
    Distances are Euclidean.  With ``sample_size`` set (default 2000) the
    score is estimated on a uniform subsample — exact pairwise silhouettes
    are O(n^2) and the paper-scale n makes that pointless.
    """
    X = np.asarray(X, dtype=np.float64)
    a = np.asarray(assignments).ravel()
    if X.ndim != 2 or X.shape[0] != a.shape[0]:
        raise DataShapeError(
            f"X {X.shape} and assignments {a.shape} do not agree"
        )
    labels = np.unique(a)
    if labels.size < 2:
        raise ConfigurationError(
            "silhouette needs at least 2 populated clusters"
        )
    n = X.shape[0]
    if sample_size is not None and n > sample_size:
        rng = np.random.default_rng(seed)
        idx = rng.choice(n, size=sample_size, replace=False)
    else:
        idx = np.arange(n)

    # Mean distance from each probe point to every cluster.
    probes = X[idx]
    probe_labels = a[idx]
    scores = np.empty(len(idx))
    mean_dist = np.empty((len(idx), labels.size))
    counts = np.empty(labels.size)
    for j, lab in enumerate(labels):
        members = X[a == lab]
        counts[j] = members.shape[0]
        d = np.sqrt(np.maximum(squared_distances(probes, members), 0.0))
        mean_dist[:, j] = d.mean(axis=1)
    for i in range(len(idx)):
        j_own = int(np.searchsorted(labels, probe_labels[i]))
        own_count = counts[j_own]
        if own_count <= 1:
            scores[i] = 0.0
            continue
        # Correct the own-cluster mean for the self-distance (0 included).
        a_i = mean_dist[i, j_own] * own_count / (own_count - 1)
        b_i = np.min(np.delete(mean_dist[i], j_own))
        denom = max(a_i, b_i)
        scores[i] = 0.0 if denom == 0 else (b_i - a_i) / denom
    return float(scores.mean())


def davies_bouldin(X: np.ndarray, assignments: np.ndarray,
                   centroids: np.ndarray) -> float:
    """Davies-Bouldin index (lower is better, >= 0).

    ``max_j (s_i + s_j) / d(c_i, c_j)`` averaged over clusters, where s is
    the mean distance of members to their centroid.  Empty clusters are
    skipped.
    """
    X = np.asarray(X, dtype=np.float64)
    a = np.asarray(assignments).ravel()
    C = np.asarray(centroids, dtype=np.float64)
    populated = [j for j in range(C.shape[0]) if (a == j).any()]
    if len(populated) < 2:
        raise ConfigurationError(
            "Davies-Bouldin needs at least 2 populated clusters"
        )
    scatters = np.array([
        np.sqrt(np.maximum(
            squared_distances(X[a == j], C[j:j + 1]), 0.0)).mean()
        for j in populated
    ])
    centres = C[populated]
    sep = np.sqrt(np.maximum(squared_distances(centres, centres), 0.0))
    ratios = np.zeros(len(populated))
    for i in range(len(populated)):
        others = [j for j in range(len(populated)) if j != i]
        ratios[i] = max(
            (scatters[i] + scatters[j]) / sep[i, j]
            for j in others if sep[i, j] > 0
        )
    return float(ratios.mean())


# ---------------------------------------------------------------------------
# choosing k and checking stability
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """Outcome of a model-selection sweep over k."""

    ks: List[int]
    scores: List[float]
    #: k suggested by the selection rule (knee / max silhouette).
    best_k: Optional[int] = None
    extras: Dict[int, object] = field(default_factory=dict)


def _validate_ks(ks: Sequence[int], n: int) -> List[int]:
    ks = [int(k) for k in ks]
    if not ks:
        raise ConfigurationError("ks must be non-empty")
    if sorted(ks) != ks or len(set(ks)) != len(ks):
        raise ConfigurationError("ks must be strictly increasing")
    if ks[0] < 1 or ks[-1] > n:
        raise ConfigurationError(f"ks must lie in [1, n={n}]")
    return ks


def inertia_sweep(X: np.ndarray, ks: Sequence[int],
                  machine: Optional[Machine] = None, n_init: int = 1,
                  seed: int = 0, max_iter: int = 60) -> SweepResult:
    """Final inertia per k; ``best_k`` is the knee of the curve."""
    X = np.asarray(X)
    ks = _validate_ks(ks, X.shape[0])
    scores: List[float] = []
    for k in ks:
        model = HierarchicalKMeans(k, machine=machine, init="kmeans++",
                                   n_init=n_init, seed=seed,
                                   max_iter=max_iter)
        scores.append(model.fit(X).inertia)
    best = knee_point(ks, scores) if len(ks) >= 3 else None
    return SweepResult(ks=ks, scores=scores, best_k=best)


def knee_point(ks: Sequence[int], inertias: Sequence[float]) -> int:
    """Elbow rule: the k whose point is farthest below the first-last chord.

    Works on any convex-ish decreasing curve; returns one of ``ks``.
    """
    if len(ks) != len(inertias) or len(ks) < 3:
        raise ConfigurationError(
            "need >= 3 aligned (k, inertia) points for a knee"
        )
    x = np.asarray(ks, dtype=np.float64)
    y = np.asarray(inertias, dtype=np.float64)
    # Normalise both axes so the chord geometry is scale-free.
    x_n = (x - x[0]) / max(x[-1] - x[0], 1e-30)
    y_n = (y - y[-1]) / max(y[0] - y[-1], 1e-30)
    # Distance below the (0,1)-(1,0) chord: 1 - x - y, maximised at the knee.
    gap = 1.0 - x_n - y_n
    return int(x[int(np.argmax(gap))])


def silhouette_sweep(X: np.ndarray, ks: Sequence[int],
                     machine: Optional[Machine] = None, seed: int = 0,
                     max_iter: int = 60,
                     sample_size: Optional[int] = 1000) -> SweepResult:
    """Mean silhouette per k; ``best_k`` maximises it.

    ks must start at 2 or above (silhouette is undefined for one cluster).
    """
    X = np.asarray(X)
    ks = _validate_ks(ks, X.shape[0])
    if ks[0] < 2:
        raise ConfigurationError("silhouette needs k >= 2")
    scores: List[float] = []
    for k in ks:
        model = HierarchicalKMeans(k, machine=machine, init="kmeans++",
                                   seed=seed, max_iter=max_iter)
        result = model.fit(X)
        scores.append(silhouette_score(X, result.assignments,
                                       sample_size=sample_size, seed=seed))
    best = ks[int(np.argmax(scores))]
    return SweepResult(ks=list(ks), scores=scores, best_k=best)


@dataclass(frozen=True)
class StabilityReport:
    """Bootstrap agreement scores for one (X, k) clustering."""

    k: int
    n_rounds: int
    scores: List[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.scores))

    @property
    def std(self) -> float:
        return float(np.std(self.scores))

    @property
    def stable(self) -> bool:
        """Rule of thumb: mean bootstrap ARI above 0.7."""
        return self.mean > 0.7


def bootstrap_stability(X: np.ndarray, k: int,
                        machine: Optional[Machine] = None,
                        n_rounds: int = 10, subsample: float = 0.8,
                        seed: int = 0, max_iter: int = 50
                        ) -> StabilityReport:
    """Score clustering stability under bootstrap subsampling.

    Parameters
    ----------
    n_rounds:
        Number of bootstrap refits.
    subsample:
        Fraction of samples drawn (without replacement) per round.

    Returns
    -------
    StabilityReport with one ARI per round: agreement between the
    reference clustering's assignment of the subsample and the refit
    clustering of that subsample.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ConfigurationError(f"X must be 2-D, got {X.shape}")
    if n_rounds < 1:
        raise ConfigurationError(f"n_rounds must be >= 1, got {n_rounds}")
    if not 0.0 < subsample <= 1.0:
        raise ConfigurationError(
            f"subsample must be in (0, 1], got {subsample}"
        )
    n = X.shape[0]
    m = max(k, int(round(subsample * n)))
    if m > n:
        raise ConfigurationError(
            f"subsample of {m} exceeds n={n} (k={k} floor)"
        )
    rng = np.random.default_rng(seed)

    reference = HierarchicalKMeans(k, machine=machine, init="kmeans++",
                                   seed=seed, max_iter=max_iter).fit(X)

    scores: List[float] = []
    for round_i in range(n_rounds):
        idx = rng.choice(n, size=m, replace=False)
        sub = X[idx]
        refit = HierarchicalKMeans(
            k, machine=machine, init="kmeans++",
            seed=seed + 1 + round_i, max_iter=max_iter,
        ).fit(sub)
        ref_labels = assign_chunked(sub, reference.centroids)
        scores.append(adjusted_rand_index(refit.assignments, ref_labels))
    return StabilityReport(k=k, n_rounds=n_rounds, scores=scores)
