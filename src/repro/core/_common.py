"""Shared numerical kernels for all k-means implementations.

Every level (serial Lloyd, Level 1/2/3 executors) funnels its arithmetic
through these helpers so that the partitioned implementations are numerically
comparable to the baseline: the same distance formulation, the same
tie-breaking (lowest centroid index wins), and the same empty-cluster rule
(an empty cluster keeps its previous centroid).

Kernels are vectorised NumPy with explicit chunking so the transient
``n x k`` distance block never exceeds a bounded working set — the in-memory
analogue of streaming samples through the LDM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, DataShapeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernels import KernelBackend

#: Number of distance-matrix elements a single chunk may hold.
DEFAULT_CHUNK_ELEMENTS = 4_000_000

#: Empty-cluster rules :func:`update_centroids` accepts.
EMPTY_ACTIONS = ("keep", "reseed_farthest")

#: Elements of the flat scatter-index temporary one accumulate pass may
#: build (bounds the int64 temp at ~128 MB).  Below this, accumulation is a
#: single ``np.bincount`` sweep and therefore bit-identical to the
#: element-at-a-time ``np.add.at`` it replaced; above it, per-chunk partials
#: merge in chunk order (fp-reassociation tolerance, like every sharded
#: reduction in this codebase).
ACCUMULATE_FLAT_ELEMENTS = 1 << 24


def validate_data(X: np.ndarray, C: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Check sample/centroid matrices agree; return them as float ndarrays."""
    X = np.ascontiguousarray(X)
    C = np.ascontiguousarray(C)
    if X.ndim != 2:
        raise DataShapeError(f"X must be 2-D (n, d), got shape {X.shape}")
    if C.ndim != 2:
        raise DataShapeError(f"C must be 2-D (k, d), got shape {C.shape}")
    if X.shape[1] != C.shape[1]:
        raise DataShapeError(
            f"dimension mismatch: samples have d={X.shape[1]}, "
            f"centroids have d={C.shape[1]}"
        )
    if X.shape[0] == 0:
        raise DataShapeError("X must contain at least one sample")
    if C.shape[0] == 0:
        raise DataShapeError("C must contain at least one centroid")
    if not np.issubdtype(X.dtype, np.floating):
        X = X.astype(np.float64)
    if C.dtype != X.dtype:
        C = C.astype(X.dtype)
    # Non-finite samples silently poison every distance, accumulator, and
    # centroid downstream; fail loudly at the door instead.
    if not np.isfinite(X).all():
        raise DataShapeError("X contains non-finite values (NaN or Inf)")
    if not np.isfinite(C).all():
        raise DataShapeError("C contains non-finite values (NaN or Inf)")
    return X, C


def squared_distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Dense squared Euclidean distances, shape (n, k).

    Uses the direct ``sum((x - c)^2)`` formulation (not the expanded
    ``|x|^2 - 2 x.c + |c|^2``) because the direct form is what the partitioned
    dimension slices compute and sum — keeping serial and Level-3 arithmetic
    on the same path.  The expanded form is available separately for the
    ablation benchmark.
    """
    # einsum keeps the temporaries small relative to broadcasting (n,k,d).
    diff = X[:, None, :] - C[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def squared_distances_expanded(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Expanded-form distances ``|x|^2 - 2 x.c + |c|^2`` (ablation kernel).

    One GEMM instead of an (n, k, d) temporary: faster, but numerically
    different from the direct form (catastrophic cancellation for near ties).
    """
    x_sq = np.einsum("nd,nd->n", X, X)
    c_sq = np.einsum("kd,kd->k", C, C)
    d2 = x_sq[:, None] - 2.0 * (X @ C.T) + c_sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def chunk_ranges(n: int, chunk: int) -> Iterator[Tuple[int, int]]:
    """Yield (start, stop) covering [0, n) in blocks of at most ``chunk``."""
    if chunk < 1:
        raise DataShapeError(f"chunk must be >= 1, got {chunk}")
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)


def assign_chunked(X: np.ndarray, C: np.ndarray,
                   chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
                   kernel: Optional["KernelBackend"] = None) -> np.ndarray:
    """Nearest-centroid assignment for every sample, bounded working set.

    Returns int64 indices; ties go to the lowest centroid index (np.argmin
    semantics), matching the deterministic hardware reduction trees of the
    simulated machine.

    A thin dispatcher into :meth:`~repro.core.kernels.KernelBackend.assign`
    (a backend name or instance); ``kernel=None`` is the naive direct-form
    reference, whatever ``REPRO_KERNEL`` says.
    """
    from .kernels import resolve_kernel  # late: kernels imports _common
    backend = resolve_kernel("naive" if kernel is None else kernel)
    return backend.assign(X, C, chunk_elements)


def assign_with_distances(X: np.ndarray, C: np.ndarray,
                          chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
                          kernel: Optional["KernelBackend"] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Assignments plus the squared distance to the winning centroid.

    A thin dispatcher into the kernel layer's
    :meth:`~repro.core.kernels.KernelBackend.assign_with_distances` — the
    chunking and tie-break logic lives there, in exactly one place.
    ``kernel=None`` keeps the historical behaviour (direct-form distances).
    """
    from .kernels import resolve_kernel  # late: kernels imports _common
    backend = resolve_kernel("naive" if kernel is None else kernel)
    return backend.assign_with_distances(X, C, chunk_elements)


def accumulate(X: np.ndarray, assignments: np.ndarray, k: int
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cluster vector sums and member counts.

    Implements lines 11-12 of the paper's Algorithm 1 (the two accumulated
    variables).  The scatter adds run as ``np.bincount`` over flattened
    (cluster, dimension) indices — one C-speed pass instead of the
    ``np.add.at`` buffered scatter it replaced (typically 10-50x faster on
    this path), accumulating element-for-element in the same sample order,
    so the sums are bit-identical as long as one pass suffices (see
    :data:`ACCUMULATE_FLAT_ELEMENTS`).
    """
    if assignments.shape[0] != X.shape[0]:
        raise DataShapeError(
            f"assignments length {assignments.shape[0]} != n {X.shape[0]}"
        )
    n, d = X.shape
    counts = np.zeros(k, dtype=np.int64)
    sums = np.zeros((k, d), dtype=np.float64)
    if n == 0:
        return sums, counts
    if assignments.min() < 0 or assignments.max() >= k:
        raise DataShapeError(
            f"assignments must lie in [0, {k}), got range "
            f"[{assignments.min()}, {assignments.max()}]"
        )
    counts += np.bincount(assignments, minlength=k)
    cols = np.arange(d, dtype=np.int64)
    rows = max(1, ACCUMULATE_FLAT_ELEMENTS // max(d, 1))
    for lo, hi in chunk_ranges(n, rows):
        flat = (assignments[lo:hi, None] * d + cols[None, :]).ravel()
        part = np.bincount(flat, weights=X[lo:hi].ravel(), minlength=k * d)
        if lo == 0 and hi == n:
            sums = part.reshape(k, d)
        else:
            sums += part.reshape(k, d)
    return sums, counts


def check_empty_action(empty_action: str) -> None:
    """``empty_action`` must name one of :data:`EMPTY_ACTIONS`."""
    if empty_action not in EMPTY_ACTIONS:
        raise ConfigurationError(
            f"empty_action must be one of {EMPTY_ACTIONS}, "
            f"got {empty_action!r}"
        )


def update_centroids(sums: np.ndarray, counts: np.ndarray,
                     previous: np.ndarray, empty_action: str = "keep",
                     X: np.ndarray = None,
                     best_d2: np.ndarray = None) -> np.ndarray:
    """New centroids = sums / counts, with a deterministic empty-cluster rule.

    The paper's Algorithm 1 line 15 divides unconditionally; a real run never
    hits count == 0 on its benchmarks, but a robust library must not emit
    NaNs.  Every level shares this rule so their trajectories agree.

    ``empty_action="keep"`` (the default, and the historical rule) leaves an
    empty cluster's previous centroid in place.  ``"reseed_farthest"``
    relocates each empty cluster onto the sample farthest from its winning
    centroid — the standard farthest-point re-seeding, made deterministic by
    a stable sort (equal distances break toward the lower sample index).  It
    needs ``X`` and the per-sample winning squared distances ``best_d2``;
    when only ``X`` is available the distances are recomputed, and this
    happens *only* when an empty cluster actually occurs, so the common path
    pays nothing.
    """
    check_empty_action(empty_action)
    counts = np.asarray(counts)
    new = np.array(previous, dtype=np.float64, copy=True)
    nonempty = counts > 0
    new[nonempty] = sums[nonempty] / counts[nonempty, None]
    if empty_action == "reseed_farthest" and not nonempty.all():
        if X is None:
            raise ConfigurationError(
                "empty_action='reseed_farthest' needs the samples X to "
                "reseed from"
            )
        if best_d2 is None:
            # Every executor passes its exact winning distances; only a
            # direct caller that omits them lands here, and only on the
            # rare empty-cluster iteration.
            _, best_d2 = assign_with_distances(X, previous)
        # Farthest samples first; kind="stable" pins the order of exact
        # distance ties to the lower sample index, keeping the rule
        # bit-reproducible across engines and worker counts.
        farthest = np.argsort(-np.asarray(best_d2), kind="stable")
        empty_idx = np.flatnonzero(~nonempty)
        picks = farthest[:len(empty_idx)]
        # k > n can leave more empty clusters than samples; the overflow
        # falls back to the keep rule.
        empty_idx = empty_idx[:len(picks)]
        new[empty_idx] = X[picks]
    return new.astype(previous.dtype, copy=False)


def inertia(X: np.ndarray, C: np.ndarray, assignments: np.ndarray) -> float:
    """Objective O(C): mean squared distance of samples to their centroid."""
    diff = X - C[assignments]
    return float(np.einsum("nd,nd->", diff, diff) / X.shape[0])


def max_centroid_shift(old: np.ndarray, new: np.ndarray) -> float:
    """Largest per-centroid L2 movement between two centroid sets."""
    return float(np.sqrt(((new - old) ** 2).sum(axis=1)).max())


def even_slices(total: int, parts: int) -> List[Tuple[int, int]]:
    """Split [0, total) into ``parts`` contiguous, balanced (start, stop).

    The first ``total % parts`` slices get one extra element.  Slices may be
    empty when parts > total — callers that cannot tolerate empty slices must
    validate at plan time.
    """
    if parts < 1:
        raise DataShapeError(f"parts must be >= 1, got {parts}")
    base, extra = divmod(total, parts)
    out: List[Tuple[int, int]] = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size))
        start += size
    return out
