"""Module-level block tasks — the picklable unit of work for every engine.

The executors used to hand closures to ``engine.map``: convenient
in-process, but a closure cannot cross a process boundary (pickle refuses
it), and writing output slices from inside a task only works when the task
shares the caller's address space.  This module replaces the idiom with
small picklable task records plus module-level functions over them:

* operands arrive as :data:`~repro.runtime.shm.ArrayLike` — a plain
  ndarray under the in-process engines, an
  :class:`~repro.runtime.shm.ArrayRef` into shared memory under the
  process engine — and every task resolves them through
  :func:`~repro.runtime.shm.as_ndarray`, so the task body is
  engine-agnostic;
* results come back as :class:`~repro.runtime.reduce.BlockPartial` —
  compact ``(sums, counts, labels)`` payloads merged under the reduction
  topology, with the labels scattered parent-side by
  :func:`~repro.runtime.reduce.scatter_labels` in fixed block order;
* kernels travel by *registry name* (:func:`kernel_token`): the gemm
  backend carries a ``threading.local`` scratch buffer that cannot
  pickle, so workers re-resolve the name against a per-process cache
  instead.

:func:`map_assign` is the one place a Lloyd iteration reaches the engine:
every level's executor, Level 0 (``lloyd``) included, fans its Assign step
out through it.  Reprolint rule W604 enforces the discipline statically:
callables reaching ``engine.map``/``map_reduce`` must be module-level,
like the ``*_block`` functions here.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..runtime.reduce import (
    BlockPartial,
    PrunedPartial,
    ReduceTopology,
    scatter_labels,
)
from ..runtime.shm import ArrayLike, as_ndarray
from ._common import accumulate, squared_distances
from .bounds import BlockBounds, certified_bounds
from .kernels import (
    KERNELS,
    KernelBackend,
    KernelLike,
    PrunedKernel,
    resolve_kernel,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..runtime.engine import ExecutionEngine

__all__ = [
    "FusedAssignTask",
    "PrunedAssignTask",
    "StrictAssign",
    "StrictTask",
    "fused_assign_block",
    "kernel_token",
    "map_assign",
    "pruned_assign_block",
    "strict_block",
    "strict_l2_assign",
    "strict_l3_assign",
]

#: Per-process cache of kernel backends resolved from registry names, so a
#: worker builds (and keeps its scratch buffers in) one backend per name
#: rather than one per task.
_KERNEL_CACHE: Dict[str, KernelBackend] = {}


def kernel_token(backend: KernelBackend) -> KernelLike:
    """The picklable form of a kernel backend for shipping inside tasks.

    Registry-named backends travel as their name (a few bytes, and the
    worker's cached instance keeps its scratch warm across tasks); an
    unregistered custom instance passes through as-is — it works on the
    in-process engines and fails loudly at pickle time on the process
    engine, which is the honest outcome.
    """
    return backend.name if backend.name in KERNELS else backend


def _kernel(token: KernelLike) -> KernelBackend:
    if isinstance(token, KernelBackend):
        return token
    backend = _KERNEL_CACHE.get(token)
    if backend is None:
        backend = resolve_kernel(token)
        _KERNEL_CACHE[token] = backend
    return backend


class FusedAssignTask:
    """One block of the fused Assign+Accumulate sweep (Levels 0–3).

    ``chunk_elements=None`` uses the kernel's default chunk policy — the
    Level 1–3 path, where the block *is* one planned unit of work; the
    Level-0 :class:`~repro.core.lloyd.LloydExecutor` passes ``lloyd``'s
    explicit bound through.
    """

    __slots__ = ("x", "c", "lo", "hi", "kernel", "chunk_elements")

    def __init__(self, x: ArrayLike, c: ArrayLike, lo: int, hi: int,
                 kernel: KernelLike, chunk_elements: Optional[int] = None
                 ) -> None:
        self.x = x
        self.c = c
        self.lo = int(lo)
        self.hi = int(hi)
        self.kernel = kernel
        self.chunk_elements = chunk_elements


def fused_assign_block(task: FusedAssignTask) -> BlockPartial:
    """Fused assign+accumulate over one sample block; the hot-path task."""
    X = as_ndarray(task.x)
    C = as_ndarray(task.c)
    backend = _kernel(task.kernel)
    block = X[task.lo:task.hi]
    if task.chunk_elements is None:
        idx, best, sums, counts = backend.assign_accumulate(block, C)
    else:
        idx, best, sums, counts = backend.assign_accumulate(
            block, C, task.chunk_elements)
    return BlockPartial(sums, counts, task.lo, task.hi, idx, best)


class PrunedAssignTask:
    """One block of the bounds-carrying pruned sweep.

    The carried per-sample state (``labels``/``d2``/``lb``) arrives as
    *full-length* shared operands — the task slices its own ``[lo, hi)``
    window, exactly like the samples — so the process engine ships one
    shared-memory segment per array instead of per-block pickles.  The
    neighbour table (``near``/``near_lb``) is shared the same way, once
    per iteration for every block; the k-sized drift and separation
    vectors are small enough to travel inline.  ``labels is None`` marks
    an establishment sweep (no valid carried state: first iteration,
    post-restore, post-replan).
    """

    __slots__ = ("x", "c", "labels", "d2", "lb", "drift", "s", "near",
                 "near_lb", "lo", "hi", "kernel", "chunk_elements")

    def __init__(self, x: ArrayLike, c: ArrayLike,
                 labels: Optional[ArrayLike], d2: Optional[ArrayLike],
                 lb: Optional[ArrayLike], drift: Optional[np.ndarray],
                 s: Optional[np.ndarray], near: Optional[ArrayLike],
                 near_lb: Optional[ArrayLike], lo: int, hi: int,
                 kernel: KernelLike,
                 chunk_elements: Optional[int] = None) -> None:
        self.x = x
        self.c = c
        self.labels = labels
        self.d2 = d2
        self.lb = lb
        self.drift = drift
        self.s = s
        self.near = near
        self.near_lb = near_lb
        self.lo = int(lo)
        self.hi = int(hi)
        self.kernel = kernel
        self.chunk_elements = chunk_elements


def pruned_assign_block(task: PrunedAssignTask) -> PrunedPartial:
    """Bounded assign+accumulate over one sample block.

    Pure: the carried state is read-only (the kernel copies before
    updating), so an engine-level retry re-runs from unpoisoned inputs.
    """
    X = as_ndarray(task.x)
    C = as_ndarray(task.c)
    backend = _kernel(task.kernel)
    if not isinstance(backend, PrunedKernel):
        raise TypeError(
            f"PrunedAssignTask needs the pruned kernel, got "
            f"{type(backend).__name__}"
        )
    block = X[task.lo:task.hi]
    kwargs: Dict[str, int] = {}
    if task.chunk_elements is not None:
        kwargs["chunk_elements"] = task.chunk_elements
    if task.labels is None:
        idx, best, sums, counts, lb, n_dist = backend.establish(
            block, C, **kwargs)
    else:
        labels = as_ndarray(task.labels)[task.lo:task.hi]
        d2 = as_ndarray(task.d2)[task.lo:task.hi]
        lb_in = as_ndarray(task.lb)[task.lo:task.hi]
        idx, best, sums, counts, lb, n_dist = (
            backend.assign_accumulate_pruned(
                block, C, labels, d2, lb_in, task.drift, task.s,
                as_ndarray(task.near), as_ndarray(task.near_lb), **kwargs))
    return PrunedPartial(sums, counts, task.lo, task.hi, idx, best,
                         lb=lb, n_dist=n_dist)


#: What Levels 2 and 3 hand :func:`map_assign` for a strict-CPE sweep: the
#: module-level winner function (:func:`strict_l2_assign` or
#: :func:`strict_l3_assign`) and the slice arguments it takes after
#: ``(block, C)``.
StrictAssign = Tuple[Callable[..., Tuple[np.ndarray, np.ndarray]],
                     Tuple[Any, ...]]


def map_assign(engine: "ExecutionEngine", kernel: KernelBackend,
               X: np.ndarray, C: np.ndarray,
               blocks: Sequence[Tuple[int, int]],
               topology: Optional[ReduceTopology],
               bounds: Optional[BlockBounds] = None,
               strict: Optional[StrictAssign] = None,
               chunk_elements: Optional[int] = None
               ) -> Tuple[Any, List[Any], np.ndarray, np.ndarray]:
    """One Assign+Accumulate sweep over ``blocks``, fanned out on ``engine``.

    The only engine call of a Lloyd iteration: Level 0 (``lloyd``) passes
    its kernel's chunk ranges, Levels 1–3 their plan's sample blocks and
    reduction topology.  Shares ``X`` and ``C``, builds one task per
    block — pruned when ``bounds`` is given, strict-CPE when ``strict``
    is, fused otherwise — merges the partials under ``topology``, and
    scatters the labels and winning squared distances in block order.
    The task list and the merge schedule are functions of ``blocks`` and
    ``topology`` alone, so the result is bit-identical across engines and
    worker counts.

    ``bounds`` is only read: the partials carry the fresh lower bounds,
    and the caller commits them once its iteration can no longer fault.
    Returns ``(merged, partials, labels, best_d2)``.
    """
    n = X.shape[0]
    labels = np.empty(n, dtype=np.int64)
    best_d2 = np.empty(n, dtype=X.dtype)
    # Publish the operands once per call (identity makes the X re-publish
    # free across iterations); under the in-process engines share() is the
    # array itself and the tasks see it by reference.
    x_ref = engine.share("X", X)
    c_ref = engine.share("C", C)
    token = kernel_token(kernel)
    fn: Callable[[Any], BlockPartial]
    tasks: List[Any]
    if strict is not None:
        fn = strict_block
        assign, slices = strict
        tasks = [StrictTask(x_ref, c_ref, lo, hi, C.shape[0], assign, slices)
                 for lo, hi in blocks]
    elif bounds is None:
        fn = fused_assign_block
        tasks = [FusedAssignTask(x_ref, c_ref, lo, hi, token, chunk_elements)
                 for lo, hi in blocks]
    else:
        fn = pruned_assign_block
        # No carried state marks an establishment sweep.
        carried: Tuple[Any, ...] = (None,) * 7
        if bounds.valid:
            # The three full-length bound arrays and the neighbour table,
            # built here once for every block, travel like X; the k-sized
            # drift and half-separations ride inline.
            drift, s, near, near_lb = certified_bounds(bounds.anchor, C)
            carried = (engine.share("pruned_labels", bounds.labels),
                       engine.share("pruned_d2", bounds.d2),
                       engine.share("pruned_lb", bounds.lb), drift, s,
                       engine.share("pruned_near", near),
                       engine.share("pruned_near_lb", near_lb))
        tasks = [PrunedAssignTask(x_ref, c_ref, *carried, lo, hi, token,
                                  chunk_elements)
                 for lo, hi in blocks]
    merged, partials = engine.map_reduce(fn, tasks, topology=topology,
                                         return_partials=True)
    scatter_labels(partials, labels, best_d2)
    return merged, partials, labels, best_d2


def strict_l2_assign(block: np.ndarray, C: np.ndarray,
                     centroid_slices: Sequence[Tuple[int, int]]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Strict Level-2 dataflow winner (index, squared distance) per sample.

    Each member CPE computes distances over its centroid slice and a
    slice-local argmin (Algorithm 2 line 9's a(i)'), then the MINLOC
    reduction (line 10) combines the mgroup partial winners.
    """
    b = block.shape[0]
    best_val = np.full(b, np.inf, dtype=np.float64)
    best_idx = np.zeros(b, dtype=np.int64)
    for lo, hi in centroid_slices:
        if lo == hi:
            continue
        d2 = squared_distances(block, C[lo:hi])
        local = np.argmin(d2, axis=1)
        vals = d2[np.arange(b), local]
        # Strict less-than keeps the lowest global index on ties, the
        # same rule np.argmin applies (slices are visited in index order).
        better = vals < best_val
        best_val[better] = vals[better]
        best_idx[better] = lo + local[better]
    return best_idx, best_val


def strict_l3_assign(block: np.ndarray, C: np.ndarray,
                     centroid_slices: Sequence[Tuple[int, int]],
                     dim_slices: Sequence[Tuple[int, int]]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Strict Level-3 dataflow winner (index, squared distance) per sample.

    Per-CPE partial distances over each dimension slice, the register-
    communication reduce (a plain sum over partials), a CG-local argmin,
    then the MINLOC over the group's member CGs.
    """
    b = block.shape[0]
    best_val = np.full(b, np.inf, dtype=np.float64)
    best_idx = np.zeros(b, dtype=np.int64)
    for lo_k, hi_k in centroid_slices:
        if lo_k == hi_k:
            continue
        slice_C = C[lo_k:hi_k]
        d2 = np.zeros((b, hi_k - lo_k), dtype=np.float64)
        for lo_d, hi_d in dim_slices:
            if lo_d == hi_d:
                continue
            diff = block[:, lo_d:hi_d, None] - slice_C.T[None, lo_d:hi_d, :]
            d2 += np.einsum("bdc,bdc->bc", diff, diff)
        local = np.argmin(d2, axis=1)
        vals = d2[np.arange(b), local]
        better = vals < best_val
        best_val[better] = vals[better]
        best_idx[better] = lo_k + local[better]
    return best_idx, best_val


class StrictTask:
    """One group's block under a strict-CPE dataflow (Level 2 or 3).

    ``assign`` is the level's module-level winner function, so the record
    pickles by reference; ``slices`` are its arguments after
    ``(block, C)`` — the centroid slices, plus the dimension slices at
    Level 3.
    """

    __slots__ = ("x", "c", "lo", "hi", "k", "assign", "slices")

    def __init__(self, x: ArrayLike, c: ArrayLike, lo: int, hi: int, k: int,
                 assign: Callable[..., Tuple[np.ndarray, np.ndarray]],
                 slices: Sequence[Sequence[Tuple[int, int]]]) -> None:
        self.x = x
        self.c = c
        self.lo = int(lo)
        self.hi = int(hi)
        self.k = int(k)
        self.assign = assign
        self.slices = tuple(tuple(part) for part in slices)


def strict_block(task: StrictTask) -> BlockPartial:
    X = as_ndarray(task.x)
    C = as_ndarray(task.c)
    block = X[task.lo:task.hi]
    idx, best = task.assign(block, C, *task.slices)
    sums, counts = accumulate(block, idx, task.k)
    return BlockPartial(sums, counts, task.lo, task.hi, idx, best)
