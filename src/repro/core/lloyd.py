"""Serial Lloyd algorithm — the correctness reference for every level.

This is the textbook two-step iteration the paper builds on (section II.B.2):

1. **Assign**: ``a(i) = argmin_j dis(x_i, c_j)``
2. **Update**: ``c_j = mean of samples assigned to j``

The partitioned Level 1/2/3 executors must reproduce this trajectory exactly
(same assignments, same centroids within fp tolerance) for any feasible
configuration; the integration tests enforce it.
"""

from __future__ import annotations

import warnings
from typing import List, Optional

import numpy as np

from ..errors import (
    ConfigurationError,
    ConvergenceWarning,
    NumericalFaultError,
)
from ..runtime.engine import EngineLike, resolve_engine
from ..runtime.ledger import NullLedger
from ..runtime.reduce import ReduceLike, resolve_reduce, scatter_bounds
from ..runtime.supervisor import SupervisorLike, resolve_supervisor
from ._common import (
    DEFAULT_CHUNK_ELEMENTS,
    chunk_ranges,
    inertia,
    max_centroid_shift,
    update_centroids,
    validate_data,
)
from .block_tasks import map_assign
from .bounds import BlockBounds
from .checkpoint import CheckpointConfig, CheckpointStore
from .kernels import KernelLike, PrunedKernel, resolve_kernel
from .result import IterationStats, KMeansResult


def lloyd(X: np.ndarray, centroids: np.ndarray, max_iter: int = 100,
          tol: float = 0.0, chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
          kernel: Optional[KernelLike] = None, engine: EngineLike = None,
          workers: Optional[int] = None, reduce: ReduceLike = None,
          empty_action: str = "keep",
          deadline_s: Optional[float] = None,
          watchdog_s: Optional[float] = None,
          supervisor: SupervisorLike = None,
          checkpoint_every: Optional[int] = None,
          checkpoint_dir: Optional[str] = None,
          resume: bool = False,
          integrity: Optional[str] = None) -> KMeansResult:
    """Run serial Lloyd k-means from an explicit initial centroid set.

    Parameters
    ----------
    X:
        (n, d) samples.
    centroids:
        (k, d) initial centroids (not mutated).
    max_iter:
        Iteration cap.
    tol:
        Stop when the largest per-centroid L2 movement is <= tol.  The
        paper's loop runs "until each c_j is fixed", i.e. tol = 0.
    chunk_elements:
        Bound on the transient distance-matrix working set.
    kernel:
        Compute backend for the Assign step ("naive", "gemm", or
        "pruned"; see :mod:`repro.core.kernels`).  None consults
        ``REPRO_KERNEL``.  The pruned backend carries per-sample bounds
        across iterations (invalidated on resume) and is bit-identical
        to "naive", near ties included.
    engine:
        Host execution engine ("serial", "thread", or "process"; see
        :mod:`repro.runtime.engine`).  Shards the fused Assign+Accumulate
        pass over a thread pool or over shared-memory worker processes
        without changing the numbers.
    workers:
        Worker count for the thread or process engine (implies
        ``engine="thread"`` when > 1 and ``engine`` is unset).
    reduce:
        Reduction topology merging the per-shard partials (``"serial"``,
        ``"tree"``, or a :class:`~repro.runtime.reduce.ReduceTopology`
        instance; see :mod:`repro.runtime.reduce`).  None consults
        ``REPRO_REDUCE``.  The serial default folds in shard order —
        bit-identical to the historical loop; the tree runs pairwise
        combines as engine tasks, bit-identical across engines and worker
        counts for a fixed topology.
    empty_action:
        Empty-cluster rule for the Update step (``"keep"`` or
        ``"reseed_farthest"``; see
        :func:`~repro.core._common.update_centroids`).
    deadline_s:
        Wall-clock budget in *real* seconds; the run aborts with
        :class:`~repro.errors.DeadlineExceededError` at the first
        iteration boundary past it.  None consults ``REPRO_DEADLINE``.
    watchdog_s:
        Per-iteration real-time threshold; slower iterations are flagged
        as ``slow_iteration`` host events.
    supervisor:
        Full :class:`~repro.runtime.supervisor.RunSupervisor` instance
        overriding ``deadline_s``/``watchdog_s``.
    checkpoint_every:
        Snapshot ``(iteration, centroids)`` every this many iterations.
        Level 0 has no time ledger, so nothing is charged — the knob only
        matters together with ``checkpoint_dir``.
    checkpoint_dir:
        Persist every snapshot durably to ``checkpoint_dir/checkpoint.npz``
        (atomic write-tmp → fsync → rename) so a killed process can
        ``resume``.
    resume:
        Restart from the snapshot in ``checkpoint_dir`` (required) instead
        of ``centroids``; the continuation is bit-identical to the
        uninterrupted run.
    integrity:
        Data-integrity mode (``"off"``, ``"verify"``, or ``"repair"``;
        see :mod:`repro.runtime.integrity`).  None consults
        ``REPRO_INTEGRITY``.  ``verify`` detects silently corrupted
        reduction partials, shared operands, and checkpoint bytes
        (raising :class:`~repro.errors.IntegrityError`); ``repair``
        recomputes the corrupted unit so runs under bitflip chaos finish
        bit-identical to fault-free ones.

    Returns
    -------
    KMeansResult with level = 0 and no time ledger.
    """
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    if tol < 0:
        raise ConfigurationError(f"tol must be >= 0, got {tol}")
    if resume and checkpoint_dir is None:
        raise ConfigurationError(
            "resume=True needs checkpoint_dir= (there is no on-disk "
            "snapshot to resume from otherwise)"
        )
    backend = resolve_kernel(kernel)
    exec_engine = resolve_engine(engine, workers, integrity=integrity)
    topology = resolve_reduce(reduce)
    run_supervisor = resolve_supervisor(supervisor, deadline_s, watchdog_s)
    # Level 0 has no time ledger: the NullLedger swallows the modelled
    # checkpoint charges, leaving only the durable host-side persistence.
    # The store shares the engine's chaos injector and integrity mode so
    # bitflip_checkpoint plans reach the durable writes and resumes verify.
    checkpoints = CheckpointStore(CheckpointConfig(every=checkpoint_every),
                                  NullLedger(), directory=checkpoint_dir,
                                  chaos=exec_engine.chaos,
                                  integrity=exec_engine.integrity,
                                  record=run_supervisor.record)
    X, C = validate_data(X, np.array(centroids, copy=True))
    n = X.shape[0]

    start_iteration = 0
    if resume:
        C, start_iteration = checkpoints.resume(C)
    if start_iteration == 0:
        checkpoints.save_initial(C)
    # Pruned bound state is created *after* any resume restore: the carrier
    # starts invalid, so the first (possibly resumed) iteration establishes
    # the bounds from scratch — nothing stale survives a restart (D107).
    pruned_bounds = (BlockBounds() if isinstance(backend, PrunedKernel)
                     else None)

    # Shard boundaries come from the backend's own chunk policy: a function
    # of the problem shape only, never of the engine or worker count.
    blocks = list(chunk_ranges(n, backend.chunk_rows(
        n, C.shape[0], X.shape[1], chunk_elements)))

    run_supervisor.start()
    history: List[IterationStats] = []
    assignments = np.full(n, -1, dtype=np.int64)
    converged = False
    it = start_iteration
    shift = np.inf
    for it in range(start_iteration + 1, max_iter + 1):
        run_supervisor.begin_iteration(it)
        merged, partials, new_assignments, best_d2 = map_assign(
            exec_engine, backend, X, C, blocks, topology,
            bounds=pruned_bounds, chunk_elements=chunk_elements)
        if pruned_bounds is not None:
            # Level 0 has no fault loop, so there is no half-commit hazard:
            # the fresh bounds are adopted at once.
            lb = np.empty(n, dtype=np.float64)
            scatter_bounds(partials, lb)
            pruned_bounds.commit(C, new_assignments, best_d2, lb)
        # The per-block payloads must not outlive the iteration.
        del partials
        new_C = update_centroids(merged.sums, merged.counts, C,
                                 empty_action=empty_action,
                                 X=X, best_d2=best_d2)
        run_supervisor.absorb(exec_engine)
        # Numerical guard: level 0 has no recovery loop, so a poisoned
        # partial (e.g. host-side corruption at the engine seam) fails
        # loudly here instead of converging to garbage.
        if not np.isfinite(new_C).all():
            raise NumericalFaultError(
                f"non-finite centroids after the iteration {it} Update "
                f"step", iteration=it,
            )

        shift = max_centroid_shift(C, new_C)
        n_reassigned = int((new_assignments != assignments).sum())
        history.append(IterationStats(
            iteration=it,
            # Mean winning squared distance under the incoming C — the same
            # objective the einsum re-pass computed, without the extra
            # O(n d) sweep.
            inertia=float(best_d2.sum() / n),
            centroid_shift=shift,
            n_reassigned=n_reassigned,
        ))
        assignments = new_assignments
        C = new_C
        run_supervisor.end_iteration(it)
        if shift <= tol:
            converged = True
            break
        checkpoints.maybe_save(it, C)

    if not converged and history:
        warnings.warn(
            f"lloyd did not converge in {max_iter} iterations (last "
            f"centroid shift {history[-1].centroid_shift:.3g} > tol "
            f"{tol:g}); consider raising max_iter",
            ConvergenceWarning,
            stacklevel=2,
        )

    # Final objective under the final C.  At an exact fixed point
    # (shift == 0) the held assignments *are* the nearest-centroid labels
    # for the final C, so the O(n d) einsum suffices with no extra Assign
    # pass.  A tol > 0 stop (or max_iter exhaustion) halts one Update past
    # the last Assign, so the held labels may be stale against the final C
    # — recompute them for the objective only, keeping result.inertia the
    # true O(C) as before.  result.assignments stays the last-Assign labels
    # in every case.
    if (assignments < 0).any():
        # A resume at start_iteration >= max_iter runs zero iterations;
        # label against the restored centroids so the result is usable.
        assignments = backend.assign(X, C, chunk_elements)
    if converged and shift == 0.0:
        final_inertia = inertia(X, C, assignments)
    else:
        final_inertia = inertia(X, C, backend.assign(X, C, chunk_elements))

    return KMeansResult(
        centroids=C,
        assignments=assignments,
        inertia=final_inertia,
        n_iter=it,
        converged=converged,
        history=history,
        ledger=None,
        level=0,
        host_events=list(run_supervisor.events),
    )


def lloyd_single_iteration(X: np.ndarray, centroids: np.ndarray,
                           chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
                           kernel: Optional[KernelLike] = None,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """One Assign+Update step; returns (assignments, new_centroids).

    Handy for comparing a parallel executor's single-iteration output
    against the reference without running to convergence.
    """
    X, C = validate_data(X, centroids)
    assignments, _, sums, counts = resolve_kernel(kernel).assign_accumulate(
        X, C, chunk_elements)
    return assignments, update_centroids(sums, counts, C)
