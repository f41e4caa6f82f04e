"""Serial Lloyd algorithm — the correctness reference for every level.

This is the textbook two-step iteration the paper builds on (section II.B.2):

1. **Assign**: ``a(i) = argmin_j dis(x_i, c_j)``
2. **Update**: ``c_j = mean of samples assigned to j``

:class:`LloydExecutor` is Level 0 of the one iteration driver
(:class:`~repro.core.executor_base.LevelExecutor`): no machine is
simulated, and the Assign sweep runs over the kernel's own chunks.  The
partitioned Level 1–3 executors must reproduce its trajectory exactly
(same assignments, same centroids within fp tolerance) for any feasible
configuration; the integration tests enforce it.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Optional, Tuple

import numpy as np

from ..machine.machine import Machine
from ..runtime.engine import EngineLike
from ..runtime.reduce import ReduceLike
from ..runtime.supervisor import SupervisorLike
from ._common import DEFAULT_CHUNK_ELEMENTS, chunk_ranges, validate_data
from .executor_base import MACHINE_KEYWORDS, LevelExecutor
from .kernels import KernelLike
from .result import KMeansResult


class LloydExecutor(LevelExecutor):
    """Level 0: serial Lloyd on the host, pricing nothing.

    The blocks are the kernel's :func:`~repro.core._common.chunk_ranges`
    for ``chunk_elements`` — a function of the problem shape only, never
    of the engine or worker count — and every task and the final re-label
    keep that working-set bound.  ``machine`` is ignored: Level 0
    simulates none, takes none of the machine keywords, and its result
    carries no ledger.
    """

    level = 0

    def __init__(self, machine: Optional[Machine] = None,
                 chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
                 **kwargs: Any) -> None:
        self.check_keywords(kwargs)
        super().__init__(None, **kwargs)
        self.chunk_elements = self.relabel_chunk_elements = chunk_elements
        self._blocks: List[Tuple[int, int]] = []

    @classmethod
    def keywords(cls) -> FrozenSet[str]:
        return super().keywords() - MACHINE_KEYWORDS

    def setup(self, X: np.ndarray, C: np.ndarray) -> None:
        n, d = X.shape
        self._blocks = list(chunk_ranges(n, self.kernel.chunk_rows(
            n, C.shape[0], d, self.chunk_elements)))

    def iterate(self, X: np.ndarray, C: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        merged, partials, assignments, best_d2 = self._map_assign(
            X, C, self._blocks, self.reduce,
            chunk_elements=self.chunk_elements)
        new_C = self.update_step(merged.sums, merged.counts, C,
                                 X=X, best_d2=best_d2)
        if self.kernel.name == "pruned":
            self._commit_pruned_state(C, assignments, best_d2, merged,
                                      partials)
        return assignments, new_C


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
        bit-identical to the historical loop; the tree merges pairwise.
        Both fold inline, bit-identical across engines and worker counts
        for a fixed topology.
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
    return LloydExecutor(
        chunk_elements=chunk_elements, kernel=kernel, engine=engine,
        workers=workers, reduce=reduce, empty_action=empty_action,
        deadline_s=deadline_s, watchdog_s=watchdog_s, supervisor=supervisor,
        checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
        resume=resume, integrity=integrity,
    ).run(X, centroids, max_iter=max_iter, tol=tol)


def lloyd_single_iteration(X: np.ndarray, centroids: np.ndarray,
                           chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
                           kernel: Optional[KernelLike] = None,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """One Assign+Update step; returns (assignments, new_centroids).

    Handy for comparing a parallel executor's single-iteration output
    against the reference without running to convergence.  It is one
    :class:`LloydExecutor` step — the blocks, merge and Update of
    :func:`lloyd` — so it equals ``lloyd(X, centroids, max_iter=1,
    ...)`` bitwise.
    """
    X, C = validate_data(X, centroids)
    executor = LloydExecutor(chunk_elements=chunk_elements, kernel=kernel)
    executor.setup(X, C)
    return executor.iterate(X, C)
