"""Public facade: hierarchical k-means with automatic level selection.

:class:`HierarchicalKMeans` is the API a downstream user touches.  It picks
the cheapest partition level that fits the problem — the flexibility claim
of the paper's section III.D: low-dimensional small-k workloads run Level 1,
centroid-heavy workloads run Level 2, and only problems whose (k, d)
footprint exceeds a core group's memory pay for the full nkd partition.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Type, Union

import numpy as np

from ..analysis.envvars import ENV_CHECKPOINT_DIR, read_str
from ..errors import ConfigurationError, PartitionError
from ..machine.machine import Machine, sunway_machine
from ..runtime.engine import EngineLike, resolve_engine
from ..runtime.reduce import ReduceLike, resolve_reduce
from ..runtime.faults import resolve_fault_plan
from .executor_base import (
    LevelExecutor,
    check_run_options,
    resolve_run_kernel,
)
from .init import METHODS, RngLike, init_centroids
from .kernels import KernelLike
from .recovery import RecoveryLike, resolve_recovery
from .level1 import Level1Executor
from .level2 import Level2Executor
from .level3 import Level3Executor
from .lloyd import LloydExecutor
from .partition import plan_level1, plan_level2, plan_level3
from .result import KMeansResult

#: Accepted values for the ``level`` argument.
LEVELS = ("auto", 0, 1, 2, 3)

#: The executor of each level; Level 0 is serial Lloyd.
EXECUTORS: Dict[int, Type[LevelExecutor]] = {
    0: LloydExecutor, 1: Level1Executor, 2: Level2Executor,
    3: Level3Executor,
}


def select_level(machine: Machine, n: int, k: int, d: int,
                 dtype: np.dtype | type = np.float64) -> int:
    """Choose the lowest feasible partition level for (n, k, d).

    Lower levels have less read amplification and cheaper reductions, so
    they win whenever their memory constraints hold; Level 3 is the only
    option once ``k*d`` outgrows a core group.

    Raises
    ------
    PartitionError
        If not even Level 3 fits the machine.
    """
    for level, planner in ((1, plan_level1), (2, plan_level2),
                           (3, plan_level3)):
        try:
            planner(machine, n, k, d, dtype=dtype)
            return level
        except PartitionError:
            continue
    raise PartitionError(
        f"no partition level fits n={n}, k={k}, d={d} on a machine with "
        f"{machine.n_cgs} CGs and {machine.ldm_bytes} B LDM per CPE"
    )


def _check_keywords(names: Iterable[str], levels: Sequence[int]) -> None:
    """Raise unless one of ``levels``' executors takes each keyword."""
    if len(levels) == 1:
        EXECUTORS[levels[0]].check_keywords(names)
        return
    for name in names:
        if not any(name in EXECUTORS[level].keywords() for level in levels):
            raise ConfigurationError(f"no level takes keyword {name!r}")


class HierarchicalKMeans:
    """k-means on the simulated Sunway machine.

    Parameters
    ----------
    n_clusters:
        Number of centroids k.
    machine:
        Simulated machine to run on; defaults to one SW26010 node.
    level:
        ``"auto"`` (default) picks the lowest feasible level; 1/2/3 force a
        level; 0 runs the serial Lloyd baseline (no machine simulation).
    init:
        Initialisation strategy (see :mod:`repro.core.init`) — or an
        explicit (k, d) array of starting centroids.
    max_iter, tol:
        Convergence controls; ``tol=0`` reproduces the paper's
        "until each c_j is fixed".
    n_init:
        Number of restarts with different stochastic initialisations; the
        result with the lowest final inertia wins (requires a stochastic
        ``init``).  ``all_inertias_`` records every restart's objective.
    seed:
        Seed for stochastic initialisation (restarts derive child seeds).
    kernel:
        Compute backend for the Assign arithmetic: ``"naive"`` (direct-form
        distances, the fidelity reference), ``"gemm"`` (blocked
        ``|x|^2 - 2 X C^T + |c|^2`` — one BLAS matmul per block, the fast
        production path), or ``"pruned"`` (the naive kernel plus
        per-block triangle-inequality bounds carried across iterations —
        bit-identical to ``"naive"`` while skipping provably unchanged
        assignments; bounds are invalidated on resume/replan).  Unset, the
        ``REPRO_KERNEL`` environment variable is consulted, falling back
        to ``"naive"``.  An environment-sourced non-naive kernel is
        silently pinned back to naive on ``strict_cpe`` fidelity runs.
        See :mod:`repro.core.kernels`.
    engine:
        Host execution engine for the numerics: ``"serial"`` (default),
        ``"thread"``, or ``"process"``.  ``"thread"`` maps per-block
        Assign+Accumulate work across a thread pool (NumPy/BLAS release
        the GIL); ``"process"`` runs supervised forked workers over
        shared-memory operands, surviving worker crashes via respawn and
        poison-task quarantine (degrading gracefully to serial where
        ``fork`` or a second CPU is unavailable).  Either way the
        modelled cost charges stay in a fixed serial order, so centroids,
        ledgers, and fault replays are bit-identical on every engine.
        Unset, the ``REPRO_ENGINE``/``REPRO_WORKERS`` environment
        variables are consulted.  See :mod:`repro.runtime.engine` and
        :mod:`repro.runtime.process_engine`.
    workers:
        Worker count for the thread/process engines (defaults to the CPU
        count; ``workers > 1`` with ``engine`` unset implies
        ``"thread"``).
    reduce:
        Reduction topology merging the per-block ``(sums, counts)``
        partials: ``"serial"`` (default — the historical in-order fold,
        bit-identical to previous releases) or ``"tree"`` (balanced
        pairwise merges, which round differently).  Either way the engine
        folds inline and the merge schedule is a pure function of the
        block count, so results are bit-identical across engines and
        worker counts for a fixed topology.  Unset, the ``REPRO_REDUCE``
        environment variable is consulted.  See
        :mod:`repro.runtime.reduce`.
    integrity:
        Data-integrity mode for the host data planes: ``"off"`` (default),
        ``"verify"`` (ABFT-checksum every reduction partial, re-verify
        shared operands and checkpoint manifests; silent corruption raises
        :class:`~repro.errors.IntegrityError`), or ``"repair"``
        (additionally recompute the smallest corrupted unit, so runs under
        bitflip chaos finish bit-identical to fault-free ones).  Unset,
        the ``REPRO_INTEGRITY`` environment variable is consulted.  See
        :mod:`repro.runtime.integrity`.
    model_costs:
        When False, executors run pure numerics against a
        :class:`~repro.runtime.ledger.NullLedger`: no modelled seconds are
        charged and ``result.ledger`` is None — same centroids and
        assignments, zero simulation overhead.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` or compact spec
        string (``"cg_failure@3:cg=1;transient_dma:p=0.01"``, see
        :func:`~repro.runtime.faults.parse_fault_plan`) injected into the
        simulated run.  Requires ``model_costs=True`` and a simulated
        level (1-3).  Defaults to None: no injector is attached and the
        run is bit-identical to one without fault support.
    recovery:
        What to do when an injected fault fires: ``"retry"``, ``"replan"``,
        ``"fail_fast"`` (default), or a
        :class:`~repro.core.recovery.RecoveryPolicy` instance.
    checkpoint_every:
        Snapshot the centroids every this many iterations (modelled I/O
        charged to the ``checkpoint`` ledger category); None disables
        periodic snapshots.
    checkpoint_dir:
        Directory for *durable* snapshots: every checkpoint is also
        persisted as an atomic write-tmp → fsync → rename ``.npz``, so a
        killed process can ``resume``.  None consults the
        ``REPRO_CHECKPOINT_DIR`` environment variable.
    resume:
        Restart from the snapshot in ``checkpoint_dir`` instead of a fresh
        initialisation; the continuation is bit-identical to the
        uninterrupted run.  Incompatible with ``n_init > 1`` (a resumed
        trajectory belongs to exactly one restart).
    deadline_s:
        Wall-clock budget for each run in *real* seconds; past it the run
        aborts with :class:`~repro.errors.DeadlineExceededError` at the
        next iteration boundary.  None consults ``REPRO_DEADLINE``.
    watchdog_s:
        Per-iteration real-time threshold; slower iterations are flagged
        as ``slow_iteration`` entries in ``result.host_events``.
    empty_action:
        Empty-cluster rule for the Update step: ``"keep"`` (default) or
        ``"reseed_farthest"`` (deterministic farthest-point re-seeding).
    executor_kwargs:
        Extra keyword arguments forwarded to the level executor
        (``collective_algorithm``, ``strict_cpe``, ``streaming``,
        ``overlap_dma``, ``mgroup``, ``mprime_group``,
        ``supernode_aware``, ``supervisor``...).  A keyword the executor
        does not take raises :class:`~repro.errors.ConfigurationError`:
        at construction for a forced level (Level 0 takes none of the
        machine keywords) or one no level takes, else at ``fit()``.

    Examples
    --------
    >>> from repro import HierarchicalKMeans, sunway_machine
    >>> from repro.data import gaussian_blobs
    >>> X, _ = gaussian_blobs(n=2000, k=16, d=32, seed=7)
    >>> model = HierarchicalKMeans(16, machine=sunway_machine(1), seed=7)
    >>> result = model.fit(X)
    >>> result.centroids.shape
    (16, 32)
    """

    def __init__(self, n_clusters: int, machine: Optional[Machine] = None,
                 level: Union[str, int] = "auto", init: Union[str, np.ndarray] = "kmeans++",
                 max_iter: int = 100, tol: float = 0.0, n_init: int = 1,
                 seed: RngLike = None, kernel: Optional[KernelLike] = None,
                 engine: EngineLike = None, workers: Optional[int] = None,
                 reduce: ReduceLike = None,
                 integrity: Optional[str] = None,
                 model_costs: bool = True, faults=None,
                 recovery: RecoveryLike = "fail_fast",
                 checkpoint_every: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None,
                 resume: bool = False,
                 deadline_s: Optional[float] = None,
                 watchdog_s: Optional[float] = None,
                 empty_action: str = "keep",
                 **executor_kwargs) -> None:
        if n_clusters < 1:
            raise ConfigurationError(
                f"n_clusters must be >= 1, got {n_clusters}"
            )
        if n_init < 1:
            raise ConfigurationError(f"n_init must be >= 1, got {n_init}")
        if n_init > 1 and (isinstance(init, np.ndarray) or init == "first"):
            raise ConfigurationError(
                "n_init > 1 needs a stochastic init "
                "(\"random\" or \"kmeans++\"); deterministic restarts "
                "would all be identical"
            )
        if level not in LEVELS:
            raise ConfigurationError(
                f"level must be one of {LEVELS}, got {level!r}"
            )
        if isinstance(init, str) and init not in METHODS:
            raise ConfigurationError(
                f"init must be an array or one of {METHODS}, got {init!r}"
            )
        _check_keywords(executor_kwargs,
                        (1, 2, 3) if level == "auto" else (level,))
        self.n_clusters = int(n_clusters)
        self.machine = machine if machine is not None else sunway_machine(1)
        self.level = level
        self.init = init
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.n_init = int(n_init)
        self.seed = seed
        # Resolve eagerly: invalid names fail at construction, and the
        # backend instance (with its scratch buffers) is shared by every
        # restart, executor, and predict() call.
        self.kernel = resolve_run_kernel(
            kernel, bool(executor_kwargs.get("strict_cpe")))
        # Same eager rule for the execution engine: bad names (or a
        # serial/workers conflict) fail here, and one engine instance is
        # shared by every restart and executor.  The integrity mode rides
        # along — resolved here (explicit > REPRO_INTEGRITY > off) and
        # stamped onto the engine, the executors, and the checkpoint store.
        self.engine = resolve_engine(engine, workers, integrity=integrity)
        self.integrity = self.engine.integrity
        # ... and for the reduction topology: a bad name fails here, and
        # the same topology drives every restart's partial merges.
        self.reduce = resolve_reduce(reduce)
        self.model_costs = bool(model_costs)
        # Resolve the fault plan and policy eagerly so a bad spec string or
        # policy name fails at construction, not restarts deep into fit().
        self.faults = resolve_fault_plan(
            faults, seed=seed if isinstance(seed, int) else 0)
        self.recovery = resolve_recovery(recovery)
        self.checkpoint_every = checkpoint_every
        if checkpoint_dir is None:
            checkpoint_dir = read_str(ENV_CHECKPOINT_DIR)
        self.checkpoint_dir = checkpoint_dir
        check_run_options(level != 0, self.model_costs, self.faults, resume,
                          checkpoint_dir, empty_action, deadline_s,
                          watchdog_s)
        if resume and n_init > 1:
            raise ConfigurationError(
                "resume=True is incompatible with n_init > 1: a resumed "
                "trajectory belongs to exactly one restart"
            )
        self.resume = bool(resume)
        self.deadline_s = deadline_s
        self.watchdog_s = watchdog_s
        self.empty_action = empty_action
        self.executor_kwargs = executor_kwargs
        #: Filled by fit(): the level that actually ran.
        self.selected_level_: Optional[int] = None
        self.result_: Optional[KMeansResult] = None
        #: Final inertia of every restart (length n_init after fit()).
        self.all_inertias_: list[float] = []

    # -- API -----------------------------------------------------------------

    def initial_centroids(self, X: np.ndarray) -> np.ndarray:
        """Materialise the starting centroid set for ``X``."""
        if isinstance(self.init, np.ndarray):
            C = np.asarray(self.init, dtype=np.float64)
            if C.shape != (self.n_clusters, X.shape[1]):
                raise ConfigurationError(
                    f"explicit init centroids must have shape "
                    f"({self.n_clusters}, {X.shape[1]}), got {C.shape}"
                )
            return np.array(C, copy=True)
        return init_centroids(X, self.n_clusters, method=self.init,
                              seed=self.seed)

    def resolve_level(self, X: np.ndarray) -> int:
        """The level fit() would use for this data (without running it)."""
        if self.level != "auto":
            return int(self.level)
        return select_level(self.machine, X.shape[0], self.n_clusters,
                            X.shape[1], dtype=X.dtype)

    def fit(self, X: np.ndarray) -> KMeansResult:
        """Cluster ``X``; returns (and stores) the best restart's result."""
        X = np.asarray(X)
        if X.ndim != 2:
            raise ConfigurationError(f"X must be 2-D, got shape {X.shape}")
        level = self.resolve_level(X)

        if self.n_init == 1:
            result = self._fit_once(X, level, self.initial_centroids(X))
            self.all_inertias_ = [result.inertia]
        else:
            root = np.random.SeedSequence(
                self.seed if isinstance(self.seed, int) else None)
            best: Optional[KMeansResult] = None
            self.all_inertias_ = []
            for child in root.spawn(self.n_init):
                rng = np.random.default_rng(child)
                C0 = init_centroids(X, self.n_clusters, method=self.init,
                                    seed=rng)
                candidate = self._fit_once(X, level, C0)
                self.all_inertias_.append(candidate.inertia)
                if best is None or candidate.inertia < best.inertia:
                    best = candidate
            result = best

        self.selected_level_ = level
        self.result_ = result
        return result

    def _fit_once(self, X: np.ndarray, level: int,
                  C0: np.ndarray) -> KMeansResult:
        """One run at a resolved level from explicit initial centroids."""
        _check_keywords(self.executor_kwargs, (level,))
        # A fresh executor (and fault injector) is built per run, so every
        # restart replays the same plan from the same seed.
        executor = EXECUTORS[level](
            self.machine, kernel=self.kernel, engine=self.engine,
            reduce=self.reduce, integrity=self.integrity,
            model_costs=self.model_costs, faults=self.faults,
            recovery=self.recovery, checkpoint_every=self.checkpoint_every,
            checkpoint_dir=self.checkpoint_dir, resume=self.resume,
            deadline_s=self.deadline_s, watchdog_s=self.watchdog_s,
            empty_action=self.empty_action, **self.executor_kwargs)
        return executor.run(X, C0, max_iter=self.max_iter, tol=self.tol)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Nearest-centroid assignment of new samples under the fitted model."""
        if self.result_ is None:
            raise ConfigurationError("fit() must be called before predict()")
        return self.kernel.assign(np.asarray(X), self.result_.centroids)

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        """fit() then return the training assignments."""
        return self.fit(X).assignments
