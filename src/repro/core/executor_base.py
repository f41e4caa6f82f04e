"""The one iteration driver for Levels 0–3.

A level supplies :meth:`~LevelExecutor.setup` and
:meth:`~LevelExecutor.iterate`: Level 0 (:mod:`repro.core.lloyd`) sweeps
the kernel's own chunks on the host, and Levels 1–3 run one Lloyd
iteration under their partition plan, performing the real arithmetic with
NumPy *and* charging the modelled cost of every phase (DMA, compute,
register comm, MPI) to a :class:`~repro.runtime.ledger.TimeLedger`.  The
base class owns everything else: option checks, the convergence loop,
checkpoints and resume, fault recovery, telemetry, result assembly, and
the paper's stop rule ("until each c_j is fixed", tol = 0).
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from typing import Any, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    ConfigurationError,
    ConvergenceWarning,
    FaultError,
    NumericalFaultError,
    warn_at_caller,
)
from ..machine.machine import DegradedMachine, Machine
from ..runtime import blas
from ..runtime.compute import ComputeModel
from ..runtime.dma import DMAEngine
from ..runtime.engine import EngineLike, resolve_engine
from ..runtime.faults import FaultInjector, FaultPlan, resolve_fault_plan
from ..runtime.reduce import (
    ReduceLike,
    ReduceTopology,
    resolve_reduce,
    scatter_bounds,
)
from ..runtime.ledger import NullLedger, TimeLedger
from ..runtime.regcomm import RegisterComm
from ..runtime.supervisor import (
    SupervisorLike,
    check_budgets,
    resolve_supervisor,
)
from ._common import (
    DEFAULT_CHUNK_ELEMENTS,
    check_empty_action,
    inertia,
    max_centroid_shift,
    update_centroids,
    validate_data,
)
from .block_tasks import StrictAssign, map_assign
from .bounds import BlockBounds
from .checkpoint import CheckpointConfig, CheckpointStore
from .kernels import KernelBackend, KernelLike, resolve_kernel
from .recovery import RecoveryLike, resolve_recovery
from .result import IterationStats, KMeansResult


#: Working-set bound (elements) of the host-side re-label behind the final
#: objective: an eighth of the default.  Under the process engine the fitting
#: process runs no Assign of its own, so a default-sized (rows, k) scratch
#: block would be new memory in it (32 MB at k=256).
RELABEL_CHUNK_ELEMENTS = DEFAULT_CHUNK_ELEMENTS // 8

#: Constructor keywords that configure the simulated machine.  Level 0
#: simulates none and takes none of them.
MACHINE_KEYWORDS = frozenset({"plan", "collective_algorithm", "strict_cpe",
                              "overlap_dma", "compute_efficiency"})


def check_run_options(simulated: bool, model_costs: bool,
                      faults: Optional[FaultPlan], resume: bool,
                      checkpoint_dir: Optional[str], empty_action: str,
                      deadline_s: Optional[float],
                      watchdog_s: Optional[float]) -> None:
    """The cross-option rules of a run, checked before it is built.

    Every executor and :class:`~repro.core.kmeans.HierarchicalKMeans` call
    this at construction, so a bad combination fails there, with one
    message wherever it is given.  ``simulated`` is False at Level 0.
    """
    if faults:
        if not model_costs:
            raise ConfigurationError(
                "fault injection requires model_costs=True: the fault "
                "hooks fire from the cost-charging paths that "
                "model_costs=False skips entirely"
            )
        if not simulated:
            raise ConfigurationError(
                "faults= requires a simulated level (1-3); the serial "
                "Lloyd baseline (level=0) has no machine to fail"
            )
    if resume and checkpoint_dir is None:
        raise ConfigurationError(
            "resume=True needs checkpoint_dir= (there is no on-disk "
            "snapshot to resume from otherwise)"
        )
    check_empty_action(empty_action)
    check_budgets(deadline_s, watchdog_s)


def resolve_run_kernel(kernel: Optional[KernelLike],
                       strict_cpe: bool) -> KernelBackend:
    """Resolve a run's kernel; strict-CPE fidelity needs the naive one.

    Its per-slice dataflow *is* the direct-form arithmetic.  An explicit
    non-naive kernel raises, while an environment-sourced one (``kernel``
    None) is pinned back to naive: the knob is a machine-wide default,
    not a per-run demand.
    """
    backend = resolve_kernel(kernel)
    if strict_cpe and backend.name != "naive":
        if kernel is None:
            return resolve_kernel("naive")
        raise ConfigurationError(
            f"strict_cpe fidelity mode requires the naive kernel "
            f"(the hardware dataflow is the direct form); "
            f"got kernel={backend.name!r}"
        )
    return backend


class LevelExecutor(ABC):
    """Template for a k-means executor of one partition level.

    Parameters
    ----------
    machine:
        The simulated machine the plan is made for, or None: then nothing
        is priced (no compute, DMA or register-communication model, no
        plan, and no time ledger), as at Level 0.
    plan:
        A ready partition plan; None (the default) makes one in
        :meth:`setup`.
    collective_algorithm:
        Algorithm used by inter-CG collectives ("ring", "tree",
        "recursive-doubling").
    strict_cpe:
        When True, the executor computes per-CPE partial results explicitly
        and combines them exactly the way the hardware reduction would —
        slower, used by fidelity tests.  When False it uses the numerically
        equivalent vectorised form.
    overlap_dma:
        Model double-buffered DMA: the sample-stream transfer overlaps the
        distance computation, so the streaming phase is charged
        ``max(dma, compute)`` instead of their sum — the standard Sunway
        optimisation, ablated in ``benchmarks/bench_ablations.py``.
    compute_efficiency:
        Sustained fraction of peak FLOP/s assumed for the distance kernel.
    kernel:
        Compute backend for the fast-path Assign arithmetic ("naive",
        "gemm", "pruned", or a :class:`~repro.core.kernels.KernelBackend`
        instance).  None (the default) consults the ``REPRO_KERNEL``
        environment variable, falling back to "naive".  Strict-CPE mode
        requires the naive backend: its per-slice dataflow *is* the
        direct-form arithmetic — an explicit non-naive kernel raises,
        while an environment-sourced one is silently pinned back to
        naive (the knob is a machine-wide default, not a per-run demand).
    model_costs:
        When False the executor runs pure numerics against a
        :class:`~repro.runtime.ledger.NullLedger` — no phase is priced, no
        byte/flop accounting happens, and the result carries no ledger.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` (or compact spec
        string, see :func:`~repro.runtime.faults.parse_fault_plan`) to
        inject during the run.  Requires a machine and
        ``model_costs=True`` — the fault hooks live on the cost-charging
        paths.  None (the default) attaches
        no injector: the run is bit-identical, in centroids and modelled
        seconds, to one without fault support.
    recovery:
        Policy applied when an injected fault fires: ``"retry"``,
        ``"replan"``, ``"fail_fast"`` (default), or a
        :class:`~repro.core.recovery.RecoveryPolicy` instance.
    checkpoint_every:
        Snapshot ``(iteration, centroids)`` every this many iterations,
        charging the modelled I/O to the ``checkpoint`` category.  None
        (default) disables periodic snapshots; the free epoch-0 snapshot of
        the initial centroids is always kept.
    checkpoint_dir:
        Directory for *durable* snapshots: every checkpoint is also
        persisted to ``checkpoint_dir/checkpoint.npz`` via an atomic
        write-tmp → fsync → rename, so a killed process can ``resume``
        from disk.  Modelled cost charging is unchanged — host I/O is
        real time, not simulated Sunway time.
    resume:
        Restart from the snapshot in ``checkpoint_dir`` (required) instead
        of the passed initial centroids.  The continuation is bit-identical
        to the uninterrupted run: assignments are a pure function of
        ``(X, C)``, so ``(iteration, centroids)`` is complete restart
        state.  An empty directory falls back to a cold start.
    deadline_s:
        Wall-clock budget in *real* seconds; the run aborts with
        :class:`~repro.errors.DeadlineExceededError` at the first
        iteration boundary past it.  None consults ``REPRO_DEADLINE``.
    watchdog_s:
        Per-iteration real-time threshold; slower iterations are flagged
        as ``slow_iteration`` host events (never killed).
    supervisor:
        Full :class:`~repro.runtime.supervisor.RunSupervisor` instance
        overriding ``deadline_s``/``watchdog_s``.
    empty_action:
        Empty-cluster rule for the Update step: ``"keep"`` (default,
        historical) or ``"reseed_farthest"`` (deterministic farthest-point
        re-seeding; see :func:`~repro.core._common.update_centroids`).
    engine:
        Host execution engine for the per-sample-block numerics
        (``"serial"``, ``"thread"``, or an
        :class:`~repro.runtime.engine.ExecutionEngine` instance).  None
        consults the ``REPRO_ENGINE`` environment variable.  Engines only
        change host scheduling: per-shard ``(sums, counts)`` partials merge
        in fixed block order, so centroids, assignments, modelled ledger
        seconds, and fault replays are bit-identical across engines.
    workers:
        Thread count for the thread engine (``workers > 1`` alone implies
        ``engine="thread"``); None uses ``os.cpu_count()``.
    reduce:
        Reduction topology merging the per-block ``(sums, counts)``
        partials (``"serial"``, ``"tree"``, or a
        :class:`~repro.runtime.reduce.ReduceTopology` instance).  None
        consults ``REPRO_REDUCE``.  The engine folds every topology
        inline; the merge schedule is a pure function of the block count
        (never of thread timing), so for a fixed topology the results are
        bit-identical across engines and worker counts, and the serial
        default reproduces the historical in-order fold exactly.  The
        modelled register-communication and MPI reductions are priced by
        the executors whatever the topology.  Executors with a
        hierarchical merge (Level 1/2) lift the topology with
        :meth:`~repro.runtime.reduce.ReduceTopology.for_groups` so the
        within-CG stage and the cross-CG stage keep their shape.
    integrity:
        Data-integrity mode for every host data plane (``"off"``,
        ``"verify"``, or ``"repair"``; see
        :mod:`repro.runtime.integrity`).  None consults
        ``REPRO_INTEGRITY``, falling back to ``"off"``.  ``verify`` seals
        every reduction partial with ABFT checksums, re-verifies shared
        arrays before dispatch, and checks the checkpoint manifest on
        resume — silent corruption raises
        :class:`~repro.errors.IntegrityError` instead of propagating wrong
        numbers.  ``repair`` additionally recomputes the smallest corrupted
        unit (and cold-starts past an unreadable snapshot), so runs under
        bitflip chaos finish bit-identical to fault-free ones.
    """

    #: Partition level implemented by the subclass (0, 1, 2 or 3).
    level: int = 0
    #: Working-set bound (elements) of the final host-side re-label.
    relabel_chunk_elements: int = RELABEL_CHUNK_ELEMENTS

    def __init__(self, machine: Optional[Machine], plan: Any = None,
                 collective_algorithm: str = "ring",
                 strict_cpe: bool = False, overlap_dma: bool = False,
                 compute_efficiency: float | None = None,
                 kernel: Optional[KernelLike] = None,
                 model_costs: bool = True,
                 faults=None,
                 recovery: RecoveryLike = "fail_fast",
                 checkpoint_every: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None,
                 resume: bool = False,
                 deadline_s: Optional[float] = None,
                 watchdog_s: Optional[float] = None,
                 supervisor: SupervisorLike = None,
                 empty_action: str = "keep",
                 engine: EngineLike = None,
                 workers: Optional[int] = None,
                 reduce: ReduceLike = None,
                 integrity: Optional[str] = None) -> None:
        fault_plan = resolve_fault_plan(faults)
        check_run_options(machine is not None, model_costs, fault_plan,
                          resume, checkpoint_dir, empty_action, deadline_s,
                          watchdog_s)
        self.machine = machine
        self._plan = plan
        self.collective_algorithm = collective_algorithm
        self.strict_cpe = bool(strict_cpe)
        self.overlap_dma = bool(overlap_dma)
        self.engine = resolve_engine(engine, workers, integrity=integrity)
        #: Resolved integrity mode ("off"/"verify"/"repair"), shared with
        #: the engine and the checkpoint store so all three data planes —
        #: partials, shared arrays, durable snapshots — verify consistently.
        self.integrity = self.engine.integrity
        self.reduce = resolve_reduce(reduce)
        #: Per-iteration inertia under the incoming centroids, set by every
        #: iterate() from the winning distances its sweep already produced.
        self._iter_inertia = float("nan")
        self.kernel = resolve_run_kernel(kernel, self.strict_cpe)
        #: Carried per-sample bound state of the pruned kernel path (always
        #: constructed; permanently invalid under the other backends).
        self._pruned_bounds = BlockBounds()
        #: Actual distance evaluations per iteration under kernel="pruned"
        #: (n*k on establishment sweeps; the pruning telemetry the bench
        #: harness reads).
        self.pruned_evals_per_iteration: List[int] = []
        self.model_costs = bool(model_costs) and machine is not None
        self.ledger = TimeLedger() if self.model_costs else NullLedger()
        self.injector: Optional[FaultInjector] = \
            FaultInjector(fault_plan) if fault_plan else None
        self.recovery = resolve_recovery(recovery)
        self.resume = bool(resume)
        self.supervisor = resolve_supervisor(supervisor, deadline_s,
                                             watchdog_s)
        # The store shares the engine's chaos injector (so
        # bitflip_checkpoint plans reach the durable writes) and the
        # supervisor's event log; built after the supervisor for exactly
        # that reason.
        self.checkpoints = CheckpointStore(
            CheckpointConfig(every=checkpoint_every), self.ledger,
            directory=checkpoint_dir, chaos=self.engine.chaos,
            integrity=self.integrity, record=self.supervisor.record)
        self.empty_action = empty_action
        if machine is not None:
            cg = machine.spec.processor.cg
            kwargs = {}
            if compute_efficiency is not None:
                kwargs["efficiency"] = compute_efficiency
            self.compute = ComputeModel(cg, self.ledger, **kwargs)
            self._regcomm = RegisterComm(cg, injector=self.injector)
            self._dma = DMAEngine(cg, self.ledger, injector=self.injector)

    @classmethod
    def keywords(cls) -> FrozenSet[str]:
        """Every keyword argument this level's constructor takes."""
        names = set()
        for klass in cls.__mro__:
            if issubclass(klass, LevelExecutor) and "__init__" in vars(klass):
                names.update(inspect.signature(klass.__init__).parameters)
        return frozenset(names - {"self", "machine", "kwargs"})

    @classmethod
    def check_keywords(cls, names: Iterable[str]) -> None:
        """Raise :class:`ConfigurationError` on a keyword this level lacks."""
        taken = cls.keywords()
        for name in names:
            if name not in taken:
                raise ConfigurationError(
                    f"level {cls.level} takes no keyword {name!r}")

    @property
    def plan(self) -> Any:
        """The partition plan, made by :meth:`setup` (Levels 1–3)."""
        if self._plan is None:
            raise RuntimeError("executor has not been set up yet")
        return self._plan

    @property
    def _itemsize(self) -> int:
        """Bytes per element of the plan's dtype."""
        return np.dtype(self.plan.dtype).itemsize

    # -- subclass interface ------------------------------------------------------

    @abstractmethod
    def setup(self, X: np.ndarray, C: np.ndarray) -> None:
        """Validate the plan against (X, C) and charge one-time load costs."""

    @abstractmethod
    def iterate(self, X: np.ndarray, C: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        """One Assign+Update under the plan; returns (assignments, new_C).

        Implementations run their Assign sweep through
        :meth:`_map_assign` (which sets ``self._iter_inertia``, the mean
        winning squared distance under the incoming ``C`` that run()
        records in the iteration's history) and must charge every phase
        of the iteration to ``self.ledger`` before returning.
        """

    def charge_stream_phases(self, prefix: str,
                             dma_times: Sequence[float],
                             compute_times: Sequence[float]) -> None:
        """Charge the sample-stream DMA and distance compute phases.

        Without overlap the phases serialise (charge both); with
        double-buffered DMA the slower one hides the other, so only
        ``max`` is charged (to its own category, the hidden phase at 0).
        """
        dma_worst = max(dma_times)
        compute_worst = max(compute_times)
        if not self.overlap_dma:
            self.ledger.charge("dma", f"{prefix}.stream", dma_worst)
            self.ledger.charge("compute", f"{prefix}.distances",
                               compute_worst)
            return
        if dma_worst >= compute_worst:
            self.ledger.charge("dma", f"{prefix}.stream+compute(overlap)",
                               dma_worst)
            self.ledger.charge("compute", f"{prefix}.distances(hidden)",
                               0.0)
        else:
            self.ledger.charge("dma", f"{prefix}.stream(hidden)", 0.0)
            self.ledger.charge("compute",
                               f"{prefix}.compute+stream(overlap)",
                               compute_worst)

    def update_step(self, sums: np.ndarray, counts: np.ndarray,
                    C: np.ndarray, X: Optional[np.ndarray] = None,
                    best_d2: Optional[np.ndarray] = None) -> np.ndarray:
        """The shared Update step under this executor's empty-cluster rule.

        Subclass ``iterate`` implementations call this instead of
        :func:`~repro.core._common.update_centroids` directly so the
        configured ``empty_action`` applies uniformly across levels.
        """
        return update_centroids(sums, counts, C,
                                empty_action=self.empty_action,
                                X=X, best_d2=best_d2)

    def _check_finite(self, new_C: np.ndarray, iteration: int) -> None:
        """Per-iteration numerical guard.

        A NaN/Inf in the fresh centroids (or in the fused pass's inertia)
        means a partial was corrupted — e.g. host-side bit rot injected at
        the engine seam — and every subsequent iteration would silently
        converge to garbage.  Raise a transient
        :class:`~repro.errors.NumericalFaultError` instead so the recovery
        policy can re-run the iteration (``retry``) or roll back to the
        last checkpoint (``replan``).
        """
        if not np.isfinite(new_C).all():
            raise NumericalFaultError(
                f"non-finite centroids after the iteration {iteration} "
                f"Update step", iteration=iteration,
            )
        if not np.isfinite(self._iter_inertia):
            raise NumericalFaultError(
                f"non-finite inertia at iteration {iteration}",
                iteration=iteration,
            )

    # -- Assign fan-out ------------------------------------------------------------

    def _map_assign(self, X: np.ndarray, C: np.ndarray,
                    blocks: Sequence[Tuple[int, int]],
                    topology: Optional[ReduceTopology],
                    strict: Optional[StrictAssign] = None,
                    chunk_elements: Optional[int] = None
                    ) -> Tuple[Any, List[Any], np.ndarray, np.ndarray]:
        """This executor's Assign sweep over its sample blocks.

        Runs :func:`~repro.core.block_tasks.map_assign` — carrying the
        pruned kernel's bound state when that kernel is active — and sets
        ``_iter_inertia`` from the winning distances.  Returns
        ``(merged, partials, assignments, best_d2)``.
        """
        bounds = self._pruned_bounds if self.kernel.name == "pruned" \
            else None
        merged, partials, assignments, best_d2 = map_assign(
            self.engine, self.kernel, X, C, blocks, topology,
            bounds=bounds, strict=strict, chunk_elements=chunk_elements)
        self._iter_inertia = float(best_d2.sum() / X.shape[0])
        return merged, partials, assignments, best_d2

    def _commit_pruned_state(self, C: np.ndarray, assignments: np.ndarray,
                             best_d2: np.ndarray, merged: Any,
                             partials: Sequence[Any]) -> None:
        """Adopt one pruned iteration's outputs as the carried bound state.

        Must be the *last* act of ``iterate()`` — after every fault-prone
        charge — so an iteration that faults mid-flight never half-commits:
        the retry re-runs against the previous iteration's (still sound)
        state, and replans/rollbacks invalidate via
        :meth:`_reset_state_after_replan`.
        """
        lb = np.empty(assignments.shape[0], dtype=np.float64)
        scatter_bounds(partials, lb)
        self._pruned_bounds.commit(C, assignments, best_d2, lb)
        self.pruned_evals_per_iteration.append(int(merged.n_dist))

    # -- fault handling ------------------------------------------------------------

    def _reset_state_after_replan(self) -> None:
        """Drop any executor state tied to the old partition plan.

        The base class invalidates the pruned kernel's carried bound
        state: a restored checkpoint (replan and rollback both restore
        one) rewinds the centroids, so bounds anchored to the poisoned
        trajectory would be unsound — the next iteration re-establishes
        them from scratch.  A subclass that adds persistent state keyed
        to the plan or the trajectory overrides this — and must call
        ``super()`` — to invalidate it too.
        """
        self._pruned_bounds.invalidate()

    def _replan_after_failure(self, exc: FaultError,
                              X: np.ndarray) -> np.ndarray:
        """Excise the failed CG, re-plan on the survivors, restore state.

        Fault-spec CG indices are in the *base* machine's physical
        numbering, so repeated failures accumulate against the original
        machine.  Returns the centroids to resume from (the last
        checkpoint — the free epoch-0 snapshot at worst).
        """
        base = self.machine
        failed: List[int] = []
        if isinstance(base, DegradedMachine):
            failed = list(base.failed_cgs)
            base = base.base
        failed.append(exc.cg_index if exc.cg_index is not None else 0)
        self.machine = DegradedMachine(base, failed)
        checkpoint = self.checkpoints.restore()  # charges "recovery" I/O
        C = np.array(checkpoint.centroids, copy=True)
        self._plan = None  # force a fresh partition plan on the survivors
        self._reset_state_after_replan()
        self.setup(X, C)
        return C

    def _handle_fault(self, exc: FaultError, attempt: int, X: np.ndarray,
                      C: np.ndarray) -> np.ndarray:
        """Apply the recovery policy to one caught fault.

        Returns the centroids the iteration should re-run from (unchanged
        for a retry, the restored checkpoint for a replan); re-raises the
        fault when the policy gives up.
        """
        action = self.recovery.decide(exc, attempt)
        event = getattr(exc, "event", None)
        if action.kind == "retry":
            if action.delay > 0:
                self.ledger.charge("recovery", "recovery.retry_backoff",
                                   action.delay)
            if event is not None:
                event.action = "retried"
                event.recovery_seconds += action.delay
            return C
        if action.kind == "replan":
            t_before = self.ledger.total()
            C = self._replan_after_failure(exc, X)
            if event is not None:
                event.action = "replanned"
                event.recovery_seconds += self.ledger.total() - t_before
            return C
        if action.kind == "rollback":
            # The machine is healthy; only the numbers went bad.  Restore
            # the last checkpoint (charging the modelled read), drop any
            # acceleration state keyed to the poisoned trajectory, and
            # re-run from the snapshot.  No re-plan, no excised CGs.
            checkpoint = self.checkpoints.restore()
            C = np.array(checkpoint.centroids, copy=True)
            self._reset_state_after_replan()
            self.supervisor.record(
                "rollback",
                f"restored checkpoint from iteration "
                f"{checkpoint.iteration} after {type(exc).__name__}: {exc}",
            )
            if event is not None:
                event.action = "rolled_back"
            return C
        if event is not None:
            event.action = "fatal"
        raise exc

    # -- driver --------------------------------------------------------------------

    def run(self, X: np.ndarray, centroids: np.ndarray, max_iter: int = 100,
            tol: float = 0.0) -> KMeansResult:
        """Run to convergence (or ``max_iter``) from ``centroids``."""
        if max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
        if tol < 0:
            raise ConfigurationError(f"tol must be >= 0, got {tol}")
        X, C = validate_data(X, np.array(centroids, copy=True))

        start_iteration = 0
        if self.resume:
            # A durable snapshot holds (iteration, centroids) only — any
            # in-memory bound state predates the restore and must not leak
            # into the resumed trajectory (invariant: bounds invalidation).
            self._pruned_bounds.invalidate()
            C, start_iteration = self.checkpoints.resume(C)
        self.setup(X, C)
        if start_iteration > 0:
            # Epoch numbering continues where the killed run left off, so
            # the resumed trajectory's telemetry lines up bit-for-bit with
            # the uninterrupted run's.
            self.ledger.skip_to(start_iteration)
        else:
            self.checkpoints.save_initial(C)

        self.supervisor.start()
        # A pooled engine splits the host's cores between its kernel
        # runners.  The scope spans the whole loop, not each map: an idle
        # OpenBLAS thread spins after every BLAS call between maps and runs
        # into the next one.  k-means++ init, before the run, keeps every
        # core.
        with blas.limit(self.engine.blas_threads()):
            history = []
            assignments = np.full(X.shape[0], -1, dtype=np.int64)
            converged = False
            it = start_iteration
            shift = np.inf
            for _ in range(start_iteration, max_iter):
                it = self.ledger.next_iteration()
                self.supervisor.begin_iteration(it)
                t_before = self.ledger.total()
                attempt = 0
                while True:
                    try:
                        if self.injector is not None:
                            self.injector.begin_iteration(it)
                        new_assignments, new_C = self.iterate(X, C)
                        self._check_finite(new_C, it)
                        break
                    except FaultError as exc:
                        attempt += 1
                        # Partial charges from the failed attempt stay on
                        # the ledger as wasted work, exactly as on the real
                        # machine.
                        C = self._handle_fault(exc, attempt, X, C)
                    finally:
                        self.supervisor.absorb(self.engine)
                t_iter = self.ledger.total() - t_before

                shift = max_centroid_shift(C, new_C)
                history.append(IterationStats(
                    iteration=it,
                    inertia=self._iter_inertia,
                    centroid_shift=shift,
                    n_reassigned=int((new_assignments != assignments).sum()),
                    modelled_seconds=t_iter,
                ))
                assignments = new_assignments
                C = new_C
                self.supervisor.end_iteration(it)
                if shift <= tol:
                    converged = True
                    break
                self.checkpoints.maybe_save(it, C)

            if not converged and history:
                warn_at_caller(
                    f"level {self.level} executor did not converge in "
                    f"{max_iter} iterations (last centroid shift "
                    f"{history[-1].centroid_shift:.3g} > tol {tol:g}); "
                    f"consider raising max_iter",
                    ConvergenceWarning,
                )

            # Final objective under the final C.  At an exact fixed point
            # (shift == 0) the held labels *are* the nearest-centroid labels
            # of the final C.  A max_iter or tol > 0 stop halts one Update
            # past the last Assign, so the objective re-labels against the
            # final C on the host (charging nothing); result.assignments
            # stays the last-Assign labels.
            if converged and shift == 0.0:
                labels = assignments
            else:
                labels = self.kernel.assign(X, C, self.relabel_chunk_elements)
            if (assignments < 0).any():
                # A resume at start_iteration >= max_iter runs zero
                # iterations; the fresh labels make the result usable.
                assignments = labels
            self.supervisor.absorb(self.engine)
            final_inertia = inertia(X, C, labels)
        return KMeansResult(
            centroids=C,
            assignments=assignments,
            inertia=final_inertia,
            n_iter=it,
            converged=converged,
            history=history,
            # Pure-numerics runs report no ledger, like the serial baseline.
            ledger=self.ledger if self.ledger.enabled else None,
            level=self.level,
            fault_events=list(self.injector.events)
            if self.injector is not None else [],
            host_events=list(self.supervisor.events),
        )
