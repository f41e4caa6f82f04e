"""Deterministic fault injection for the simulated machine.

The paper's Level 3 runs span thousands of core groups — a regime where CG
failures and transient DMA/network errors are routine, not exceptional.
This module lets a run *schedule* such faults and have them fire from the
same hook points a real machine would surface them at:

* :meth:`~repro.runtime.dma.DMAEngine.transfer_time` (and therefore
  ``read``/``write``/``stream_time``) — transient DMA errors,
* :class:`~repro.runtime.mpi.SimComm` collectives — collective timeouts and
  degraded link bandwidth,
* :class:`~repro.runtime.regcomm.RegisterComm` collectives — mesh timeouts,
* the executor's iteration boundary — permanent CG failures (failures are
  detected at synchronization points).

Everything is seeded: a :class:`FaultPlan` owns a seed, the
:class:`FaultInjector` draws from one ``numpy`` generator, and the executors
are deterministic — so the same ``(seed, FaultPlan)`` pair replays the exact
same faults, recovery actions, centroids, and modelled seconds.

Faults never fire during setup (epoch 0): recovery policies act inside the
convergence loop, so injection starts at iteration 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..errors import (
    CGFailedError,
    CollectiveTimeoutError,
    ConfigurationError,
    TransientDMAError,
)
from .plans import SeededPlan

#: Fault kinds a :class:`FaultSpec` may carry.
FAULT_KINDS = ("cg_failure", "transient_dma", "collective_timeout",
               "degraded_link")

#: Kinds that fire as exceptions (``degraded_link`` only slows links down).
_RAISING_KINDS = {
    "cg_failure": CGFailedError,
    "transient_dma": TransientDMAError,
    "collective_timeout": CollectiveTimeoutError,
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled or stochastic fault.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    iteration:
        Fire at this iteration (1-based ledger epoch).  Required for
        ``cg_failure`` and ``degraded_link``; for the transient kinds it
        makes the fault fire deterministically on the *first* eligible
        operation of that iteration instead of stochastically.
    cg_index:
        Target core group (``cg_failure``; informational elsewhere).
    probability:
        Per-operation firing probability for transient kinds scheduled with
        ``iteration=None``.
    bandwidth_factor:
        ``degraded_link`` only: multiply network link bandwidth by this
        factor (0 < factor <= 1) while the fault is active.
    duration:
        ``degraded_link`` only: number of iterations the degradation lasts
        (None = until the end of the run).
    """

    kind: str
    iteration: Optional[int] = None
    cg_index: Optional[int] = None
    probability: float = 0.0
    bandwidth_factor: float = 1.0
    duration: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.iteration is not None and self.iteration < 1:
            raise ConfigurationError(
                f"fault iteration must be >= 1, got {self.iteration}"
            )
        if self.kind in ("cg_failure", "degraded_link") \
                and self.iteration is None:
            raise ConfigurationError(
                f"{self.kind} faults must be scheduled with iteration=t"
            )
        if self.kind == "cg_failure" and self.cg_index is None:
            object.__setattr__(self, "cg_index", 0)
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability}"
            )
        if self.kind in ("transient_dma", "collective_timeout") \
                and self.iteration is None and self.probability == 0.0:
            raise ConfigurationError(
                f"a stochastic {self.kind} fault needs probability > 0 "
                f"(or schedule it with iteration=t)"
            )
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ConfigurationError(
                f"bandwidth_factor must be in (0, 1], "
                f"got {self.bandwidth_factor}"
            )
        if self.duration is not None and self.duration < 1:
            raise ConfigurationError(
                f"fault duration must be >= 1, got {self.duration}"
            )

    def active_at(self, iteration: int) -> bool:
        """Whether a windowed fault (``degraded_link``) covers ``iteration``."""
        if self.iteration is None or iteration < self.iteration:
            return False
        if self.duration is None:
            return True
        return iteration < self.iteration + self.duration


class FaultPlan(SeededPlan):
    """A seeded schedule of faults, replayable bit-for-bit.

    The plan is immutable; per-run mutable state (which one-shot specs have
    fired, the rng stream position) lives in the :class:`FaultInjector`, so
    one plan can drive many independent runs.
    """

    spec_type = FaultSpec
    json_key = "faults"
    noun = "fault"
    at_field = "iteration"
    options = {"cg": ("cg_index", int), "p": ("probability", float),
               "factor": ("bandwidth_factor", float),
               "duration": ("duration", int)}


def parse_fault_plan(text: str, seed: int = 0) -> FaultPlan:
    """Parse the CLI's compact fault-plan grammar (or a ``@file`` reference).

    Grammar (:mod:`repro.runtime.plans`): semicolon-separated events, each
    ``kind[@iteration][:key=val,...]``:

    * ``cg_failure@3:cg=1`` — CG 1 fails permanently at iteration 3,
    * ``transient_dma@2`` — one deterministic DMA error at iteration 2,
    * ``transient_dma:p=0.01`` — each DMA op fails with probability 0.01,
    * ``collective_timeout@4`` — one collective timeout at iteration 4,
    * ``degraded_link@2:factor=0.5,duration=3`` — halve link bandwidth for
      iterations 2-4.

    ``@path.json`` loads a :meth:`FaultPlan.to_json` file instead.  ``seed``
    seeds the stochastic draws (the facade passes its own seed through).
    """
    return FaultPlan.parse(text, seed)


FaultPlanLike = Union[FaultPlan, str]


def resolve_fault_plan(faults: Optional[FaultPlanLike],
                       seed: int = 0) -> Optional[FaultPlan]:
    """Accept a FaultPlan, a compact spec string, or None."""
    if faults is None or isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, str):
        return parse_fault_plan(faults, seed=seed)
    raise ConfigurationError(
        f"faults must be a FaultPlan or a spec string, "
        f"got {type(faults).__name__}"
    )


@dataclass
class FaultEvent:
    """One fault occurrence and what the run did about it.

    ``action`` starts as ``"raised"`` (or ``"applied"`` for degraded links)
    and is updated by the recovery machinery to ``"retried"``,
    ``"replanned"``, or ``"fatal"``; ``recovery_seconds`` accumulates the
    modelled time the recovery charged for this event.
    """

    iteration: int
    kind: str
    label: str = ""
    cg_index: Optional[int] = None
    action: str = "raised"
    recovery_seconds: float = 0.0


class FaultInjector:
    """Per-run fault state: fires the plan's faults at the runtime hooks.

    The executors call :meth:`begin_iteration` at every iteration boundary;
    the transports call :meth:`on_dma` / :meth:`on_collective` per operation
    and :meth:`link_bandwidth_factor` when pricing a network link.  The
    injector records every fault it fires in :attr:`events` (the record that
    ends up on :class:`~repro.core.result.KMeansResult.fault_events`).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self.iteration = 0
        self.events: List[FaultEvent] = []
        #: indices of one-shot specs that already fired.
        self._fired: set = set()
        #: indices of degraded_link specs already announced.
        self._announced: set = set()

    # -- hooks ---------------------------------------------------------------------

    def begin_iteration(self, iteration: int) -> None:
        """Advance the clock; raise any CG failure scheduled for now."""
        self.iteration = iteration
        for i, spec in enumerate(self.plan.specs):
            if (spec.kind == "degraded_link" and i not in self._announced
                    and spec.active_at(iteration)):
                self._announced.add(i)
                self.events.append(FaultEvent(
                    iteration=iteration, kind=spec.kind, label="network",
                    cg_index=spec.cg_index, action="applied",
                ))
        for i, spec in enumerate(self.plan.specs):
            if (spec.kind == "cg_failure" and spec.iteration == iteration
                    and i not in self._fired):
                self._fired.add(i)
                self._raise(spec, label="iteration_boundary")

    def on_dma(self, label: str, nbytes: int) -> None:
        """Hook for every DMA transfer; may raise TransientDMAError."""
        self._check_transient("transient_dma", label)

    def on_collective(self, label: str, nbytes: int) -> None:
        """Hook for every collective; may raise CollectiveTimeoutError."""
        self._check_transient("collective_timeout", label)

    def link_bandwidth_factor(self) -> float:
        """Combined bandwidth derate of the degraded links active now."""
        factor = 1.0
        for spec in self.plan.specs:
            if spec.kind == "degraded_link" and spec.active_at(self.iteration):
                factor *= spec.bandwidth_factor
        return factor

    # -- internals -----------------------------------------------------------------

    def _check_transient(self, kind: str, label: str) -> None:
        if self.iteration < 1:  # faults never fire during setup
            return
        for i, spec in enumerate(self.plan.specs):
            if spec.kind != kind:
                continue
            if spec.iteration is not None:
                if spec.iteration == self.iteration and i not in self._fired:
                    self._fired.add(i)
                    self._raise(spec, label=label)
            elif spec.probability > 0.0 \
                    and self._rng.random() < spec.probability:
                self._raise(spec, label=label)

    def _raise(self, spec: FaultSpec, label: str) -> None:
        event = FaultEvent(iteration=self.iteration, kind=spec.kind,
                           label=label, cg_index=spec.cg_index)
        self.events.append(event)
        cls = _RAISING_KINDS[spec.kind]
        where = f" (CG {spec.cg_index})" if spec.kind == "cg_failure" else ""
        error = cls(
            f"injected {spec.kind}{where} at iteration {self.iteration} "
            f"during {label!r}",
            iteration=self.iteration, cg_index=spec.cg_index, label=label,
        )
        #: the recovery loop updates this event's action/recovery_seconds.
        error.event = event
        raise error
