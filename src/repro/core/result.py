"""Result containers for k-means runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..runtime.faults import FaultEvent
from ..runtime.ledger import TimeLedger
from ..runtime.supervisor import HostEvent


@dataclass(frozen=True)
class IterationStats:
    """Telemetry for one Lloyd iteration."""

    iteration: int
    #: O(C) evaluated with the assignments computed this iteration.
    inertia: float
    #: Largest per-centroid L2 movement produced by the Update step.
    centroid_shift: float
    #: Number of samples that changed cluster this iteration.
    n_reassigned: int
    #: Modelled seconds charged to this iteration (0.0 for the serial baseline).
    modelled_seconds: float = 0.0


@dataclass
class KMeansResult:
    """Outcome of a k-means run (any level).

    Attributes
    ----------
    centroids:
        Final (k, d) centroid matrix.
    assignments:
        (n,) centroid index per sample from the last Assign step; one
        Update stale against ``centroids`` after a ``max_iter`` or
        ``tol > 0`` stop.
    inertia:
        Final objective O(C) — mean squared distance to assigned centroid.
        ``lloyd`` and the Level 1-3 executors label against ``centroids``
        for it whenever ``assignments`` may be stale.
    n_iter:
        Iterations executed.
    converged:
        True if the centroid shift dropped to ``tol`` before ``max_iter``.
    history:
        Per-iteration telemetry.
    ledger:
        The simulator's time ledger (None for the serial baseline and for
        pure-numerics runs with ``model_costs=False``).
    level:
        Which partition level produced the result (0 = serial).
    fault_events:
        Every injected fault that fired during the run and how it was
        handled (empty when no fault plan was attached).
    host_events:
        Host-side occurrences recorded by the run supervisor — task
        retries, timeouts, quarantines, chaos firings, slow iterations,
        checkpoint resumes (empty when nothing noteworthy happened on the
        host).  Mirrors ``fault_events`` for the real machine running the
        numerics.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iter: int
    converged: bool
    history: List[IterationStats] = field(default_factory=list)
    ledger: Optional[TimeLedger] = None
    level: int = 0
    fault_events: List[FaultEvent] = field(default_factory=list)
    host_events: List[HostEvent] = field(default_factory=list)

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def d(self) -> int:
        return int(self.centroids.shape[1])

    @property
    def n(self) -> int:
        return int(self.assignments.shape[0])

    def mean_iteration_seconds(self) -> float:
        """Mean modelled one-iteration completion time (paper's metric).

        Returns 0.0 when no ledger was attached (serial baseline).
        """
        if self.ledger is None or self.ledger.n_iterations == 0:
            return 0.0
        return self.ledger.mean_iteration_time()

    def summary(self) -> str:
        """One-line human-readable description."""
        t = self.mean_iteration_seconds()
        timing = f", {t:.6f} s/iter (modelled)" if t else ""
        return (
            f"level {self.level} k-means: n={self.n} k={self.k} d={self.d}, "
            f"{self.n_iter} iter, inertia={self.inertia:.6g}, "
            f"converged={self.converged}{timing}"
        )
