"""Host-side run supervision: deadlines, watchdogs, and host events.

Everything in :mod:`repro.core` charges **modelled** Sunway seconds; this
module watches the *real* clock of the Python process running the numerics.
A :class:`RunSupervisor` wraps a convergence loop with

* a wall-clock **deadline** (``deadline_s``) — the run aborts with
  :class:`~repro.errors.DeadlineExceededError` at the next iteration
  boundary once the budget is spent,
* a per-iteration **watchdog** (``watchdog_s``) — iterations that take
  longer than the threshold are flagged (never killed: a slow iteration
  still produces correct numbers),
* a structured ``host_events`` record on
  :class:`~repro.core.result.KMeansResult`, mirroring how ``fault_events``
  records the *modelled* faults of PR 2.

Deadline checks run at iteration boundaries only: Python cannot preempt a
NumPy kernel mid-call, so a run may overshoot the deadline by up to one
iteration.  That is the same granularity at which checkpoints are taken,
so a deadline abort never loses more state than a crash would.

Selection: ``HierarchicalKMeans(..., deadline_s=300)``, the same knob on
the executors and :func:`~repro.core.lloyd.lloyd`, the CLI ``--deadline``
flag, or the ``REPRO_DEADLINE`` environment variable (read only when no
explicit ``deadline_s=`` is given).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from ..analysis.envvars import ENV_DEADLINE, read_float
from ..errors import ConfigurationError, DeadlineExceededError

@dataclass
class HostEvent:
    """One host-side occurrence during a supervised run.

    Mirrors :class:`~repro.runtime.faults.FaultEvent` for the host layer:
    ``kind`` is a short tag (``"task_retry"``, ``"task_timeout"``,
    ``"quarantine"``, ``"degraded_serial"``, ``"chaos"``,
    ``"slow_iteration"``, ``"deadline_exceeded"``, ``"rollback"``,
    ``"resume"``, and from the process engine's supervisor
    ``"worker_lost"``, ``"worker_respawn"``, ``"worker_hung"``,
    ``"poison_quarantine"``, ``"engine_fallback"``, ...),
    ``detail`` a human-readable elaboration, and
    ``seconds`` the measured host wall-clock time involved (0.0 when the
    event has no duration).
    """

    iteration: int
    kind: str
    detail: str = ""
    seconds: float = 0.0

    def describe(self) -> str:
        """One-line human-readable form (used by the CLI)."""
        extra = f" ({self.seconds:.3f}s)" if self.seconds else ""
        detail = f": {self.detail}" if self.detail else ""
        return f"iter {self.iteration} {self.kind}{detail}{extra}"


def check_budgets(deadline_s: Optional[float],
                  watchdog_s: Optional[float]) -> None:
    """Both wall-clock budgets must be positive or None."""
    if deadline_s is not None and not deadline_s > 0:
        raise ConfigurationError(
            f"deadline_s must be > 0 or None, got {deadline_s}"
        )
    if watchdog_s is not None and not watchdog_s > 0:
        raise ConfigurationError(
            f"watchdog_s must be > 0 or None, got {watchdog_s}"
        )


class RunSupervisor:
    """Watches one convergence loop against the host wall clock.

    Parameters
    ----------
    deadline_s:
        Wall-clock budget for the whole run in real seconds; ``None``
        disables the deadline.  Checked at every iteration boundary.
    watchdog_s:
        Per-iteration threshold in real seconds; iterations exceeding it
        are recorded as ``"slow_iteration"`` host events.  ``None``
        disables the watchdog.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, deadline_s: Optional[float] = None,
                 watchdog_s: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        check_budgets(deadline_s, watchdog_s)
        self.deadline_s = deadline_s
        self.watchdog_s = watchdog_s
        self._clock = clock
        self._lock = threading.Lock()
        self._t_start: Optional[float] = None
        self._t_iter: Optional[float] = None
        self._iteration = 0
        self.events: List[HostEvent] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm the deadline clock; called once before the first iteration."""
        self._t_start = self._clock()

    def elapsed(self) -> float:
        """Real seconds since :meth:`start` (0.0 if never started)."""
        if self._t_start is None:
            return 0.0
        return self._clock() - self._t_start

    def begin_iteration(self, iteration: int) -> None:
        """Deadline gate at the top of an iteration.

        Raises :class:`~repro.errors.DeadlineExceededError` when the
        wall-clock budget is already spent, after recording a
        ``"deadline_exceeded"`` host event.
        """
        self._iteration = iteration
        if self._t_start is None:
            self.start()
        if self.deadline_s is not None:
            spent = self.elapsed()
            if spent >= self.deadline_s:
                self.record("deadline_exceeded",
                            f"deadline {self.deadline_s:g}s spent before "
                            f"iteration {iteration}", seconds=spent)
                raise DeadlineExceededError(
                    f"run exceeded its {self.deadline_s:g}s wall-clock "
                    f"deadline after {spent:.3f}s "
                    f"({iteration - 1} iterations completed)"
                )
        self._t_iter = self._clock()

    def end_iteration(self, iteration: int) -> None:
        """Watchdog check at the bottom of an iteration."""
        if self._t_iter is None:
            return
        took = self._clock() - self._t_iter
        if self.watchdog_s is not None and took > self.watchdog_s:
            self.record("slow_iteration",
                        f"iteration took {took:.3f}s "
                        f"(watchdog {self.watchdog_s:g}s)", seconds=took)

    # -- event recording -----------------------------------------------------

    def record(self, kind: str, detail: str = "",
               seconds: float = 0.0) -> HostEvent:
        """Append one host event stamped with the current iteration."""
        event = HostEvent(iteration=self._iteration, kind=kind,
                          detail=detail, seconds=float(seconds))
        with self._lock:
            self.events.append(event)
        return event

    def absorb(self, engine: object) -> None:
        """Drain an engine's pending host events into this supervisor.

        Engine events are recorded without an iteration number (the engine
        does not know the loop's epoch); absorbing stamps them with the
        iteration currently in flight.
        """
        drain = getattr(engine, "drain_events", None)
        if drain is None:
            return
        for kind, detail, seconds in drain():
            self.record(kind, detail, seconds)


SupervisorLike = Union[RunSupervisor, None]


def resolve_supervisor(supervisor: SupervisorLike = None,
                       deadline_s: Optional[float] = None,
                       watchdog_s: Optional[float] = None) -> RunSupervisor:
    """Build (or pass through) the supervisor for one run.

    An explicit :class:`RunSupervisor` instance wins (its own knobs must
    not be contradicted).  Otherwise a fresh supervisor is built from
    ``deadline_s``/``watchdog_s``; when ``deadline_s`` is None the
    ``REPRO_DEADLINE`` environment variable is consulted, with empty or
    whitespace-only values counting as unset.
    """
    if isinstance(supervisor, RunSupervisor):
        if deadline_s is not None and deadline_s != supervisor.deadline_s:
            raise ConfigurationError(
                f"deadline_s={deadline_s} conflicts with the provided "
                f"supervisor instance (deadline_s={supervisor.deadline_s}); "
                f"pass one or the other"
            )
        return supervisor
    if deadline_s is None:
        deadline_s = read_float(ENV_DEADLINE)
    return RunSupervisor(deadline_s=deadline_s, watchdog_s=watchdog_s)
