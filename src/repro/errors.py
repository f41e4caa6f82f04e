"""Exception hierarchy for the repro package.

All errors raised by this package derive from :class:`ReproError`, so callers
can catch one type at an API boundary.  The memory/partition errors mirror the
failure modes of the real machine: a configuration that would overflow a CPE's
64 KB LDM on the Sunway raises :class:`LDMOverflowError` here, and a workload
that no partition plan can place raises :class:`PartitionError`.
"""

from __future__ import annotations

import os
import sys
import warnings
from typing import Type

#: Every module of the package lives under this directory.
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A machine or algorithm configuration is inconsistent or out of range."""


class LDMOverflowError(ReproError):
    """An allocation would exceed a CPE's Local Directive Memory budget.

    Attributes
    ----------
    requested:
        Bytes requested by the failing allocation.
    available:
        Bytes still free in the LDM at the time of the request.
    capacity:
        Total LDM capacity in bytes.
    """

    def __init__(self, requested: int, available: int, capacity: int,
                 label: str = "") -> None:
        self.requested = int(requested)
        self.available = int(available)
        self.capacity = int(capacity)
        self.label = label
        what = f" for {label!r}" if label else ""
        super().__init__(
            f"LDM overflow{what}: requested {requested} B, "
            f"available {available} B of {capacity} B"
        )


class PartitionError(ReproError):
    """No feasible partition plan exists for the requested (n, k, d, machine)."""


class CommunicatorError(ReproError):
    """Invalid use of a simulated communicator (bad rank, size mismatch...)."""


class ConvergenceWarning(UserWarning):
    """k-means stopped on the iteration cap before centroids stabilised."""


def warn_at_caller(message: str, category: Type[Warning]) -> None:
    """Warn at the first stack frame outside the package: the user's call.

    A fixed ``stacklevel`` would name a line inside the package, which a
    module-scoped warnings filter in user code cannot target.
    (``warnings.warn(skip_file_prefixes=...)`` does this from Python 3.12;
    the package supports 3.10.)
    """
    frame = sys._getframe(1)
    level = 2
    while frame.f_back is not None \
            and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame = frame.f_back
        level += 1
    warnings.warn(message, category, stacklevel=level)


class DataShapeError(ReproError):
    """Input data does not have the shape an algorithm requires."""


class FaultError(ReproError):
    """Base class for injected machine faults (see :mod:`repro.runtime.faults`).

    Attributes
    ----------
    iteration:
        Ledger epoch during which the fault fired (0 = setup).
    cg_index:
        Core group the fault targets, when the fault has a location.
    label:
        Phase label of the operation that hit the fault (e.g. the DMA or
        collective label), for diagnostics.
    transient:
        Class-level flag: True when a bounded retry can clear the fault,
        False for permanent failures (a dead core group stays dead).
    """

    transient: bool = True

    def __init__(self, message: str, *, iteration: int | None = None,
                 cg_index: int | None = None, label: str = "") -> None:
        self.iteration = iteration
        self.cg_index = cg_index
        self.label = label
        super().__init__(message)


class CGFailedError(FaultError):
    """A core group failed permanently; its work must be re-placed."""

    transient = False


class TransientDMAError(FaultError):
    """A DMA transfer was corrupted or dropped; retrying may succeed."""


class CollectiveTimeoutError(FaultError):
    """A collective did not complete in time; retrying may succeed."""


class NumericalFaultError(FaultError):
    """An iteration produced non-finite centroids or inertia.

    Raised by the per-iteration numerical guard when NaN/Inf leaks into
    the centroid matrix or the objective.  Transient: a NaN injected at
    the engine seam (or a corrupted partial) clears on a clean re-run,
    and the ``replan`` policy rolls back to the last checkpoint instead.
    """


class IntegrityError(FaultError):
    """Silent data corruption detected by the integrity layer.

    Raised when an ABFT checksum on a reduction partial, the CRC32 of a
    shared-arena segment, or the SHA-256 manifest of a checkpoint file
    fails verification (see :mod:`repro.runtime.integrity`).  Transient:
    under ``integrity="repair"`` the engine recomputes the smallest
    corrupted subtree/block, and persistent corruption escalates through
    the ordinary recovery policies (rollback/replan restore the last
    verified checkpoint).

    Attributes
    ----------
    path:
        Offending file for on-disk corruption (checkpoint npz), else None.
    location:
        Short description of where verification failed (e.g.
        ``"partial 3"``, ``"share:X"``, ``"final fold"``).
    """

    def __init__(self, message: str, *, path: str | None = None,
                 location: str = "", iteration: int | None = None) -> None:
        self.path = path
        self.location = location
        super().__init__(message, iteration=iteration)


class HostFaultError(ReproError):
    """Base class for *host-side* failures (the real Python process).

    Distinct from :class:`FaultError`, which models faults of the
    simulated Sunway machine: host faults are raised by the execution
    engine and the run supervisor about the process actually running
    the numerics, and deliberately do not flow through the modelled
    recovery policies.
    """


class ChaosError(HostFaultError):
    """An injected host-chaos block-task failure (see repro.runtime.chaos)."""

    def __init__(self, message: str, *, task_id: int | None = None,
                 kind: str = "") -> None:
        self.task_id = task_id
        self.kind = kind
        super().__init__(message)


class TaskTimeoutError(HostFaultError):
    """A block task exceeded the engine's per-task timeout on every attempt."""


class DeadlineExceededError(HostFaultError):
    """The run supervisor's wall-clock deadline expired mid-run."""
