"""Register communication across a core group's 8x8 CPE mesh.

The SW26010 provides 8 row and 8 column communication buses that let CPEs
exchange register values without touching memory — the paper measures this
at 46.4 GB/s and reports a "3x to 4x speedup than other on-chip and Internet
communication techniques" for the AllReduce bottleneck (section III.A).

Intra-CG collectives are implemented in two sweeps on the mesh: a reduction
along rows (each row bus combines its 8 CPEs) followed by a reduction along
the first column, then the mirror broadcast.  That gives
``rows + cols`` hop-latencies and moves every payload byte twice (reduce +
broadcast), which is the cost shape charged here.

The module also *performs* the reductions on real NumPy buffers so the
execute backend's arithmetic goes through the same code path that is being
charged for.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import CommunicatorError
from ..machine.specs import CGSpec
from .ledger import LedgerProtocol


class RegisterComm:
    """Collectives over the CPEs of one core group.

    Parameters
    ----------
    cg_spec:
        Mesh geometry and register-bus bandwidth/latency.
    ledger:
        Ledger the collective times are charged to.
    injector:
        Optional :class:`~repro.runtime.faults.FaultInjector`; mesh
        allreduces pass through its collective hook, which may raise
        :class:`~repro.errors.CollectiveTimeoutError`.
    """

    def __init__(self, cg_spec: CGSpec, ledger: LedgerProtocol,
                 injector=None) -> None:
        self.spec = cg_spec
        self.ledger = ledger
        self.injector = injector

    # -- cost model ------------------------------------------------------------

    def _sweep_hops(self) -> int:
        """Bus hops of one full mesh sweep (rows then the spine column)."""
        return self.spec.mesh_rows + self.spec.mesh_cols

    def reduce_time(self, nbytes: int) -> float:
        """Modelled time of a mesh-wide reduction of ``nbytes`` payload."""
        if nbytes < 0:
            raise CommunicatorError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return (self._sweep_hops() * self.spec.register_latency
                + nbytes / self.spec.register_bw)

    def broadcast_time(self, nbytes: int) -> float:
        """Broadcast has the mirror cost of a reduction on this mesh."""
        return self.reduce_time(nbytes)

    def allreduce_time(self, nbytes: int,
                       label: str = "regcomm.allreduce") -> float:
        """AllReduce = reduce sweep + broadcast sweep.

        Every mesh allreduce — the executors charge through this entry —
        passes the fault injector's collective hook first.
        """
        if self.injector is not None:
            self.injector.on_collective(label, nbytes)
        return self.reduce_time(nbytes) + self.broadcast_time(nbytes)

    # -- data-carrying collectives ----------------------------------------------

    def allreduce_sum(self, buffers: Sequence[np.ndarray],
                      label: str = "regcomm.allreduce") -> np.ndarray:
        """Sum per-CPE buffers; every CPE ends with the total.

        ``buffers`` holds one array per participating CPE (they must agree in
        shape and dtype).  Returns the elementwise sum; the caller distributes
        it back to the per-CPE state.  Charges one mesh allreduce.
        """
        arr = self._validate(buffers)
        total = arr.sum(axis=0)
        self.ledger.charge("regcomm", label, self.allreduce_time(total.nbytes))
        return total

    def reduce_min_pairs(self, values: Sequence[float],
                         payload: Sequence[object],
                         label: str = "regcomm.minloc") -> object:
        """MINLOC-style reduction: return the payload of the smallest value.

        Used to combine per-CPE partial argmin results (value = distance,
        payload = centroid index).  Ties resolve to the lowest CPE rank,
        matching a deterministic hardware reduction tree.
        """
        if len(values) == 0 or len(values) != len(payload):
            raise CommunicatorError(
                "values and payload must be equal-length and non-empty"
            )
        best = int(np.argmin(np.asarray(values, dtype=np.float64)))
        per_item = 16  # one double + one index per CPE on the bus
        self.ledger.charge(
            "regcomm", label, self.allreduce_time(per_item * len(values))
        )
        return payload[best]

    def broadcast(self, buffer: np.ndarray, n_cpes: Optional[int] = None,
                  label: str = "regcomm.bcast") -> np.ndarray:
        """Broadcast a buffer from one CPE to the mesh; returns the buffer."""
        if n_cpes is not None and not 1 <= n_cpes <= self.spec.n_cpes:
            raise CommunicatorError(
                f"n_cpes must be in [1, {self.spec.n_cpes}], got {n_cpes}"
            )
        self.ledger.charge("regcomm", label, self.broadcast_time(buffer.nbytes))
        return buffer

    @staticmethod
    def _validate(buffers: Sequence[np.ndarray]) -> np.ndarray:
        if len(buffers) == 0:
            raise CommunicatorError("allreduce over zero CPEs")
        first = buffers[0]
        for b in buffers[1:]:
            if b.shape != first.shape or b.dtype != first.dtype:
                raise CommunicatorError(
                    "allreduce buffers must agree in shape and dtype: "
                    f"{first.shape}/{first.dtype} vs {b.shape}/{b.dtype}"
                )
        return np.stack([np.asarray(b) for b in buffers], axis=0)
