"""Register communication across a core group's 8x8 CPE mesh: pricing.

The SW26010 provides 8 row and 8 column communication buses that let CPEs
exchange register values without touching memory — the paper measures this
at 46.4 GB/s and reports a "3x to 4x speedup than other on-chip and Internet
communication techniques" for the AllReduce bottleneck (section III.A).

Intra-CG collectives run in two sweeps on the mesh: a reduction along rows
(each row bus combines its 8 CPEs) followed by a reduction along the first
column, then the mirror broadcast.  That gives ``rows + cols``
hop-latencies and moves every payload byte twice (reduce + broadcast),
which is the cost shape priced here.  No data moves through this module:
the executors merge their partials through the execution engine and charge
the times priced here to their ledger.
"""

from __future__ import annotations

from ..errors import CommunicatorError
from ..machine.specs import CGSpec


class RegisterComm:
    """Collective pricing over the CPEs of one core group.

    Parameters
    ----------
    cg_spec:
        Mesh geometry and register-bus bandwidth/latency.
    injector:
        Optional :class:`~repro.runtime.faults.FaultInjector`; mesh
        allreduces pass through its collective hook, which may raise
        :class:`~repro.errors.CollectiveTimeoutError`.
    """

    def __init__(self, cg_spec: CGSpec, injector=None) -> None:
        self.spec = cg_spec
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
