"""Simulated MPI layer over core-group ranks: collective pricing.

The paper runs one MPI process per core group; collectives among CGs on the
same node go through shared DDR3, while collectives spanning nodes ride the
fat-tree network (16 GB/s bidirectional peak, derated across supernodes).
:class:`SimComm` prices that: it is addressed by *global CG index*,
resolves CG -> node -> supernode through the machine topology, and returns
each collective's modelled time from textbook cost formulas:

* ring allreduce:            ``2 (p-1)/p * V / bw + 2 (p-1) * lat``
* binomial-tree reduce/bcast: ``ceil(log2 p) * (lat + V / bw)`` each
* recursive doubling:         ``ceil(log2 p) * (lat + V / bw)``

where V is the payload volume, bw the worst link bandwidth among the member
nodes, and lat the matching hop latency.  The communicator carries no data:
the executors merge their partials through the execution engine's
map/combine/reduce seam and charge the times priced here to their ledger.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from ..errors import CommunicatorError, ConfigurationError
from ..machine.machine import Machine

#: Collective algorithm names accepted by SimComm.
ALGORITHMS = ("ring", "tree", "recursive-doubling")

#: Fraction of DDR3 bandwidth available to CG-to-CG transfers on one node.
#: Same-node "MPI" traffic is a memcpy through shared memory.
_ONNODE_BW_FACTOR = 2.0


class SimComm:
    """A communicator over a fixed, ordered set of core-group ranks.

    Parameters
    ----------
    machine:
        The machine whose topology prices the traffic.
    cg_indices:
        Global CG indices of the member ranks, in rank order.
    algorithm:
        Default collective algorithm (see :data:`ALGORITHMS`).
    injector:
        Optional :class:`~repro.runtime.faults.FaultInjector`; every
        priced collective passes through its hook (which may raise
        :class:`~repro.errors.CollectiveTimeoutError`) and link pricing
        honours its degraded-link bandwidth factor.
    """

    def __init__(self, machine: Machine, cg_indices: Sequence[int],
                 algorithm: str = "ring", injector=None) -> None:
        if len(cg_indices) == 0:
            raise CommunicatorError("communicator must have at least one rank")
        if len(set(cg_indices)) != len(cg_indices):
            raise CommunicatorError("duplicate CG index in communicator")
        if algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown collective algorithm {algorithm!r}; "
                f"expected one of {ALGORITHMS}"
            )
        self.machine = machine
        self.algorithm = algorithm
        self.injector = injector
        self._cgs: Tuple[int, ...] = tuple(int(i) for i in cg_indices)
        for cg in self._cgs:
            machine.node_of_cg(cg)  # validates range
        self._nodes = tuple(machine.node_of_cg(cg) for cg in self._cgs)

    # -- structure ---------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._cgs)

    # -- link pricing ---------------------------------------------------------------

    def _link(self) -> Tuple[float, float]:
        """(bandwidth bytes/s, latency s) of the worst link in this comm.

        An active ``degraded_link`` fault derates the bandwidth (latency is
        unaffected — the link is slow, not long).
        """
        nodes = set(self._nodes)
        net = self.machine.spec.network
        if len(nodes) <= 1:
            # All ranks on one node: shared-memory transport.
            bw = self.machine.spec.processor.cg.dma_bw * _ONNODE_BW_FACTOR
            lat = self.machine.spec.processor.cg.dma_latency
        else:
            same_super = not self.machine.topology.spans_supernodes(nodes)
            bw, lat = net.bandwidth(same_super), net.latency(same_super)
        if self.injector is not None:
            bw *= self.injector.link_bandwidth_factor()
        return bw, lat

    def _inject(self, label: str, nbytes: int) -> None:
        """Fault hook for every priced collective."""
        if self.injector is not None:
            self.injector.on_collective(label, nbytes)

    # -- cost model -------------------------------------------------------------------

    def allreduce_time(self, nbytes: int,
                       algorithm: Optional[str] = None,
                       label: str = "mpi.allreduce") -> float:
        """Modelled time of an allreduce of ``nbytes`` per rank."""
        self._inject(label, nbytes)
        return self._collective_time(nbytes, algorithm or self.algorithm,
                                     kind="allreduce")

    def bcast_time(self, nbytes: int, label: str = "mpi.bcast") -> float:
        self._inject(label, nbytes)
        p = self.size
        if p == 1 or nbytes == 0:
            return 0.0
        bw, lat = self._link()
        steps = math.ceil(math.log2(p))
        return steps * (lat + nbytes / bw)

    def allgather_time(self, nbytes_per_rank: int,
                       label: str = "mpi.allgather") -> float:
        """Ring allgather: each rank contributes ``nbytes_per_rank``."""
        self._inject(label, nbytes_per_rank)
        p = self.size
        if p == 1 or nbytes_per_rank == 0:
            return 0.0
        bw, lat = self._link()
        return (p - 1) * (lat + nbytes_per_rank / bw)

    def p2p_time(self, src_rank: int, dst_rank: int, nbytes: int) -> float:
        self._check_rank(src_rank)
        self._check_rank(dst_rank)
        a, b = self._nodes[src_rank], self._nodes[dst_rank]
        if a == b:
            if src_rank == dst_rank:
                return 0.0
            bw = self.machine.spec.processor.cg.dma_bw * _ONNODE_BW_FACTOR
            return self.machine.spec.processor.cg.dma_latency + nbytes / bw
        return self.machine.topology.point_to_point_time(a, b, nbytes)

    def _collective_time(self, nbytes: int, algorithm: str,
                         kind: str) -> float:
        if algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown collective algorithm {algorithm!r}"
            )
        p = self.size
        if p == 1 or nbytes == 0:
            return 0.0
        bw, lat = self._link()
        if algorithm == "ring":
            # reduce-scatter + allgather, each (p-1) steps of V/p bytes.
            return 2.0 * (p - 1) * (lat + (nbytes / p) / bw)
        if algorithm == "recursive-doubling":
            steps = math.ceil(math.log2(p))
            return steps * (lat + nbytes / bw)
        # binomial tree: reduce to root then broadcast back.
        steps = math.ceil(math.log2(p))
        return 2.0 * steps * (lat + nbytes / bw)

    # -- helpers ------------------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommunicatorError(
                f"rank {rank} out of range [0, {self.size})"
            )
