"""Simulated MPI layer over core-group ranks.

The paper runs one MPI process per core group; collectives among CGs on the
same node go through shared DDR3, while collectives spanning nodes ride the
fat-tree network (16 GB/s bidirectional peak, derated across supernode
boundaries).  :class:`SimComm` reproduces that: it is addressed by *global CG
index*, resolves CG -> node -> supernode through the machine topology, and
charges each collective with textbook cost formulas:

* ring allreduce:            ``2 (p-1)/p * V / bw + 2 (p-1) * lat``
* binomial-tree reduce/bcast: ``ceil(log2 p) * (lat + V / bw)`` each
* recursive doubling:         ``ceil(log2 p) * (lat + V / bw)``

where V is the payload volume, bw the worst link bandwidth among the member
nodes, and lat the matching hop latency.  Like the register-communication
layer, the collectives also *perform* the arithmetic on NumPy buffers so the
execute backend's numerics flow through the charged code path (the mpi4py
idiom of buffer-typed collectives, minus the actual wire).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CommunicatorError, ConfigurationError
from ..machine.machine import Machine
from .ledger import LedgerProtocol

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
    ledger:
        Ledger that collective costs are charged to.
    algorithm:
        Default collective algorithm (see :data:`ALGORITHMS`).
    injector:
        Optional :class:`~repro.runtime.faults.FaultInjector`; every
        collective passes through its hook (which may raise
        :class:`~repro.errors.CollectiveTimeoutError`) and link pricing
        honours its degraded-link bandwidth factor.
    """

    def __init__(self, machine: Machine, cg_indices: Sequence[int],
                 ledger: LedgerProtocol, algorithm: str = "ring",
                 injector=None) -> None:
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
        self.ledger = ledger
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

    @property
    def cg_indices(self) -> Tuple[int, ...]:
        return self._cgs

    def rank_of_cg(self, cg_index: int) -> int:
        try:
            return self._cgs.index(cg_index)
        except ValueError:
            raise CommunicatorError(
                f"CG {cg_index} is not a member of this communicator"
            ) from None

    def split(self, groups: Sequence[Sequence[int]]) -> List["SimComm"]:
        """Create one sub-communicator per group of member ranks."""
        comms = []
        for group in groups:
            members = [self._cgs[r] for r in group]
            comms.append(SimComm(self.machine, members, self.ledger,
                                 self.algorithm, injector=self.injector))
        return comms

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
        """Fault hook for every collective (cost query or data-carrying)."""
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

    # -- data-carrying collectives ----------------------------------------------------

    def allreduce_sum(self, buffers: Sequence[np.ndarray],
                      label: str = "mpi.allreduce",
                      algorithm: Optional[str] = None) -> np.ndarray:
        """Sum one buffer per rank; all ranks receive the total.

        Returns the summed array (callers copy it into per-rank state).
        """
        arr = self._validate_buffers(buffers)
        total = arr.sum(axis=0)
        self.ledger.charge(
            "network", label,
            self.allreduce_time(total.nbytes, algorithm, label=label)
        )
        return total

    def allreduce_min_pairs(
        self, values: Sequence[np.ndarray], payloads: Sequence[np.ndarray],
        label: str = "mpi.minloc",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Elementwise MINLOC across ranks.

        ``values[r]`` and ``payloads[r]`` are equal-length vectors on rank
        ``r``; the result picks, per element, the payload of the smallest
        value (ties to the lowest rank).  This is how partial per-CG argmins
        combine into the global assignment a(i).
        """
        vals = self._validate_buffers(values)
        pays = self._validate_buffers(payloads)
        if vals.shape != pays.shape:
            raise CommunicatorError(
                f"values/payloads shape mismatch: {vals.shape} vs {pays.shape}"
            )
        winner = np.argmin(vals, axis=0)
        cols = np.arange(vals.shape[1])
        best_vals = vals[winner, cols]
        best_pays = pays[winner, cols]
        nbytes = int(vals[0].nbytes + pays[0].nbytes)
        self.ledger.charge("network", label,
                           self.allreduce_time(nbytes, label=label))
        return best_vals, best_pays

    def allgather(self, buffers: Sequence[np.ndarray],
                  label: str = "mpi.allgather") -> np.ndarray:
        """Concatenate one buffer per rank along axis 0; all ranks get it."""
        if len(buffers) != self.size:
            raise CommunicatorError(
                f"expected {self.size} buffers, got {len(buffers)}"
            )
        out = np.concatenate([np.asarray(b) for b in buffers], axis=0)
        per_rank = max(int(np.asarray(b).nbytes) for b in buffers)
        self.ledger.charge("network", label,
                           self.allgather_time(per_rank, label=label))
        return out

    def bcast(self, buffer: np.ndarray, root: int = 0,
              label: str = "mpi.bcast") -> np.ndarray:
        """Broadcast ``buffer`` from ``root`` to all ranks."""
        self._check_rank(root)
        buffer = np.asarray(buffer)
        self.ledger.charge("network", label,
                           self.bcast_time(buffer.nbytes, label=label))
        return buffer

    # -- helpers ------------------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommunicatorError(
                f"rank {rank} out of range [0, {self.size})"
            )

    def _validate_buffers(self, buffers: Sequence[np.ndarray]) -> np.ndarray:
        if len(buffers) != self.size:
            raise CommunicatorError(
                f"expected one buffer per rank ({self.size}), "
                f"got {len(buffers)}"
            )
        arrays = [np.asarray(b) for b in buffers]
        first = arrays[0]
        for a in arrays[1:]:
            if a.shape != first.shape or a.dtype != first.dtype:
                raise CommunicatorError(
                    "collective buffers must agree in shape and dtype: "
                    f"{first.shape}/{first.dtype} vs {a.shape}/{a.dtype}"
                )
        return np.stack(arrays, axis=0)


def world_comm(machine: Machine, ledger: LedgerProtocol,
               algorithm: str = "ring") -> SimComm:
    """A communicator over every CG of the machine, in global CG order."""
    return SimComm(machine, range(machine.n_cgs), ledger, algorithm)
