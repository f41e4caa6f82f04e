"""Level 3 executor — dataflow + centroid + dimension (nkd) partition.

The paper's contribution (Algorithm 3).  One core group becomes the basic
computing unit: a sample's d dimensions are spread over the CG's 64 CPEs,
``m'group`` CGs form a *CG group* that collectively holds the k centroids
(one contiguous centroid slice per member CG, dimension-sliced the same way
as the samples), and the dataflow is split over CG groups.

Per iteration and sample block:

1. every CG of a group streams the block (dimension-sliced over its CPEs),
2. each CPE computes partial squared distances over its dim slice for the
   CG's centroid slice; a register-communication reduce over the mesh yields
   the CG's distances; a CG-local argmin gives the slice winner a(i)',
3. an MPI MINLOC over the group's CGs gives the global a(i),
4. each CG accumulates sums/counts for its own centroid slice,
5. slice owners AllReduce across CG groups and divide.

Because d lives on the CPE axis and k on the CG axis, ``k*d`` is bounded
only by ``m * LDM`` — the whole machine's scratchpad (constraint C1'') —
which is what lets k and d scale independently.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..machine.machine import Machine
from ..runtime.compute import distance_flops
from ..runtime.mpi import SimComm
from .block_tasks import strict_l3_assign
from .executor_base import LevelExecutor
from .partition import plan_level3
from .result import KMeansResult


class Level3Executor(LevelExecutor):
    """Simulated execution of the nkd-partition algorithm."""

    level = 3

    def __init__(self, machine: Machine, mprime_group: Optional[int] = None,
                 supernode_aware: bool = True, streaming: bool = False,
                 **kwargs) -> None:
        super().__init__(machine, **kwargs)
        self._mprime_request = mprime_group
        self._supernode_aware = supernode_aware
        self._streaming = bool(streaming)
        #: one communicator per CG group (for the MINLOC step)
        self._group_comms: List[SimComm] = []
        #: one communicator per member position (for the update AllReduce)
        self._member_comms: List[SimComm] = []

    # -- setup ---------------------------------------------------------------

    def setup(self, X: np.ndarray, C: np.ndarray) -> None:
        n, d = X.shape
        k = C.shape[0]
        if self._plan is None:
            self._plan = plan_level3(
                self.machine, n, k, d,
                mprime_group=self._mprime_request,
                supernode_aware=self._supernode_aware,
                streaming=self._streaming,
                dtype=X.dtype,
            )
        plan = self._plan

        self._group_comms = [
            SimComm(self.machine, members, self.collective_algorithm,
                    injector=self.injector)
            for members in plan.cg_groups
        ]
        self._member_comms = [
            SimComm(self.machine,
                    [plan.cg_groups[g][j] for g in range(plan.n_groups)],
                    self.collective_algorithm, injector=self.injector)
            for j in range(plan.mprime_group)
        ]
        # Initial distribution of centroid slices to every CG (epoch 0).
        if self.model_costs:
            widest = max(hi - lo for lo, hi in plan.centroid_slices)
            self.ledger.charge(
                "network", "l3.setup.scatter_centroids",
                self._member_comms[0].bcast_time(widest * d * self._itemsize),
            )

    # -- one iteration ------------------------------------------------------------

    def iterate(self, X: np.ndarray, C: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        plan = self.plan
        d = X.shape[1]
        k = C.shape[0]
        item = self._itemsize
        widest_k = max(hi - lo for lo, hi in plan.centroid_slices)
        widest_d = max(hi - lo for lo, hi in plan.dim_slices)

        # ---- Assign phase (CG groups fully parallel) ----
        # One block task per CG group.  Strict mode walks the real dataflow
        # — per-CPE dim-slice partial distances, mesh reduce, CG-local
        # argmin, MINLOC across member CGs — and must agree with the fast
        # path (the fidelity tests compare the two).  The merge runs under
        # the executor's reduction topology (schedule a pure function of
        # the group count, so engine-independent); the per-group partials
        # also feed the accumulate cost model below.
        pruned = self.kernel.name == "pruned"
        strict = (strict_l3_assign, (plan.centroid_slices, plan.dim_slices)) \
            if self.strict_cpe else None
        merged, partials, assignments, best_d2 = self._map_assign(
            X, C, plan.sample_blocks, self.reduce, strict=strict)
        global_sums, global_counts = merged.sums, merged.counts

        # ---- cost model (fixed group order, independent of the engine) ----
        if self.model_costs:
            dma_times: List[float] = []
            compute_times: List[float] = []
            minloc_times: List[float] = []
            accumulate_times: List[float] = []
            for g, members in enumerate(plan.cg_groups):
                lo, hi = plan.sample_blocks[g]
                b = hi - lo
                # Every member CG streams the whole block across its CPEs
                # plus its centroid slice traffic (the n*d*m'group/m
                # amplification of T''read; re-stream traffic when not fully
                # resident).
                cg_bytes = b * d * item \
                    + self.machine.cpes_per_cg \
                    * plan.cent_traffic_bytes_per_cpe()
                dma_times.append(self._dma.transfer_time(cg_bytes))
                # Each CPE covers (its dim slice) x (the CG's centroid
                # slice).
                if pruned:
                    # The group's actual evaluations split over the member
                    # CGs' centroid slices and each CG's dimension slices;
                    # each CPE pays its widest share plus 2 flops/sample
                    # of bound tests.  DMA is unchanged: the block still
                    # streams in full for the Update accumulation.
                    flops = (3.0 * partials[g].n_dist * widest_d
                             * widest_k / k + 2.0 * b)
                else:
                    flops = float(distance_flops(b, widest_k, widest_d))
                compute_times.append(self.compute.time_for_flops(
                    flops, n_cpes=1))
                # MINLOC across the group's CGs: (distance, index) per
                # sample.
                minloc_times.append(
                    self._group_comms[g].allreduce_time(b * 16))
                # Accumulation is dimension-parallel over the CG's CPEs; the
                # critical member holds the most-assigned centroid slice.
                counts = partials[g].counts
                slice_loads = [
                    int(counts[s_lo:s_hi].sum()) * widest_d
                    for s_lo, s_hi in plan.centroid_slices
                ]
                accumulate_times.append(self.compute.time_for_flops(
                    max(slice_loads), n_cpes=1))
            self.charge_stream_phases("l3.assign", dma_times, compute_times)
            # Partial-distance reduce across the mesh (dim slices -> CG
            # total).
            max_block = max(hi - lo for lo, hi in plan.sample_blocks)
            self.ledger.charge("regcomm", "l3.assign.dim_reduce",
                               self._regcomm.allreduce_time(
                                   max_block * widest_k * item))
            self.ledger.charge_parallel("network", "l3.assign.minloc",
                                        minloc_times)
            self.ledger.charge_parallel("compute", "l3.update.accumulate",
                                        accumulate_times)

        # ---- Update phase: AllReduce per centroid slice across CG groups ----
        # The cross-group merge already ran inside map_reduce; here each
        # slice's modelled allreduce is priced (allreduce_time fires the
        # same fault-injection probe as the data-carrying collective did).
        if plan.n_groups > 1:
            member_times: List[float] = []
            for j, (lo_k, hi_k) in enumerate(plan.centroid_slices):
                if self.model_costs:
                    comm = self._member_comms[j]
                    payload = ((hi_k - lo_k) * d + (hi_k - lo_k)) * item
                    member_times.append(comm.allreduce_time(payload))
            # The m'group slice AllReduces proceed concurrently (disjoint
            # rank sets); the slowest member position is the critical path.
            if self.model_costs:
                self.ledger.charge_parallel(
                    "network", "l3.update.inter_group_allreduce",
                    member_times)

        # Divide: dimension-parallel across each CG's CPEs.
        if self.model_costs:
            self.ledger.charge("compute", "l3.update.divide",
                               self.compute.time_for_flops(
                                   widest_k * widest_d, n_cpes=1))
        new_C = self.update_step(global_sums, global_counts, C,
                                 X=X, best_d2=best_d2)
        if pruned:
            # Last act of the iteration — after every fault-prone charge —
            # so a faulted iteration never half-commits bound state.
            self._commit_pruned_state(C, assignments, best_d2, merged,
                                      partials)
        return assignments, new_C


def run_level3(X: np.ndarray, centroids: np.ndarray, machine: Machine,
               mprime_group: Optional[int] = None, max_iter: int = 100,
               tol: float = 0.0, supernode_aware: bool = True,
               **executor_kwargs: object) -> KMeansResult:
    """Convenience wrapper: plan, execute, and return the result."""
    executor = Level3Executor(machine, mprime_group=mprime_group,
                              supernode_aware=supernode_aware,
                              **executor_kwargs)
    return executor.run(X, centroids, max_iter=max_iter, tol=tol)
