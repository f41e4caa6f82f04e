"""Level 2 executor — dataflow + centroid (nk) partition, Algorithm 2.

``mgroup`` CPEs inside a core group form a *CPE group* that collectively
holds the centroid set, one slice per member.  Every member reads the same
sample, computes a partial nearest-centroid over its slice (a(i)'), and a
MINLOC reduction over the group produces the global a(i).  Accumulators are
sliced the same way; updating them needs an AllReduce per slice across all
CPE groups.

This reproduces the two-level-memory design of Bender et al. on Trinity —
including its failure mode: the full sample must still fit one CPE's LDM
(constraint C2), so d cannot scale past the scratchpad no matter how many
cores are added.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..machine.machine import Machine
from ..runtime.compute import distance_flops
from ..runtime.mpi import SimComm
from .block_tasks import strict_l2_assign
from .executor_base import LevelExecutor
from .partition import plan_level2
from .result import KMeansResult


class Level2Executor(LevelExecutor):
    """Simulated execution of the nk-partition algorithm."""

    level = 2

    def __init__(self, machine: Machine, mgroup: Optional[int] = None,
                 streaming: bool = False, **kwargs) -> None:
        super().__init__(machine, **kwargs)
        self._mgroup_request = mgroup
        self._streaming = bool(streaming)
        self._comm: Optional[SimComm] = None
        self._groups_by_cg: Dict[int, List[int]] = {}

    # -- setup ---------------------------------------------------------------

    def setup(self, X: np.ndarray, C: np.ndarray) -> None:
        n, d = X.shape
        k = C.shape[0]
        if self._plan is None:
            self._plan = plan_level2(self.machine, n, k, d,
                                     mgroup=self._mgroup_request,
                                     streaming=self._streaming,
                                     dtype=X.dtype)
        plan = self._plan

        by_cg: Dict[int, List[int]] = defaultdict(list)
        for g in range(plan.n_groups):
            by_cg[plan.cg_of_group[g]].append(g)
        self._groups_by_cg = dict(by_cg)

        active_cgs = sorted(self._groups_by_cg)
        self._comm = SimComm(self.machine, active_cgs,
                             self.collective_algorithm,
                             injector=self.injector)
        # Initial scatter of centroid slices to every group member.
        if self.model_costs:
            self.ledger.charge(
                "network", "l2.setup.scatter_centroids",
                self._comm.bcast_time(k * d * self._itemsize),
            )

    # -- one iteration ------------------------------------------------------------

    def iterate(self, X: np.ndarray, C: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        plan = self.plan
        d = X.shape[1]
        k = C.shape[0]
        item = self._itemsize
        assert self._comm is not None
        widest_slice = max(hi - lo for lo, hi in plan.centroid_slices)

        # ---- Assign phase: numerics fan out over the execution engine ----
        # One block task per CPE group.  Strict mode walks the hardware
        # dataflow: each member CPE takes a slice-local argmin over its
        # centroid slice (line 9's a(i)'), then a MINLOC (line 10) combines
        # the mgroup partial winners.  The merge mirrors the hardware
        # hierarchy: partials reduce within each CG first, then across CGs
        # in sorted-CG order — a grouped topology whose schedule depends
        # only on the group layout.  The per-group partials also feed the
        # accumulate cost model below.
        topology = self.reduce.for_groups(
            [self._groups_by_cg[cg] for cg in sorted(self._groups_by_cg)])
        pruned = self.kernel.name == "pruned"
        strict = (strict_l2_assign, (plan.centroid_slices,)) \
            if self.strict_cpe else None
        merged, partials, assignments, best_d2 = self._map_assign(
            X, C, plan.sample_blocks, topology, strict=strict)
        global_sums, global_counts = merged.sums, merged.counts

        # ---- cost model (fixed CG/group order, independent of the engine) ----
        if self.model_costs:
            dma_times: List[float] = []
            compute_times: List[float] = []
            accumulate_times: List[float] = []
            for cg_index, groups in sorted(self._groups_by_cg.items()):
                cg_bytes = 0
                for g in groups:
                    lo, hi = plan.sample_blocks[g]
                    b = hi - lo
                    # Every member CPE streams the whole block (the
                    # n*d*mgroup/m amplification of T'read) plus its centroid
                    # slice traffic (slice bytes once when resident,
                    # re-streamed per stage otherwise — see StreamingInfo).
                    cg_bytes += (b * d * plan.mgroup) * item \
                        + plan.mgroup * plan.cent_traffic_bytes_per_cpe()
                    # Member CPEs work concurrently, each over its slice.
                    if pruned:
                        # The group's actual evaluations split over the
                        # mgroup slice owners; each pays its widest-slice
                        # share plus 2 flops/sample of bound tests.  DMA
                        # is unchanged: the block still streams in full.
                        flops = (3.0 * partials[g].n_dist * d
                                 * widest_slice / k + 2.0 * b)
                    else:
                        flops = float(distance_flops(b, widest_slice, d))
                    compute_times.append(self.compute.time_for_flops(
                        flops, n_cpes=1))
                    # Accumulation load per member = samples assigned to its
                    # slice; the critical path is the most loaded member.
                    counts = partials[g].counts
                    slice_loads = [
                        int(counts[s_lo:s_hi].sum()) * d
                        for s_lo, s_hi in plan.centroid_slices
                    ]
                    accumulate_times.append(self.compute.time_for_flops(
                        max(slice_loads), n_cpes=1))
                dma_times.append(self._dma.transfer_time(cg_bytes))
            self.charge_stream_phases("l2.assign", dma_times, compute_times)

            # MINLOC over each CPE group (line 10): one (value, index) pair
            # per sample travels the mesh buses; groups operate concurrently.
            max_block = max(hi - lo for lo, hi in plan.sample_blocks)
            self.ledger.charge("regcomm", "l2.assign.minloc",
                               self._regcomm.allreduce_time(max_block * 16))

            self.ledger.charge_parallel("compute", "l2.update.accumulate",
                                        accumulate_times)

        # ---- Update phase: two-stage AllReduce of sliced accumulators ----
        # Both stages already ran (in this exact hierarchical order) inside
        # map_reduce; here each stage's modelled cost is charged.
        # allreduce_time fires the same fault-injection probe, with the
        # same label and payload, as the data-carrying collective it
        # prices.
        payload = (k * d + k) * item
        if self.model_costs:
            self.ledger.charge("regcomm", "l2.update.intra_cg_allreduce",
                               self._regcomm.allreduce_time(payload))
        if self._comm.size > 1:
            self.ledger.charge(
                "network", "l2.update.inter_cg_allreduce.sums",
                self._comm.allreduce_time(
                    global_sums.nbytes,
                    label="l2.update.inter_cg_allreduce.sums"))
            self.ledger.charge(
                "network", "l2.update.inter_cg_allreduce.counts",
                self._comm.allreduce_time(
                    global_counts.nbytes,
                    label="l2.update.inter_cg_allreduce.counts"))

        # Divide: each member CPE finishes its own slice.
        if self.model_costs:
            self.ledger.charge("compute", "l2.update.divide",
                               self.compute.time_for_flops(widest_slice * d,
                                                           n_cpes=1))
        new_C = self.update_step(global_sums, global_counts, C,
                                 X=X, best_d2=best_d2)
        if pruned:
            # Last act of the iteration — after every fault-prone charge —
            # so a faulted iteration never half-commits bound state.
            self._commit_pruned_state(C, assignments, best_d2, merged,
                                      partials)
        return assignments, new_C


def run_level2(X: np.ndarray, centroids: np.ndarray, machine: Machine,
               mgroup: Optional[int] = None, max_iter: int = 100,
               tol: float = 0.0, **executor_kwargs: object) -> KMeansResult:
    """Convenience wrapper: plan, execute, and return the result."""
    executor = Level2Executor(machine, mgroup=mgroup, **executor_kwargs)
    return executor.run(X, centroids, max_iter=max_iter, tol=tol)
