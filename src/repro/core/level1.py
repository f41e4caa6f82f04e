"""Level 1 executor — dataflow (n) partition, the paper's Algorithm 1.

Every active CPE holds the *entire* centroid set in its LDM and streams a
contiguous block of samples: it assigns each sample to its nearest centroid
and accumulates per-centroid vector sums and counts.  The Update step is two
AllReduce operations — register communication inside each CG, MPI across
CGs — followed by the division.

This is the classic design used on Jaguar [Kumar et al.] and Gordon [Cai et
al.]; it scales n but caps k and d jointly by a single CPE's 64 KB LDM
(constraint C1).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..machine.machine import Machine
from ..runtime.compute import distance_flops
from ..runtime.mpi import SimComm
from .executor_base import LevelExecutor
from .partition import plan_level1
from .result import KMeansResult


class Level1Executor(LevelExecutor):
    """Simulated execution of the n-partition algorithm."""

    level = 1

    def __init__(self, machine: Machine, **kwargs) -> None:
        super().__init__(machine, **kwargs)
        self._comm: Optional[SimComm] = None
        #: active CPE units per CG: cg_index -> list of unit ids
        self._units_by_cg: Dict[int, List[int]] = {}

    # -- setup ------------------------------------------------------------------

    def setup(self, X: np.ndarray, C: np.ndarray) -> None:
        n, d = X.shape
        k = C.shape[0]
        if self._plan is None:
            self._plan = plan_level1(self.machine, n, k, d, dtype=X.dtype)
        plan = self._plan

        by_cg: Dict[int, List[int]] = defaultdict(list)
        for unit in range(plan.units):
            by_cg[plan.cg_of_unit[unit]].append(unit)
        self._units_by_cg = dict(by_cg)

        active_cgs = sorted(self._units_by_cg)
        self._comm = SimComm(self.machine, active_cgs,
                             self.collective_algorithm,
                             injector=self.injector)

        # One-time broadcast of the initial centroids to every active CPE
        # (iteration epoch 0 in the ledger).
        if self.model_costs:
            self.ledger.charge(
                "network", "l1.setup.bcast_centroids",
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

        # ---- Assign phase: fully parallel over active CPEs ----
        # The per-unit numerics (fused assign + accumulate) fan out over the
        # host execution engine, one block task per unit.  The merge
        # mirrors the hardware hierarchy: partials reduce within each CG
        # first, then across CGs in sorted-CG order — a grouped topology
        # whose schedule depends only on the unit layout, so the result is
        # engine-independent.
        pruned = self.kernel.name == "pruned"
        topology = self.reduce.for_groups(
            [self._units_by_cg[cg] for cg in sorted(self._units_by_cg)])
        merged, partials, assignments, best_d2 = self._map_assign(
            X, C, plan.sample_blocks, topology)
        global_sums, global_counts = merged.sums, merged.counts

        # ---- cost model (fixed CG/unit order, independent of the engine) ----
        if self.model_costs:
            dma_times: List[float] = []       # one per CG (shared engine)
            compute_times: List[float] = []   # one per CPE
            for cg_index, units in sorted(self._units_by_cg.items()):
                cg_bytes = 0
                for unit in units:
                    lo, hi = plan.sample_blocks[unit]
                    b = hi - lo
                    # Sample stream + per-iteration centroid refresh, per
                    # paper's Tread = (n*d/m + k*d)/B.
                    cg_bytes += (b * d + k * d) * item
                    if pruned:
                        # Charge the distance work actually performed
                        # (scaled by the unit's evaluation count) plus 2
                        # flops/sample of bound tests, so the cost model
                        # sees the pruning win.  DMA is unchanged: the
                        # block still streams in full for the Update
                        # accumulation.
                        flops = (3.0 * partials[unit].n_dist * d
                                 + 2.0 * b + b * d)
                    else:
                        flops = float(distance_flops(b, k, d)
                                      + b * d)  # accumulate adds
                    compute_times.append(self.compute.time_for_flops(
                        flops, n_cpes=1))
                dma_times.append(self._dma.transfer_time(cg_bytes))
            self.charge_stream_phases("l1.assign", dma_times, compute_times)

        # ---- Update phase: AllReduce within CG (register comm) ----
        # The within-CG and cross-CG merges already ran (in this exact
        # hierarchical order) inside map_reduce; here the modelled cost of
        # each stage is charged, every CG performing the same-size mesh
        # allreduce concurrently.
        payload = (k * d + k) * item
        if self.model_costs:
            self.ledger.charge("regcomm", "l1.update.intra_cg_allreduce",
                               self._regcomm.allreduce_time(payload))

        # ---- AllReduce across CGs (MPI) ----
        # allreduce_time fires the same fault-injection probe, with the
        # same label and payload, as the data-carrying collective it
        # prices.
        if self._comm.size > 1:
            self.ledger.charge(
                "network", "l1.update.inter_cg_allreduce.sums",
                self._comm.allreduce_time(
                    global_sums.nbytes,
                    label="l1.update.inter_cg_allreduce.sums"))
            self.ledger.charge(
                "network", "l1.update.inter_cg_allreduce.counts",
                self._comm.allreduce_time(
                    global_counts.nbytes,
                    label="l1.update.inter_cg_allreduce.counts"))

        # ---- Divide (line 15) — every CPE updates its local copy ----
        if self.model_costs:
            self.ledger.charge("compute", "l1.update.divide",
                               self.compute.time_for_flops(k * d, n_cpes=1))
        new_C = self.update_step(global_sums, global_counts, C,
                                 X=X, best_d2=best_d2)
        if pruned:
            # Last act of the iteration — after every fault-prone charge —
            # so a faulted iteration never half-commits bound state.
            self._commit_pruned_state(C, assignments, best_d2, merged,
                                      partials)
        return assignments, new_C


def run_level1(X: np.ndarray, centroids: np.ndarray, machine: Machine,
               max_iter: int = 100, tol: float = 0.0,
               **executor_kwargs: object) -> KMeansResult:
    """Convenience wrapper: plan, execute, and return the result."""
    executor = Level1Executor(machine, **executor_kwargs)
    return executor.run(X, centroids, max_iter=max_iter, tol=tol)
