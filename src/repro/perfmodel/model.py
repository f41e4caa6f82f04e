"""Analytic per-iteration cost model for the three partition levels.

The model prices the same phase structure the execute backend charges —
DMA streaming, CPE arithmetic, register-communication reductions, MPI
collectives — but analytically, so it scales to the paper's full machine
(4,096 nodes) in microseconds of wall time.  It adds the one mechanism the
laptop-scale executor never hits: **LDM residency and centroid
re-streaming** (see :mod:`repro.perfmodel.params`): when the per-CPE
centroid + accumulator working set exceeds the scratchpad, the non-resident
fraction must be re-fetched from main memory for every staged sample block,
multiplying DMA traffic.  This term is what makes Level 2 collapse as k*d
grows while Level 3 — which shrinks the per-CPE working set by the CG-group
size — keeps it resident, reproducing the crossovers of Figures 7-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.partition import (
    LDM_OVERHEAD_BYTES,
    STREAM_BUFFERS,
    StreamingInfo,
    stream_gate,
    streaming_info,
)
from ..errors import ConfigurationError
from ..machine.specs import MachineSpec
from .params import DEFAULT_PARAMS, MachineParams, ModelParams, machine_params

#: Candidate mgroup values for Level 2 (powers of two up to the mesh size).
_MGROUP_CANDIDATES = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class CostPrediction:
    """Modelled one-iteration completion time and its breakdown."""

    level: int
    n: int
    k: int
    d: int
    feasible: bool
    reason: str = ""
    #: Seconds per phase category.
    overhead: float = 0.0
    dma: float = 0.0
    compute: float = 0.0
    regcomm: float = 0.0
    network: float = 0.0
    #: Chosen partition parameters.
    mgroup: int = 0
    mprime_group: int = 0
    n_groups: int = 0
    #: Fraction of the centroid working set resident in LDM.
    resident_fraction: float = 1.0
    #: Fine-grained phase times for reporting/ablation.
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """One-iteration completion time (inf when infeasible)."""
        if not self.feasible:
            return math.inf
        return (self.overhead + self.dma + self.compute + self.regcomm
                + self.network)


class PerformanceModel:
    """Prices one Lloyd iteration of each level on a machine spec.

    Parameters
    ----------
    spec:
        Machine description (any node count; nothing is materialised).
    params:
        Calibration constants; defaults reproduce the paper's setup.
    """

    def __init__(self, spec: MachineSpec,
                 params: ModelParams = DEFAULT_PARAMS) -> None:
        self.spec = spec
        self.mp: MachineParams = machine_params(spec)
        self.params = params

    # -- shared machinery ---------------------------------------------------

    def _residency(self, d_slice: int, k_slice: int,
                   samples_per_cpe: float) -> StreamingInfo:
        """Residency of a k_slice x d_slice centroid slice on one CPE.

        The planner's own analysis (:func:`~repro.core.partition.streaming_info`)
        at the model's element size; a fractional sample share rounds up.
        """
        return streaming_info(d_slice, k_slice * d_slice, k_slice,
                              math.ceil(samples_per_cpe), self.mp.ldm_bytes,
                              self.params.itemsize)

    def _allreduce(self, ranks: int, nbytes: float,
                   nodes_spanned: int) -> float:
        """Allreduce time over ``ranks`` of ``nbytes`` payload each.

        MPI libraries switch between algorithms by message size; we model
        that as the better of bandwidth-optimal ring and latency-optimal
        recursive doubling.
        """
        if ranks <= 1 or nbytes <= 0:
            return 0.0
        bw = self.mp.network_bw(nodes_spanned)
        lat = self.mp.network_lat(nodes_spanned)
        ring = 2.0 * (ranks - 1) * (lat + (nbytes / ranks) / bw)
        steps = math.ceil(math.log2(ranks))
        doubling = steps * (lat + nbytes / bw)
        return min(ring, doubling)

    def _flops_time(self, flops: float) -> float:
        return flops / (self.params.compute_efficiency
                        * self.mp.cpe_peak_flops)

    @staticmethod
    def _infeasible(level: int, n: int, k: int, d: int,
                    reason: str) -> CostPrediction:
        return CostPrediction(level=level, n=n, k=k, d=d, feasible=False,
                              reason=reason)

    # -- public API -----------------------------------------------------------

    def predict(self, level: int, n: int, k: int, d: int) -> CostPrediction:
        """One-iteration time for (n, k, d) at the given partition level."""
        if n < 1 or k < 1 or d < 1:
            raise ConfigurationError(
                f"n, k, d must be >= 1, got {n}, {k}, {d}"
            )
        if level == 1:
            return self.predict_level1(n, k, d)
        if level == 2:
            return self.predict_level2(n, k, d)
        if level == 3:
            return self.predict_level3(n, k, d)
        raise ConfigurationError(f"level must be 1, 2 or 3, got {level}")

    # -- Level 1 -----------------------------------------------------------------

    def predict_level1(self, n: int, k: int, d: int) -> CostPrediction:
        """n-partition: all centroids on every CPE, samples striped."""
        mp, p = self.mp, self.params
        s = p.itemsize
        if not stream_gate(d, mp.ldm_bytes, s):
            return self._infeasible(
                1, n, k, d,
                f"sample of d={d} cannot be double-buffered in "
                f"{mp.ldm_bytes} B LDM",
            )
        m = min(mp.total_cpes, n)
        samples_per_cpe = n / m
        res = self._residency(d, k, samples_per_cpe)

        active_per_cg = min(mp.cpes_per_cg, math.ceil(m / mp.n_cgs))
        dma = active_per_cg * (samples_per_cpe * d * s
                               + res.cent_traffic_bytes_per_cpe) / mp.dma_bw
        compute = self._flops_time(
            3.0 * samples_per_cpe * k * d     # distances
            + samples_per_cpe * d             # accumulate
            + k * d                           # divide
        )
        acc_bytes = (k * d + k) * s
        regcomm = 2.0 * acc_bytes / mp.reg_bw + mp.mesh_hops * mp.reg_latency
        ranks = min(mp.n_cgs, m)
        network = self._allreduce(ranks, acc_bytes, mp.n_nodes)

        return CostPrediction(
            level=1, n=n, k=k, d=d, feasible=True,
            overhead=p.iteration_overhead, dma=dma, compute=compute, regcomm=regcomm, network=network,
            mgroup=1, mprime_group=1, n_groups=m,
            resident_fraction=res.resident_fraction,
            phases={
                "dma.stream": dma,
                "compute.assign+update": compute,
                "regcomm.allreduce": regcomm,
                "network.allreduce": network,
            },
        )

    # -- Level 2 -----------------------------------------------------------------

    def predict_level2(self, n: int, k: int, d: int) -> CostPrediction:
        """nk-partition: k over mgroup CPEs of a CG, n over CPE groups."""
        mp, p = self.mp, self.params
        s = p.itemsize
        if not stream_gate(d, mp.ldm_bytes, s):
            return self._infeasible(
                2, n, k, d,
                f"Level 2 needs {STREAM_BUFFERS} LDM buffers of d={d} "
                f"elements; {STREAM_BUFFERS * d * s} B exceeds the "
                f"{mp.ldm_bytes} B LDM",
            )

        # Smallest mgroup whose slice is fully resident; otherwise take the
        # whole mesh and accept re-streaming.
        cap = mp.cpes_per_cg
        chosen: Optional[int] = None
        for mg in _MGROUP_CANDIDATES:
            if mg > cap:
                break
            k_slice = math.ceil(k / mg)
            res = self._residency(d, k_slice, 1.0)
            if res.resident_fraction >= 1.0:
                chosen = mg
                break
        mgroup = chosen if chosen is not None else cap
        mgroup = min(mgroup, cap)

        groups = max(1, min(mp.total_cpes // mgroup, n))
        samples_per_group = n / groups
        k_slice = math.ceil(k / mgroup)
        res = self._residency(d, k_slice, samples_per_group)

        # Every member CPE streams the whole group block; each CG hosts
        # cpes_per_cg member CPEs (of one or more groups).
        dma = mp.cpes_per_cg * (samples_per_group * d * s
                                + res.cent_traffic_bytes_per_cpe) / mp.dma_bw
        compute = self._flops_time(
            3.0 * samples_per_group * k_slice * d
            + samples_per_group * d / mgroup
            + k_slice * d
        )
        # Per-sample MINLOC across the group's mesh + the update allreduce.
        acc_bytes = (k * d + k) * s
        regcomm = (samples_per_group * (mp.mesh_hops * mp.reg_latency
                                        + 16.0 / mp.reg_bw)
                   + 2.0 * acc_bytes / mp.reg_bw)
        ranks = min(mp.n_cgs, groups)
        network = self._allreduce(ranks, acc_bytes, mp.n_nodes)

        return CostPrediction(
            level=2, n=n, k=k, d=d, feasible=True,
            overhead=p.iteration_overhead, dma=dma, compute=compute, regcomm=regcomm, network=network,
            mgroup=mgroup, mprime_group=1, n_groups=groups,
            resident_fraction=res.resident_fraction,
            phases={
                "dma.stream+restream": dma,
                "compute.assign+update": compute,
                "regcomm.minloc+allreduce": regcomm,
                "network.allreduce": network,
            },
        )

    # -- Level 3 -----------------------------------------------------------------

    def predict_level3(self, n: int, k: int, d: int) -> CostPrediction:
        """nkd-partition: d over the mesh, k over CG groups, n over groups."""
        mp, p = self.mp, self.params
        s = p.itemsize
        d_slice = math.ceil(d / mp.cpes_per_cg)
        if not stream_gate(d_slice, mp.ldm_bytes, s):
            return self._infeasible(
                3, n, k, d,
                f"even a d/{mp.cpes_per_cg} sample slice cannot be "
                f"double-buffered in {mp.ldm_bytes} B LDM",
            )

        # Smallest m'group whose per-CPE centroid slice is fully resident.
        budget = mp.ldm_bytes - LDM_OVERHEAD_BYTES - 2 * d_slice * s
        per_centroid_bytes = (2 * d_slice + 1) * s
        kg_max = budget // per_centroid_bytes if budget > 0 else 0
        if kg_max >= 1:
            mprime = min(max(1, math.ceil(k / kg_max)), mp.n_cgs)
        else:
            mprime = mp.n_cgs
        mprime = min(mprime, k) if k < mprime else mprime

        groups = max(1, mp.n_cgs // mprime)
        samples_per_group = n / groups
        k_slice = math.ceil(k / mprime)
        res = self._residency(d_slice, k_slice, samples_per_group)

        # A CG streams the block across its mesh: per-CPE volume is the
        # block's d_slice share, so the CG-aggregate is block * d * s.
        dma = (samples_per_group * d * s
               + mp.cpes_per_cg * res.cent_traffic_bytes_per_cpe) / mp.dma_bw
        compute = self._flops_time(
            3.0 * samples_per_group * k_slice * d_slice
            + samples_per_group * d_slice
            + k_slice * d_slice
        )
        # Mesh reduce of partial distances for every sample.
        regcomm = samples_per_group * (
            mp.mesh_hops * mp.reg_latency + k_slice * s / mp.reg_bw
        )
        # Per-sample MINLOC across the group's CGs (Algorithm 3 line 10-11):
        # a chain of 16-byte messages through a *pipelined* reduction tree.
        # Successive samples overlap across tree stages, so the sustained
        # cost is one per-message overhead per sample (plus the tree depth
        # once to drain) — independent of m'group, which is why Level 3
        # carries a roughly d-independent overhead floor (paper Figure 7).
        group_nodes = max(1, math.ceil(mprime / (mp.n_cgs // mp.n_nodes)))
        minloc_steps = math.ceil(math.log2(mprime)) if mprime > 1 else 0
        net_bw = self.mp.network_bw(group_nodes)
        if mprime > 1:
            minloc = (samples_per_group + minloc_steps) * (
                p.mpi_message_overhead + 16.0 / net_bw)
        else:
            minloc = 0.0
        # Update allreduce: slice owners across groups (machine-wide span).
        slice_bytes = (k_slice * d + k_slice) * s
        update = self._allreduce(groups, slice_bytes, mp.n_nodes)
        network = minloc + update

        return CostPrediction(
            level=3, n=n, k=k, d=d, feasible=True,
            overhead=p.iteration_overhead, dma=dma, compute=compute, regcomm=regcomm, network=network,
            mgroup=1, mprime_group=mprime, n_groups=groups,
            resident_fraction=res.resident_fraction,
            phases={
                "dma.stream+restream": dma,
                "compute.assign+update": compute,
                "regcomm.dim_reduce": regcomm,
                "network.minloc": minloc,
                "network.update_allreduce": update,
            },
        )


def predict(spec: MachineSpec, level: int, n: int, k: int, d: int,
            params: ModelParams = DEFAULT_PARAMS) -> CostPrediction:
    """One-shot convenience wrapper around :class:`PerformanceModel`."""
    return PerformanceModel(spec, params).predict(level, n, k, d)
