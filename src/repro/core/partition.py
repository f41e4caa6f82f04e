"""Partition planning: how (n, k, d) maps onto the machine at each level.

A *plan* is the static description the executors run from:

* which compute units exist at this level (CPEs, CPE groups, or CG groups),
* which slice of the dataflow each unit processes,
* which slice of the centroid set / dimension space each unit stores,
* where CG groups are placed on the fat tree (Level 3).

Plans validate twice: first against the paper's aggregate constraints
(C1/C2/C3 per level — see :mod:`repro.core.constraints`), then against the
*exact* per-CPE byte budget, in closed form (inline for Level 1,
``_level2_exact_fits``/``_level3_exact_fits`` for the sliced levels).  A
configuration that passes the paper's algebra but would not actually fit
(slice rounding, counter storage) is rejected at plan time, not deep inside
an executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, PartitionError
from ..machine.machine import Machine
from ._common import even_slices
from .constraints import (
    FeasibilityReport,
    ldm_elements,
    level1_feasibility,
    level2_feasibility,
    level3_feasibility,
)

Slice = Tuple[int, int]

#: LDM staging parameters shared with the performance model: a streamed
#: sample slice needs a double buffer plus one centroid chunk and one
#: accumulator chunk resident at a time.
STREAM_BUFFERS = 4
#: Fixed LDM overhead (stack, control words) in bytes.
LDM_OVERHEAD_BYTES = 1024
#: Fraction of the LDM given to the sample stage when streaming.
STAGE_FRACTION = 0.45


@dataclass(frozen=True)
class StreamingInfo:
    """LDM residency analysis for one plan (see DESIGN.md §5a).

    ``resident_fraction < 1`` means the per-CPE centroid + accumulator
    working set overflows the scratchpad and the non-resident part must be
    re-fetched once per staged sample block.
    """

    resident_fraction: float
    samples_per_stage: int
    n_stages: int
    #: Total centroid bytes DMA'd per CPE per iteration.
    cent_traffic_bytes_per_cpe: float


def streaming_info(d_slice_elems: int, cent_slice_elems: int,
                   count_elems: int, samples_per_unit: int,
                   ldm_bytes: int, itemsize: int) -> StreamingInfo:
    """Residency fraction + per-iteration centroid DMA traffic per CPE.

    The one residency analysis: the planners attach it to their plans, and
    :class:`repro.perfmodel.model.PerformanceModel` prices streaming with it,
    so the execute backend and the analytic model account streaming
    identically.
    """
    sample_bytes = d_slice_elems * itemsize
    budget = ldm_bytes - LDM_OVERHEAD_BYTES - 2 * sample_bytes
    working = (2 * cent_slice_elems + count_elems) * itemsize
    cent_bytes = cent_slice_elems * itemsize
    if working <= 0:
        return StreamingInfo(1.0, max(1, samples_per_unit), 1, 0.0)
    rf = max(0.0, min(1.0, budget / working))
    if rf >= 1.0:
        return StreamingInfo(1.0, max(1, samples_per_unit), 1,
                             float(cent_bytes))
    stage_bytes = STAGE_FRACTION * ldm_bytes
    per_stage = max(1, int(stage_bytes / max(sample_bytes, 1)))
    n_stages = max(1, _ceil_div(max(samples_per_unit, 1), per_stage))
    traffic = cent_bytes * (1.0 + (n_stages - 1) * (1.0 - rf))
    return StreamingInfo(rf, per_stage, n_stages, float(traffic))


def stream_gate(d_slice_elems: int, ldm_bytes: int, itemsize: int) -> bool:
    """Hard feasibility of streaming: the staging buffers must fit."""
    return STREAM_BUFFERS * d_slice_elems * itemsize <= ldm_bytes


def _itemsize(dtype: np.dtype | type) -> int:
    return np.dtype(dtype).itemsize


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _validate_problem(n: int, k: int, d: int) -> None:
    if n < 1 or k < 1 or d < 1:
        raise ConfigurationError(
            f"n, k, d must all be >= 1, got n={n}, k={k}, d={d}"
        )
    if k > n:
        raise ConfigurationError(f"k={k} exceeds the number of samples n={n}")


# ---------------------------------------------------------------------------
# Level 1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Level1Plan:
    """n-partition: every CPE holds all k centroids, samples are striped.

    ``units`` is the number of active CPEs (min(total CPEs, n) — a CPE with
    no samples would only add reduction latency).
    """

    n: int
    k: int
    d: int
    dtype: np.dtype
    units: int
    #: (start, stop) sample range per active CPE, in CPE order.
    sample_blocks: List[Slice]
    #: Global CG index of each active CPE.
    cg_of_unit: List[int]
    report: FeasibilityReport

    @property
    def level(self) -> int:
        return 1

    def per_cpe_elements(self) -> int:
        """Exact LDM elements one CPE needs resident."""
        return self.d * (1 + 2 * self.k) + self.k

    def describe(self) -> str:
        return (f"Level-1 plan: n={self.n} k={self.k} d={self.d} over "
                f"{self.units} CPEs "
                f"({len(set(self.cg_of_unit))} CGs active)")


def plan_level1(machine: Machine, n: int, k: int, d: int,
                dtype: np.dtype | type = np.float64) -> Level1Plan:
    """Build and validate a Level-1 plan.

    Raises
    ------
    PartitionError
        If the (k, d) buffer set cannot fit one CPE's LDM.
    """
    _validate_problem(n, k, d)
    dtype = np.dtype(dtype)
    report = level1_feasibility(k, d, machine.spec, dtype)
    if not report.feasible:
        raise PartitionError(
            f"Level 1 infeasible for k={k}, d={d}: "
            + "; ".join(str(c) for c in report.violated())
        )
    exact = d * (1 + 2 * k) + k
    ldm = ldm_elements(machine.ldm_bytes, dtype)
    if exact > ldm:
        raise PartitionError(
            f"Level 1 buffer set ({exact} elements) exceeds the "
            f"{ldm}-element LDM"
        )
    units = min(machine.n_cpes, n)
    cpes_per_cg = machine.cpes_per_cg
    return Level1Plan(
        n=n, k=k, d=d, dtype=dtype, units=units,
        sample_blocks=even_slices(n, units),
        cg_of_unit=[u // cpes_per_cg for u in range(units)],
        report=report,
    )


# ---------------------------------------------------------------------------
# Level 2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Level2Plan:
    """nk-partition: centroids split over ``mgroup`` CPEs inside one CG.

    Each CG hosts ``cpes_per_cg // mgroup`` CPE groups; leftover CPEs idle.
    Every group holds the full centroid set collectively, one slice per
    member CPE, and processes a contiguous block of the dataflow.
    """

    n: int
    k: int
    d: int
    dtype: np.dtype
    mgroup: int
    #: Number of active CPE groups across the machine.
    n_groups: int
    #: CPE groups per CG.
    groups_per_cg: int
    #: (start, stop) of the centroid slice each group-member CPE owns.
    centroid_slices: List[Slice]
    #: (start, stop) sample range per group, in group order.
    sample_blocks: List[Slice]
    #: Global CG index hosting each group.
    cg_of_group: List[int]
    report: FeasibilityReport
    #: Residency analysis; resident_fraction == 1.0 for resident plans.
    streaming: Optional[StreamingInfo] = None

    @property
    def level(self) -> int:
        return 2

    def cent_traffic_bytes_per_cpe(self) -> float:
        """Per-iteration centroid DMA bytes per member CPE."""
        if self.streaming is not None:
            return self.streaming.cent_traffic_bytes_per_cpe
        widest = max(hi - lo for lo, hi in self.centroid_slices)
        return float(widest * self.d * np.dtype(self.dtype).itemsize)

    def per_cpe_elements(self) -> int:
        """Exact resident elements for the widest member CPE."""
        widest = max(hi - lo for lo, hi in self.centroid_slices)
        return self.d * (1 + 2 * widest) + widest

    def describe(self) -> str:
        return (f"Level-2 plan: n={self.n} k={self.k} d={self.d}, "
                f"mgroup={self.mgroup}, {self.n_groups} CPE groups "
                f"({self.groups_per_cg}/CG)")


def _level2_exact_fits(k: int, d: int, mgroup: int, ldm: int) -> bool:
    """Exact per-CPE feasibility of Level 2 with a given mgroup."""
    k_slice = _ceil_div(k, mgroup)
    return d * (1 + 2 * k_slice) + k_slice <= ldm


def plan_level2(machine: Machine, n: int, k: int, d: int,
                mgroup: Optional[int] = None, streaming: bool = False,
                dtype: np.dtype | type = np.float64) -> Level2Plan:
    """Build and validate a Level-2 plan.

    When ``mgroup`` is None the planner picks the smallest value that fits:
    small mgroup minimises the dataflow read amplification (each member CPE
    of a group re-reads the same sample — the ``n*d*mgroup/m`` term of
    T'read).

    ``streaming=True`` lifts the resident constraint the way the real
    implementation does (DESIGN.md §5a): centroid slices are staged through
    the LDM with double-buffered DMA, so k is bounded only by main memory;
    the plan's :class:`StreamingInfo` carries the resulting re-stream
    traffic and only the staging buffers gate feasibility.

    Raises
    ------
    PartitionError
        If no mgroup in [1, cpes-per-CG] fits (resident mode), or the
        staging buffers for a d-element sample cannot fit (streaming mode).
    """
    _validate_problem(n, k, d)
    dtype = np.dtype(dtype)
    itemsize = dtype.itemsize
    cpes = machine.cpes_per_cg
    ldm = ldm_elements(machine.ldm_bytes, dtype)

    if streaming:
        if not stream_gate(d, machine.ldm_bytes, itemsize):
            raise PartitionError(
                f"Level 2 streaming infeasible: {STREAM_BUFFERS} staging "
                f"buffers of d={d} elements exceed the "
                f"{machine.ldm_bytes} B LDM"
            )
        if mgroup is None:
            mgroup = cpes  # maximum centroid sharing
        elif not 1 <= mgroup <= cpes:
            raise ConfigurationError(
                f"mgroup must be in [1, {cpes}], got {mgroup}"
            )
    elif 3 * d + 1 > ldm:
        raise PartitionError(
            f"Level 2 infeasible: a full sample (d={d}) cannot fit one LDM "
            f"(C2': 3d+1={3 * d + 1} > {ldm} elements)"
        )
    elif mgroup is None:
        fitted = next(
            (m for m in range(1, cpes + 1) if _level2_exact_fits(k, d, m, ldm)),
            None,
        )
        if fitted is None:
            raise PartitionError(
                f"Level 2 infeasible for k={k}, d={d}: even mgroup={cpes} "
                f"CPEs per group cannot hold the centroid slices "
                f"(pass streaming=True to stage them through the LDM)"
            )
        mgroup = fitted
    else:
        if not 1 <= mgroup <= cpes:
            raise ConfigurationError(
                f"mgroup must be in [1, {cpes}], got {mgroup}"
            )
        if not _level2_exact_fits(k, d, mgroup, ldm):
            raise PartitionError(
                f"Level 2 infeasible with mgroup={mgroup} for k={k}, d={d}"
            )

    report = level2_feasibility(k, d, min(mgroup, cpes), machine.spec, dtype)
    groups_per_cg = cpes // mgroup
    n_groups = min(machine.n_cgs * groups_per_cg, n)
    if n_groups < 1:
        raise PartitionError("Level 2 plan has no active CPE groups")
    sample_blocks = even_slices(n, n_groups)
    info = None
    if streaming:
        widest_k = _ceil_div(k, mgroup)
        widest_block = max(hi - lo for lo, hi in sample_blocks)
        info = streaming_info(
            d_slice_elems=d,
            cent_slice_elems=widest_k * d,
            count_elems=widest_k,
            samples_per_unit=widest_block,
            ldm_bytes=machine.ldm_bytes,
            itemsize=itemsize,
        )
    return Level2Plan(
        n=n, k=k, d=d, dtype=dtype, mgroup=mgroup,
        n_groups=n_groups, groups_per_cg=groups_per_cg,
        centroid_slices=even_slices(k, mgroup),
        sample_blocks=sample_blocks,
        cg_of_group=[g // groups_per_cg for g in range(n_groups)],
        report=report,
        streaming=info,
    )


# ---------------------------------------------------------------------------
# Level 3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Level3Plan:
    """nkd-partition: d over a CG's CPEs, k over m'group CGs, n over CG groups.

    ``cg_groups[g]`` lists the global CG indices of group ``g``; member ``j``
    of every group owns centroid slice ``centroid_slices[j]``.  Each CPE of a
    CG owns dimension slice ``dim_slices[cpe]`` of both the streamed sample
    and the CG's centroid slice.
    """

    n: int
    k: int
    d: int
    dtype: np.dtype
    mprime_group: int
    n_groups: int
    #: (start, stop) centroid range per group-member CG.
    centroid_slices: List[Slice]
    #: (start, stop) dimension range per CPE of a CG.
    dim_slices: List[Slice]
    #: (start, stop) sample range per CG group.
    sample_blocks: List[Slice]
    #: Global CG indices per group (placement on the machine).
    cg_groups: List[List[int]]
    report: FeasibilityReport
    supernode_aware: bool = True
    #: Residency analysis; resident_fraction == 1.0 for resident plans.
    streaming: Optional[StreamingInfo] = None

    @property
    def level(self) -> int:
        return 3

    def cent_traffic_bytes_per_cpe(self) -> float:
        """Per-iteration centroid DMA bytes per CPE of a member CG."""
        if self.streaming is not None:
            return self.streaming.cent_traffic_bytes_per_cpe
        widest_k = max(hi - lo for lo, hi in self.centroid_slices)
        widest_d = max(hi - lo for lo, hi in self.dim_slices)
        return float(widest_k * widest_d * np.dtype(self.dtype).itemsize)

    def per_cpe_elements(self) -> int:
        """Exact resident elements for the widest (dims x centroids) CPE."""
        widest_k = max(hi - lo for lo, hi in self.centroid_slices)
        widest_d = max(hi - lo for lo, hi in self.dim_slices)
        return widest_d * (1 + 2 * widest_k) + widest_k

    def describe(self) -> str:
        return (f"Level-3 plan: n={self.n} k={self.k} d={self.d}, "
                f"m'group={self.mprime_group}, {self.n_groups} CG groups, "
                f"supernode_aware={self.supernode_aware}")


def _level3_exact_fits(k: int, d: int, mprime: int, cpes: int,
                       ldm: int) -> bool:
    k_slice = _ceil_div(k, mprime)
    d_slice = _ceil_div(d, cpes)
    return d_slice * (1 + 2 * k_slice) + k_slice <= ldm


def plan_level3(machine: Machine, n: int, k: int, d: int,
                mprime_group: Optional[int] = None,
                supernode_aware: bool = True, streaming: bool = False,
                dtype: np.dtype | type = np.float64) -> Level3Plan:
    """Build and validate a Level-3 plan.

    When ``mprime_group`` is None the planner picks the smallest group size
    whose per-CPE buffers fit — minimising the ``n*d*m'group/m`` read
    amplification — and caps it at the machine's CG count.

    ``streaming=True`` (DESIGN.md §5a) stages centroid slices through the
    LDM when they cannot be resident, so k*d is bounded by main memory
    rather than the aggregate scratchpad; the plan records the re-stream
    traffic in :class:`StreamingInfo`.

    Raises
    ------
    PartitionError
        If even one CG per sample (C2'') or the whole machine's worth of CGs
        per group (C1''/C3'') cannot hold the problem (resident mode), or
        the staging buffers cannot fit (streaming mode).
    """
    _validate_problem(n, k, d)
    dtype = np.dtype(dtype)
    itemsize = dtype.itemsize
    cpes = machine.cpes_per_cg
    ldm = ldm_elements(machine.ldm_bytes, dtype)
    n_cgs = machine.n_cgs
    d_slice = _ceil_div(d, cpes)

    if streaming:
        if not stream_gate(d_slice, machine.ldm_bytes, itemsize):
            raise PartitionError(
                f"Level 3 streaming infeasible: {STREAM_BUFFERS} staging "
                f"buffers of d/{cpes}={d_slice} elements exceed the "
                f"{machine.ldm_bytes} B LDM"
            )
    elif 3 * d_slice > ldm:
        raise PartitionError(
            f"Level 3 infeasible: a sample slice of d/{cpes} dims cannot fit "
            f"one LDM (d={d}, LDM={ldm} elements)"
        )

    if mprime_group is None:
        fitted = next(
            (m for m in range(1, n_cgs + 1)
             if _level3_exact_fits(k, d, m, cpes, ldm)),
            None,
        )
        if fitted is None:
            if streaming:
                # Use every CG for one group; the rest streams.
                fitted = min(n_cgs, k)
            else:
                raise PartitionError(
                    f"Level 3 infeasible for k={k}, d={d} on {n_cgs} CGs: "
                    f"centroid slices cannot fit even with m'group={n_cgs} "
                    f"(pass streaming=True to stage them through the LDM)"
                )
        mprime_group = fitted
    else:
        if not 1 <= mprime_group <= n_cgs:
            raise ConfigurationError(
                f"m'group must be in [1, {n_cgs}], got {mprime_group}"
            )
        if not streaming and not _level3_exact_fits(k, d, mprime_group,
                                                    cpes, ldm):
            raise PartitionError(
                f"Level 3 infeasible with m'group={mprime_group} "
                f"for k={k}, d={d}"
            )

    report = level3_feasibility(k, d, mprime_group, machine.spec, dtype)
    n_groups = min(n_cgs // mprime_group, n)
    if n_groups < 1:
        raise PartitionError(
            f"Level 3 needs m'group={mprime_group} CGs per group but the "
            f"machine only has {n_cgs} CGs"
        )
    cg_groups = machine.place_cg_groups(mprime_group, n_groups,
                                        supernode_aware=supernode_aware)
    sample_blocks = even_slices(n, n_groups)
    info = None
    if streaming:
        widest_k = _ceil_div(k, mprime_group)
        widest_block = max(hi - lo for lo, hi in sample_blocks)
        info = streaming_info(
            d_slice_elems=d_slice,
            cent_slice_elems=widest_k * d_slice,
            count_elems=widest_k,
            samples_per_unit=widest_block,
            ldm_bytes=machine.ldm_bytes,
            itemsize=itemsize,
        )
    return Level3Plan(
        n=n, k=k, d=d, dtype=dtype, mprime_group=mprime_group,
        n_groups=n_groups,
        centroid_slices=even_slices(k, mprime_group),
        dim_slices=even_slices(d, cpes),
        sample_blocks=sample_blocks,
        cg_groups=cg_groups,
        report=report,
        supernode_aware=supernode_aware,
        streaming=info,
    )


# ---------------------------------------------------------------------------
# LDM staging (exact byte-level verification)
# ---------------------------------------------------------------------------

def stage_level1(plan: Level1Plan, machine: Machine) -> None:
    """Allocate Level-1 buffers on every active CPE's LDM allocator.

    Raises LDMOverflowError if the byte budget is exceeded — by construction
    it never should be once plan_level1 succeeded.  No executor stages:
    ``stage_level1/2/3`` are the tests' byte-exact cross-check of the
    planners.
    """
    machine.reset_ldm()
    item = _itemsize(plan.dtype)
    cpes_per_cg = machine.cpes_per_cg
    for unit in range(plan.units):
        cg = machine.core_group(plan.cg_of_unit[unit])
        cpe = cg.cpe(unit % cpes_per_cg)
        cpe.ldm.alloc("sample", plan.d * item)
        cpe.ldm.alloc("centroids", plan.k * plan.d * item)
        cpe.ldm.alloc("sums", plan.k * plan.d * item)
        cpe.ldm.alloc("counts", plan.k * item)


def _stage_streaming_buffers(cpe, d_slice_elems: int, item: int) -> None:
    """The streaming buffer set: sample double-buffer + chunk buffers."""
    cpe.ldm.alloc("sample_stage_a", d_slice_elems * item)
    cpe.ldm.alloc("sample_stage_b", d_slice_elems * item)
    cpe.ldm.alloc("centroid_chunk", d_slice_elems * item)
    cpe.ldm.alloc("sums_chunk", d_slice_elems * item)


def stage_level2(plan: Level2Plan, machine: Machine) -> None:
    """Allocate Level-2 buffers: full sample + a centroid slice per CPE.

    Streaming plans whose working set is not fully resident stage the
    double-buffered streaming set instead (DESIGN.md §5a).
    """
    machine.reset_ldm()
    item = _itemsize(plan.dtype)
    streamed = (plan.streaming is not None
                and plan.streaming.resident_fraction < 1.0)
    for g in range(plan.n_groups):
        cg = machine.core_group(plan.cg_of_group[g])
        base = (g % plan.groups_per_cg) * plan.mgroup
        for member, (lo, hi) in enumerate(plan.centroid_slices):
            k_slice = hi - lo
            cpe = cg.cpe(base + member)
            if streamed:
                _stage_streaming_buffers(cpe, plan.d, item)
                continue
            cpe.ldm.alloc("sample", plan.d * item)
            if k_slice:
                cpe.ldm.alloc("centroid_slice", k_slice * plan.d * item)
                cpe.ldm.alloc("sums_slice", k_slice * plan.d * item)
                cpe.ldm.alloc("counts_slice", k_slice * item)


def stage_level3(plan: Level3Plan, machine: Machine) -> None:
    """Allocate Level-3 buffers: dim slice of sample + (k-slice x dim-slice).

    Streaming plans whose working set is not fully resident stage the
    double-buffered streaming set instead (DESIGN.md §5a).
    """
    machine.reset_ldm()
    item = _itemsize(plan.dtype)
    streamed = (plan.streaming is not None
                and plan.streaming.resident_fraction < 1.0)
    for g, members in enumerate(plan.cg_groups):
        for member, cg_index in enumerate(members):
            lo_k, hi_k = plan.centroid_slices[member]
            k_slice = hi_k - lo_k
            cg = machine.core_group(cg_index)
            for cpe_i, (lo_d, hi_d) in enumerate(plan.dim_slices):
                d_slice = hi_d - lo_d
                cpe = cg.cpe(cpe_i)
                if streamed:
                    if d_slice:
                        _stage_streaming_buffers(cpe, d_slice, item)
                    continue
                if d_slice:
                    cpe.ldm.alloc("sample_slice", d_slice * item)
                if k_slice and d_slice:
                    cpe.ldm.alloc("centroid_slice",
                                  k_slice * d_slice * item)
                    cpe.ldm.alloc("sums_slice", k_slice * d_slice * item)
                if k_slice:
                    cpe.ldm.alloc("counts_slice", k_slice * item)
