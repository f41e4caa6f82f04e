"""Property-based tests on partition plans across random machines/workloads.

The plans are the contract between the planner, the LDM allocator, and the
executors; these properties assert, for arbitrary feasible configurations:

* slice maps tile their domains exactly (no overlap, no gap),
* the byte-level staging always fits once a plan was accepted,
* CG groups partition the machine disjointly,
* per-CPE element accounting matches the slice maps.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    plan_level1,
    plan_level2,
    plan_level3,
    stage_level1,
    stage_level2,
    stage_level3,
    stream_gate,
)
from repro.errors import PartitionError
from repro.machine.machine import toy_machine

machines = st.builds(
    toy_machine,
    n_nodes=st.integers(1, 4),
    cgs_per_node=st.integers(1, 3),
    mesh=st.sampled_from([2, 4]),
    ldm_bytes=st.sampled_from([4 * 1024, 16 * 1024, 64 * 1024]),
)

problems = st.tuples(
    st.integers(8, 2000),    # n
    st.integers(1, 64),      # k
    st.integers(1, 512),     # d
)


def _tiles(slices, total):
    assert slices[0][0] == 0
    assert slices[-1][1] == total
    for (a0, a1), (b0, b1) in zip(slices, slices[1:]):
        assert a1 == b0
        assert a0 <= a1


@given(machine=machines, problem=problems)
@settings(max_examples=60, deadline=None)
def test_level1_plan_invariants(machine, problem):
    n, k, d = problem
    assume(k <= n)
    try:
        plan = plan_level1(machine, n, k, d)
    except PartitionError:
        assume(False)
    _tiles(plan.sample_blocks, n)
    assert plan.units <= machine.n_cpes
    assert plan.units <= n
    assert all(0 <= cg < machine.n_cgs for cg in plan.cg_of_unit)
    stage_level1(plan, machine)  # byte-exact fit, never raises


@given(machine=machines, problem=problems,
       streaming=st.booleans())
@settings(max_examples=60, deadline=None)
def test_level2_plan_invariants(machine, problem, streaming):
    n, k, d = problem
    assume(k <= n)
    try:
        plan = plan_level2(machine, n, k, d, streaming=streaming)
    except PartitionError:
        assume(False)
    _tiles(plan.sample_blocks, n)
    _tiles(plan.centroid_slices, k)
    assert len(plan.centroid_slices) == plan.mgroup
    assert 1 <= plan.mgroup <= machine.cpes_per_cg
    assert plan.groups_per_cg * plan.mgroup <= machine.cpes_per_cg
    assert plan.cent_traffic_bytes_per_cpe() >= 0.0
    stage_level2(plan, machine)


@given(machine=machines, problem=problems,
       streaming=st.booleans(), aware=st.booleans())
@settings(max_examples=60, deadline=None)
def test_level3_plan_invariants(machine, problem, streaming, aware):
    n, k, d = problem
    assume(k <= n)
    try:
        plan = plan_level3(machine, n, k, d, streaming=streaming,
                           supernode_aware=aware)
    except PartitionError:
        assume(False)
    _tiles(plan.sample_blocks, n)
    _tiles(plan.centroid_slices, k)
    _tiles(plan.dim_slices, d)
    assert len(plan.dim_slices) == machine.cpes_per_cg
    assert len(plan.centroid_slices) == plan.mprime_group
    # Groups are disjoint, equally sized, in range.
    flat = [cg for g in plan.cg_groups for cg in g]
    assert len(flat) == len(set(flat))
    assert all(0 <= cg < machine.n_cgs for cg in flat)
    assert {len(g) for g in plan.cg_groups} == {plan.mprime_group}
    stage_level3(plan, machine)


#: Level 2 plans at mgroup 15 on a machine with one CG; Level 3 cannot
#: (ceil(49/16) * 115 + 57 = 517 > 512 LDM elements at m'group 1).
_ONE_CG = toy_machine(n_nodes=1, cgs_per_node=1, mesh=4, ldm_bytes=4096)


@given(machine=machines, problem=problems)
@example(machine=_ONE_CG, problem=(57, 57, 49))
@settings(max_examples=40, deadline=None)
def test_level_escalation_is_consistent(machine, problem):
    """If Level 1 plans, so does Level 2; if Level 2 plans at mgroup g on
    a machine with at least g CGs, Level 3 plans with m'group <= g
    (resident mode).

    Level 2 fits at g when ``d (1 + 2 ceil(k/g)) + ceil(k/g)`` elements fit
    one LDM; Level 3 at m'group g needs the same with ``ceil(d/cpes) <= d``
    in place of d.  With fewer than g CGs Level 3 cannot form the group.
    """
    n, k, d = problem
    assume(k <= n)

    def plan(planner):
        try:
            return planner(machine, n, k, d)
        except PartitionError:
            return None

    l1, l2, l3 = (plan(p) for p in (plan_level1, plan_level2, plan_level3))
    if l1 is not None:
        assert l2 is not None
    if l2 is not None and l2.mgroup <= machine.n_cgs:
        assert l3 is not None
        assert l3.mprime_group <= l2.mgroup


def test_level2_mgroup_beyond_the_cgs_need_not_escalate():
    assert plan_level2(_ONE_CG, 57, 57, 49).mgroup == 15
    with pytest.raises(PartitionError):
        plan_level3(_ONE_CG, 57, 57, 49)


@given(machine=machines, problem=problems)
@settings(max_examples=40, deadline=None)
def test_streaming_dominates_resident(machine, problem):
    """Anything a resident Level-2/3 plan accepts, streaming accepts too —
    whenever streaming's own staging buffers fit the LDM.

    The two modes gate on different working sets: a resident plan needs the
    centroid/accumulator slices in LDM, a streaming plan needs
    ``STREAM_BUFFERS`` sample-slice staging buffers.  With a tiny LDM and a
    wide sample (e.g. d=129 at 4 KiB) the resident windows can fit while
    the staging double-buffers cannot, so streaming is legitimately
    infeasible there and dominance only holds where the stream gate passes.
    """
    n, k, d = problem
    assume(k <= n)
    itemsize = 8  # float64, the planners' default dtype
    d_slice_l3 = -(-d // machine.cpes_per_cg)
    for planner, stream_elems in ((plan_level2, d), (plan_level3, d_slice_l3)):
        try:
            planner(machine, n, k, d)
        except PartitionError:
            continue
        if not stream_gate(stream_elems, machine.ldm_bytes, itemsize):
            continue  # staging buffers cannot fit: streaming infeasible
        planner(machine, n, k, d, streaming=True)  # must not raise
