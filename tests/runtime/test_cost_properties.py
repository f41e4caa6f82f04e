"""Property-based tests on the runtime cost models.

The timing figures are only as trustworthy as the cost functions under
them; these properties pin down the axioms every transport must satisfy:
monotonicity in volume, superadditivity of latency-bearing operations,
locality orderings, and scale-invariance relations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.specs import CGSpec, NetworkSpec
from repro.machine.machine import toy_machine
from repro.machine.topology import FatTreeTopology
from repro.runtime.compute import ComputeModel
from repro.runtime.dma import DMAEngine
from repro.runtime.ledger import TimeLedger
from repro.runtime.mpi import SimComm
from repro.runtime.regcomm import RegisterComm

nbytes_st = st.integers(0, 10**9)


@pytest.fixture(scope="module")
def machine():
    return toy_machine(n_nodes=8, cgs_per_node=2, mesh=2, ldm_bytes=4096)


class TestDMAProperties:
    @given(a=nbytes_st, b=nbytes_st)
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_bytes(self, a, b):
        engine = DMAEngine(CGSpec(), TimeLedger())
        lo, hi = min(a, b), max(a, b)
        assert engine.transfer_time(lo) <= engine.transfer_time(hi)

    @given(nbytes=st.integers(1, 10**8), t1=st.integers(1, 50),
           t2=st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_more_transactions_cost_more(self, nbytes, t1, t2):
        engine = DMAEngine(CGSpec(), TimeLedger())
        lo, hi = min(t1, t2), max(t1, t2)
        assert (engine.transfer_time(nbytes, lo)
                <= engine.transfer_time(nbytes, hi))

    @given(a=st.integers(1, 10**8), b=st.integers(1, 10**8))
    @settings(max_examples=50, deadline=None)
    def test_splitting_a_transfer_never_helps(self, a, b):
        """Latency makes two transfers cost at least one combined one."""
        engine = DMAEngine(CGSpec(), TimeLedger())
        together = engine.transfer_time(a + b)
        split = engine.transfer_time(a) + engine.transfer_time(b)
        assert split >= together


class TestRegcommProperties:
    @given(a=nbytes_st, b=nbytes_st)
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, a, b):
        comm = RegisterComm(CGSpec())
        lo, hi = min(a, b), max(a, b)
        assert comm.allreduce_time(lo) <= comm.allreduce_time(hi)

    @given(nbytes=st.integers(1, 10**8))
    @settings(max_examples=50, deadline=None)
    def test_faster_than_network_for_same_volume(self, nbytes, machine):
        """The whole point of register communication (paper section II.A):
        intra-CG reduction beats going through the network."""
        reg = RegisterComm(machine.spec.processor.cg)
        net = SimComm(machine, [0, 2, 4, 6])
        assert reg.allreduce_time(nbytes) < net.allreduce_time(nbytes)


class TestSimCommProperties:
    @given(nbytes=nbytes_st,
           algorithm=st.sampled_from(["ring", "tree", "recursive-doubling"]))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_bytes(self, machine, nbytes, algorithm):
        comm = SimComm(machine, [0, 2, 4], algorithm)
        assert (comm.allreduce_time(nbytes, algorithm)
                <= comm.allreduce_time(nbytes + 1024, algorithm))

    @given(nbytes=st.integers(1, 10**8))
    @settings(max_examples=30, deadline=None)
    def test_tree_is_twice_recursive_doubling(self, machine, nbytes):
        comm = SimComm(machine, [0, 2, 4, 6])
        assert comm.allreduce_time(nbytes, "tree") == pytest.approx(
            2.0 * comm.allreduce_time(nbytes, "recursive-doubling"))

    @given(nbytes=st.integers(10**6, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_ring_wins_for_large_payloads(self, machine, nbytes):
        comm = SimComm(machine, list(range(0, 16, 2)))
        assert (comm.allreduce_time(nbytes, "ring")
                <= comm.allreduce_time(nbytes, "recursive-doubling"))

    @given(nbytes=st.integers(1, 10**7))
    @settings(max_examples=30, deadline=None)
    def test_locality_ordering(self, machine, nbytes):
        """same node <= same supernode <= across supernodes."""
        onnode = SimComm(machine, [0, 1])
        insuper = SimComm(machine, [0, 2])
        across = SimComm(machine, [0, 15])
        assert (onnode.allreduce_time(nbytes)
                <= insuper.allreduce_time(nbytes)
                <= across.allreduce_time(nbytes))


class TestTopologyProperties:
    @given(nbytes=st.integers(1, 10**8), a=st.integers(0, 9),
           b=st.integers(0, 9))
    @settings(max_examples=50, deadline=None)
    def test_p2p_symmetry(self, nbytes, a, b):
        topo = FatTreeTopology(10, NetworkSpec(nodes_per_supernode=4))
        assert topo.point_to_point_time(a, b, nbytes) == pytest.approx(
            topo.point_to_point_time(b, a, nbytes))

    @given(nbytes=st.integers(0, 10**8), node=st.integers(0, 9))
    @settings(max_examples=30, deadline=None)
    def test_self_message_free(self, nbytes, node):
        topo = FatTreeTopology(10, NetworkSpec(nodes_per_supernode=4))
        assert topo.point_to_point_time(node, node, nbytes) == 0.0


class TestComputeProperties:
    @given(flops=st.floats(0, 1e12), cpes=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_flops(self, flops, cpes):
        model = ComputeModel(CGSpec(), TimeLedger())
        t1 = model.time_for_flops(flops, n_cpes=cpes)
        t2 = model.time_for_flops(2 * flops, n_cpes=cpes)
        assert t2 == pytest.approx(2 * t1, abs=1e-18)

    @given(flops=st.floats(1, 1e12), c1=st.integers(1, 64),
           c2=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_more_cpes_never_slower(self, flops, c1, c2):
        model = ComputeModel(CGSpec(), TimeLedger())
        lo, hi = min(c1, c2), max(c1, c2)
        assert (model.time_for_flops(flops, n_cpes=hi)
                <= model.time_for_flops(flops, n_cpes=lo))
