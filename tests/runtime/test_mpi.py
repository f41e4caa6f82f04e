"""Tests for the simulated MPI communicator's collective pricing."""

import pytest

from repro.errors import CommunicatorError, ConfigurationError
from repro.machine.machine import toy_machine
from repro.runtime.mpi import SimComm


@pytest.fixture
def machine():
    # 8 nodes x 2 CGs; supernodes of 4 nodes (8 CGs).
    return toy_machine(n_nodes=8, cgs_per_node=2, mesh=2, ldm_bytes=4096)


@pytest.fixture
def comm(machine):
    return SimComm(machine, range(machine.n_cgs))


class TestConstruction:
    def test_empty_communicator_rejected(self, machine):
        with pytest.raises(CommunicatorError):
            SimComm(machine, [])

    def test_duplicate_ranks_rejected(self, machine):
        with pytest.raises(CommunicatorError):
            SimComm(machine, [1, 1])

    def test_out_of_range_cg_rejected(self, machine):
        with pytest.raises(ConfigurationError):
            SimComm(machine, [99])

    def test_unknown_algorithm_rejected(self, machine):
        with pytest.raises(ConfigurationError):
            SimComm(machine, [0], algorithm="butterfly")


class TestCostModel:
    def test_single_rank_collectives_free(self, machine):
        c = SimComm(machine, [0])
        assert c.allreduce_time(10**6) == 0.0
        assert c.bcast_time(10**6) == 0.0
        assert c.allgather_time(10**6) == 0.0

    def test_zero_bytes_free(self, comm):
        assert comm.allreduce_time(0) == 0.0

    def test_algorithms_differ(self, comm):
        nbytes = 10**7
        ring = comm.allreduce_time(nbytes, "ring")
        tree = comm.allreduce_time(nbytes, "tree")
        rd = comm.allreduce_time(nbytes, "recursive-doubling")
        # For large payloads, bandwidth-optimal ring beats the tree, and
        # the tree costs exactly twice recursive doubling (reduce + bcast).
        assert ring < tree
        assert tree == pytest.approx(2 * rd)

    def test_same_node_traffic_uses_memory_transport(self, machine):
        onnode = SimComm(machine, [0, 1])      # same node
        offnode = SimComm(machine, [0, 2])     # adjacent nodes
        assert onnode.allreduce_time(10**6) < offnode.allreduce_time(10**6)

    def test_supernode_crossing_costs_more(self, machine):
        intra = SimComm(machine, [0, 7])    # nodes 0 and 3
        inter = SimComm(machine, [0, 15])   # nodes 0 and 7
        assert intra.allreduce_time(10**6) < inter.allreduce_time(10**6)

    def test_p2p_cost_orders(self, comm):
        assert comm.p2p_time(0, 0, 100) == 0.0
        same_node = comm.p2p_time(0, 1, 10**6)
        cross_node = comm.p2p_time(0, 2, 10**6)
        cross_super = comm.p2p_time(0, 15, 10**6)
        assert same_node < cross_node < cross_super

    def test_p2p_bad_rank(self, comm):
        with pytest.raises(CommunicatorError):
            comm.p2p_time(0, 99, 10)
