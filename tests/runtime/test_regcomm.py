"""Tests for the register-communication mesh collectives' pricing."""

import pytest

from repro.errors import CommunicatorError
from repro.machine.specs import CGSpec
from repro.runtime.regcomm import RegisterComm


@pytest.fixture
def comm():
    return RegisterComm(CGSpec())


class TestCostModel:
    def test_zero_bytes_free(self, comm):
        assert comm.reduce_time(0) == 0.0
        assert comm.allreduce_time(0) == 0.0

    def test_reduce_pays_hops_and_bandwidth(self, comm):
        spec = comm.spec
        t = comm.reduce_time(46_400)
        expected = 16 * spec.register_latency + 46_400 / spec.register_bw
        assert t == pytest.approx(expected)

    def test_allreduce_is_two_sweeps(self, comm):
        assert comm.allreduce_time(1000) == pytest.approx(
            2 * comm.reduce_time(1000))

    def test_register_bw_faster_than_dma(self):
        # The paper: register comm is 3-4x faster than DMA-based sharing
        # for the AllReduce bottleneck.
        spec = CGSpec()
        assert spec.register_bw > spec.dma_bw

    def test_negative_bytes_rejected(self, comm):
        with pytest.raises(CommunicatorError):
            comm.reduce_time(-1)
