"""Tests for the analytic performance model.

The model's contract is the paper's *shapes*: monotone growth in n/k/d,
strong scaling in nodes, the Level-2 memory wall at d=4096 (float32), the
Level 2/3 crossovers, and the <18 s headline.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.machine.specs import sunway_spec
from repro.perfmodel.model import PerformanceModel, predict
from repro.perfmodel.params import ModelParams

N_ILSVRC = 1_265_723


@pytest.fixture(scope="module")
def m128():
    return PerformanceModel(sunway_spec(128))


@pytest.fixture(scope="module")
def m4096():
    return PerformanceModel(sunway_spec(4096))


class TestBasics:
    def test_predict_dispatches_levels(self, m128):
        for level in (1, 2, 3):
            pred = m128.predict(level, 10_000, 16, 32)
            assert pred.level == level
            assert pred.feasible
            assert pred.total > 0

    def test_invalid_level_rejected(self, m128):
        with pytest.raises(ConfigurationError):
            m128.predict(4, 100, 4, 4)

    def test_invalid_nkd_rejected(self, m128):
        with pytest.raises(ConfigurationError):
            m128.predict(1, 0, 4, 4)

    def test_total_sums_categories(self, m128):
        p = m128.predict(3, 100_000, 100, 512)
        assert p.total == pytest.approx(
            p.overhead + p.dma + p.compute + p.regcomm + p.network)

    def test_infeasible_total_is_inf(self, m128):
        p = m128.predict(2, 1000, 10, 100_000)
        assert not p.feasible
        assert math.isinf(p.total)
        assert p.reason

    def test_module_level_predict_helper(self):
        p = predict(sunway_spec(4), 1, 1000, 8, 16)
        assert p.feasible

    def test_phases_breakdown_present(self, m128):
        p = m128.predict(3, N_ILSVRC, 2000, 4096)
        assert p.phases
        assert sum(p.phases.values()) == pytest.approx(
            p.total - p.overhead, rel=1e-9)


class TestMonotonicity:
    def test_grows_with_n(self, m128):
        times = [m128.predict(1, n, 64, 64).total
                 for n in (10**5, 10**6, 10**7)]
        assert times[0] < times[1] < times[2]

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_grows_with_k(self, m128, level):
        times = [m128.predict(level, 10**6, k, 64).total
                 for k in (16, 64, 256)]
        assert times[0] < times[2]

    @pytest.mark.parametrize("level", [2, 3])
    def test_grows_with_d(self, m128, level):
        times = [m128.predict(level, 10**6, 100, d).total
                 for d in (64, 512, 2048)]
        assert times[0] < times[2]

    def test_strong_scaling_in_nodes(self):
        times = [
            PerformanceModel(sunway_spec(nodes)).predict(
                3, N_ILSVRC, 2000, 4096).total
            for nodes in (16, 64, 256)
        ]
        assert times[0] > times[1] > times[2]


class TestMemoryWalls:
    def test_level2_wall_at_4096_float32(self, m128):
        assert m128.predict(2, N_ILSVRC, 2000, 4096).feasible
        assert not m128.predict(2, N_ILSVRC, 2000, 4097).feasible

    def test_level2_wall_at_2048_float64(self):
        model = PerformanceModel(sunway_spec(128),
                                 ModelParams(dtype=np.dtype(np.float64)))
        assert model.predict(2, N_ILSVRC, 2000, 2048).feasible
        assert not model.predict(2, N_ILSVRC, 2000, 2049).feasible

    def test_level3_wall_is_64x_higher(self, m128):
        # d/64 per CPE: the wall moves to 262,144 (float32).
        assert m128.predict(3, N_ILSVRC, 2000, 196_608).feasible
        assert m128.predict(3, N_ILSVRC, 2000, 262_144).feasible
        assert not m128.predict(3, N_ILSVRC, 2000, 262_145).feasible

    def test_level1_wall_same_as_level2(self, m128):
        assert m128.predict(1, 10**6, 4, 4096).feasible
        assert not m128.predict(1, 10**6, 4, 4097).feasible

    def test_residency_degrades_with_kd(self, m128):
        small = m128.predict(2, N_ILSVRC, 100, 512)
        large = m128.predict(2, N_ILSVRC, 10_000, 4096)
        assert small.resident_fraction > large.resident_fraction


class TestPartitionChoices:
    def test_level2_mgroup_grows_with_k(self, m128):
        small = m128.predict(2, 10**6, 16, 64)
        large = m128.predict(2, 10**6, 50_000, 64)
        assert small.mgroup < large.mgroup
        assert large.mgroup == 64

    def test_level3_mprime_grows_with_kd(self, m128):
        small = m128.predict(3, 10**6, 100, 512)
        large = m128.predict(3, 10**6, 2000, 8192)
        assert small.mprime_group < large.mprime_group

    def test_level3_mprime_capped_by_machine(self, m128):
        pred = m128.predict(3, 10**6, 10**6, 8192)
        assert pred.mprime_group <= 512
        assert pred.n_groups >= 1


class TestPaperHeadlines:
    def test_headline_under_18_seconds(self, m4096):
        p = m4096.predict(3, N_ILSVRC, 2000, 196_608)
        assert p.feasible
        assert p.total < 18.0

    def test_crossover_figure7(self, m128):
        """L2 wins at d=512; L3 wins at d >= 3072 (paper crossover 2560)."""
        l2_small = m128.predict(2, N_ILSVRC, 2000, 512).total
        l3_small = m128.predict(3, N_ILSVRC, 2000, 512).total
        assert l2_small < l3_small
        l2_big = m128.predict(2, N_ILSVRC, 2000, 3072).total
        l3_big = m128.predict(3, N_ILSVRC, 2000, 3072).total
        assert l3_big < l2_big

    def test_figure8_level3_always_wins_at_4096(self, m128):
        for k in (256, 2048, 16384, 131072):
            l2 = m128.predict(2, N_ILSVRC, k, 4096).total
            l3 = m128.predict(3, N_ILSVRC, k, 4096).total
            assert l3 < l2, f"Level 3 must win at k={k}"

    def test_figure9_gap_narrows(self):
        def gap(nodes):
            m = PerformanceModel(sunway_spec(nodes))
            return (m.predict(2, N_ILSVRC, 2000, 4096).total
                    / m.predict(3, N_ILSVRC, 2000, 4096).total)
        assert gap(2) > gap(256) > 1.0


class TestCalibrationParams:
    def test_invalid_efficiency(self):
        with pytest.raises(ConfigurationError):
            ModelParams(compute_efficiency=0.0)

    def test_itemsize(self):
        assert ModelParams().itemsize == 4
        assert ModelParams(dtype=np.dtype(np.float64)).itemsize == 8
