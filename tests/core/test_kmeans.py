"""Tests for the HierarchicalKMeans facade and level auto-selection."""

import numpy as np
import pytest

from repro.core.kmeans import HierarchicalKMeans, select_level
from repro.core.lloyd import lloyd
from repro.data.synthetic import gaussian_blobs
from repro.errors import ConfigurationError, PartitionError
from repro.machine.machine import toy_machine
from repro.runtime.supervisor import RunSupervisor


@pytest.fixture(scope="module")
def machine():
    # 8 KiB LDM = 1024 f64 elements per CPE.
    return toy_machine(n_nodes=2, cgs_per_node=2, mesh=2, ldm_bytes=8192)


@pytest.fixture(scope="module")
def blobs():
    X, labels = gaussian_blobs(n=400, k=6, d=8, seed=17)
    return X, labels


class TestLevelSelection:
    def test_small_problem_selects_level1(self, machine):
        assert select_level(machine, n=400, k=6, d=8) == 1

    def test_large_k_selects_level2(self, machine):
        # k=200, d=8: C1 needs 3408 elements > 1024 -> Level 1 out;
        # mgroup slicing fits -> Level 2.
        assert select_level(machine, n=400, k=200, d=8) == 2

    def test_large_d_selects_level3(self, machine):
        # d=1001 overflows one LDM (C2) but fits 4 CPEs' dim slices.
        assert select_level(machine, n=400, k=4, d=1001) == 3

    def test_impossible_problem_raises(self, machine):
        with pytest.raises(PartitionError, match="no partition level"):
            select_level(machine, n=10**5, k=10**5, d=10**4)

    def test_selection_matches_paper_flexibility_story(self, machine):
        """Paper section III.D: levels form an escalation ladder."""
        ladder = [
            select_level(machine, 400, 6, 8),
            select_level(machine, 400, 200, 8),
            select_level(machine, 400, 4, 1001),
        ]
        assert ladder == [1, 2, 3]


class TestFitPredict:
    def test_fit_returns_result_and_sets_state(self, machine, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, machine=machine, seed=0, max_iter=40)
        result = model.fit(X)
        assert model.selected_level_ == 1
        assert model.result_ is result
        assert result.centroids.shape == (6, 8)

    def test_fit_matches_serial_with_same_init(self, machine, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, machine=machine, init="first",
                                   max_iter=40)
        result = model.fit(X)
        ref = lloyd(X, np.array(X[:6], dtype=np.float64), max_iter=40)
        np.testing.assert_array_equal(result.assignments, ref.assignments)

    def test_forced_level(self, machine, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, machine=machine, level=3, init="first",
                                   max_iter=20)
        result = model.fit(X)
        assert result.level == 3
        assert model.selected_level_ == 3

    def test_level_zero_runs_serial(self, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, level=0, init="first", max_iter=20)
        result = model.fit(X)
        assert result.level == 0
        assert result.ledger is None

    def test_level_zero_equals_lloyd_bitwise(self, machine, blobs):
        X, _ = blobs
        C0 = np.array(X[:6], dtype=np.float64)
        result = HierarchicalKMeans(6, machine=machine, level=0, init=C0,
                                    max_iter=40).fit(X)
        ref = lloyd(X, C0, max_iter=40)
        np.testing.assert_array_equal(result.centroids, ref.centroids)
        np.testing.assert_array_equal(result.assignments, ref.assignments)
        assert result.inertia == ref.inertia
        assert result.history == ref.history

    def test_predict_assigns_new_points(self, machine, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, machine=machine, seed=1, max_iter=40)
        model.fit(X)
        fresh = X[:10] + 1e-6
        pred = model.predict(fresh)
        np.testing.assert_array_equal(pred, model.result_.assignments[:10])

    def test_predict_before_fit_raises(self, machine):
        model = HierarchicalKMeans(3, machine=machine)
        with pytest.raises(ConfigurationError, match="fit"):
            model.predict(np.zeros((2, 4)))

    def test_fit_predict_returns_assignments(self, machine, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, machine=machine, seed=1, max_iter=40)
        out = model.fit_predict(X)
        np.testing.assert_array_equal(out, model.result_.assignments)

    def test_explicit_init_array(self, machine, blobs):
        X, _ = blobs
        C0 = np.array(X[:6], dtype=np.float64)
        model = HierarchicalKMeans(6, machine=machine, init=C0, max_iter=20)
        result = model.fit(X)
        ref = lloyd(X, C0, max_iter=20)
        np.testing.assert_array_equal(result.assignments, ref.assignments)

    def test_executor_kwargs_forwarded(self, machine, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, machine=machine, level=2,
                                   init="first", max_iter=5, mgroup=2)
        model.fit(X)  # mgroup reaches Level2Executor without error

    def test_quality_on_blobs(self, machine, blobs):
        X, labels = blobs
        model = HierarchicalKMeans(6, machine=machine, seed=5, max_iter=60)
        result = model.fit(X)
        purity = 0
        for j in range(6):
            members = labels[result.assignments == j]
            if members.size:
                purity += np.bincount(members).max()
        assert purity / X.shape[0] > 0.9


class TestValidation:
    def test_bad_n_clusters(self):
        with pytest.raises(ConfigurationError):
            HierarchicalKMeans(0)

    def test_bad_level(self):
        with pytest.raises(ConfigurationError):
            HierarchicalKMeans(3, level=4)

    def test_bad_init_name(self):
        with pytest.raises(ConfigurationError):
            HierarchicalKMeans(3, init="zzz")

    def test_bad_init_shape(self, machine, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, machine=machine,
                                   init=np.zeros((3, 8)))
        with pytest.raises(ConfigurationError, match="shape"):
            model.fit(X)

    def test_non_2d_data(self, machine):
        model = HierarchicalKMeans(2, machine=machine)
        with pytest.raises(ConfigurationError):
            model.fit(np.zeros(10))

    def test_resolve_level_without_running(self, machine, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, machine=machine)
        assert model.resolve_level(X) == 1
        assert model.result_ is None


class TestExecutorKeywords:
    def test_forced_level_rejects_unknown_keyword(self, machine):
        with pytest.raises(ConfigurationError,
                           match="level 3 takes no keyword 'bounded'"):
            HierarchicalKMeans(4, machine=machine, level=3, bounded=True)

    def test_forced_level_rejects_other_levels_keyword(self, machine):
        with pytest.raises(ConfigurationError,
                           match="level 1 takes no keyword 'mgroup'"):
            HierarchicalKMeans(4, machine=machine, level=1, mgroup=2)

    @pytest.mark.parametrize("keyword, value", [
        ("strict_cpe", True), ("mgroup", 3), ("mprime_group", 2),
        ("streaming", True), ("overlap_dma", True),
        ("collective_algorithm", "tree"), ("compute_efficiency", 0.5),
        ("plan", None),
    ])
    def test_level_zero_takes_no_machine_keyword(self, keyword, value):
        with pytest.raises(ConfigurationError,
                           match=f"level 0 takes no keyword '{keyword}'"):
            HierarchicalKMeans(4, level=0, **{keyword: value})

    def test_auto_rejects_keyword_no_level_takes(self, machine):
        with pytest.raises(ConfigurationError,
                           match="no level takes keyword 'bounded'"):
            HierarchicalKMeans(4, machine=machine, bounded=True)

    def test_auto_rejects_chosen_levels_missing_keyword_at_fit(
            self, machine, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, machine=machine, mgroup=2,
                                   max_iter=5)  # auto picks Level 1
        with pytest.raises(ConfigurationError,
                           match="level 1 takes no keyword 'mgroup'"):
            model.fit(X)

    @pytest.mark.parametrize("level", ["auto", 0, 1, 2, 3])
    def test_supervisor_accepted_at_every_level(self, machine, blobs, level):
        # A watchdog no iteration can meet flags every one of them, so the
        # events show the run used this supervisor.
        X, _ = blobs
        supervisor = RunSupervisor(watchdog_s=1e-12)
        result = HierarchicalKMeans(6, machine=machine, level=level,
                                    init="first", max_iter=40,
                                    supervisor=supervisor).fit(X)
        assert result.host_events == supervisor.events
        assert any(e.kind == "slow_iteration" for e in result.host_events)


class TestMultiRestart:
    def test_best_restart_wins(self, machine, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, machine=machine, n_init=5, seed=3,
                                   max_iter=40)
        result = model.fit(X)
        assert len(model.all_inertias_) == 5
        assert result.inertia == min(model.all_inertias_)

    def test_restarts_explore_different_optima(self, machine, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, machine=machine, n_init=8, seed=3,
                                   max_iter=40)
        model.fit(X)
        assert len(set(round(v, 9) for v in model.all_inertias_)) > 1

    def test_multi_restart_never_worse_than_single(self, machine, blobs):
        X, _ = blobs
        single = HierarchicalKMeans(6, machine=machine, n_init=1, seed=3,
                                    max_iter=40).fit(X)
        multi = HierarchicalKMeans(6, machine=machine, n_init=6, seed=3,
                                   max_iter=40)
        best = multi.fit(X)
        assert best.inertia <= min(single.inertia,
                                   max(multi.all_inertias_))

    def test_deterministic_across_runs(self, machine, blobs):
        X, _ = blobs
        a = HierarchicalKMeans(6, machine=machine, n_init=4, seed=11,
                               max_iter=30).fit(X)
        b = HierarchicalKMeans(6, machine=machine, n_init=4, seed=11,
                               max_iter=30).fit(X)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_single_restart_records_inertia(self, machine, blobs):
        X, _ = blobs
        model = HierarchicalKMeans(6, machine=machine, seed=1, max_iter=30)
        result = model.fit(X)
        assert model.all_inertias_ == [result.inertia]

    def test_deterministic_init_rejected_with_restarts(self):
        with pytest.raises(ConfigurationError, match="stochastic"):
            HierarchicalKMeans(3, n_init=2, init="first")
        with pytest.raises(ConfigurationError, match="stochastic"):
            HierarchicalKMeans(3, n_init=2, init=np.zeros((3, 4)))

    def test_invalid_n_init(self):
        with pytest.raises(ConfigurationError):
            HierarchicalKMeans(3, n_init=0)
