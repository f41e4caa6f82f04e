"""Tests for the shared numerical kernels."""

from typing import Tuple

import numpy as np
import pytest

from repro.core._common import (
    accumulate,
    assign_chunked,
    assign_with_distances,
    chunk_ranges,
    even_slices,
    inertia,
    max_centroid_shift,
    squared_distances,
    squared_distances_expanded,
    update_centroids,
    validate_data,
)
from repro.errors import ConfigurationError, DataShapeError


@pytest.fixture
def data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 16))
    C = rng.normal(size=(8, 16))
    return X, C


class TestValidation:
    def test_shapes_checked(self):
        with pytest.raises(DataShapeError):
            validate_data(np.zeros(5), np.zeros((2, 5)))
        with pytest.raises(DataShapeError):
            validate_data(np.zeros((5, 3)), np.zeros(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DataShapeError, match="dimension mismatch"):
            validate_data(np.zeros((5, 3)), np.zeros((2, 4)))

    def test_empty_inputs_rejected(self):
        with pytest.raises(DataShapeError):
            validate_data(np.zeros((0, 3)), np.zeros((2, 3)))
        with pytest.raises(DataShapeError):
            validate_data(np.zeros((5, 3)), np.zeros((0, 3)))

    def test_integer_data_promoted_to_float(self):
        X, C = validate_data(np.ones((4, 2), dtype=np.int64),
                             np.ones((2, 2), dtype=np.int64))
        assert np.issubdtype(X.dtype, np.floating)
        assert C.dtype == X.dtype

    def test_contiguity_enforced(self, data):
        X, C = data
        Xv, Cv = validate_data(X[::2], C)
        assert Xv.flags["C_CONTIGUOUS"]

    def test_nan_samples_rejected(self, data):
        X, C = data
        X = X.copy()
        X[17, 3] = np.nan
        with pytest.raises(DataShapeError, match="non-finite"):
            validate_data(X, C)

    def test_inf_samples_rejected(self, data):
        X, C = data
        X = X.copy()
        X[0, 0] = np.inf
        with pytest.raises(DataShapeError, match="non-finite"):
            validate_data(X, C)

    def test_non_finite_centroids_rejected(self, data):
        X, C = data
        C = C.copy()
        C[1, 1] = -np.inf
        with pytest.raises(DataShapeError, match="non-finite"):
            validate_data(X, C)


class TestDistances:
    def test_direct_matches_manual(self, data):
        X, C = data
        d2 = squared_distances(X[:5], C)
        manual = ((X[:5, None, :] - C[None]) ** 2).sum(axis=2)
        np.testing.assert_allclose(d2, manual)

    def test_expanded_matches_direct(self, data):
        X, C = data
        np.testing.assert_allclose(
            squared_distances_expanded(X, C),
            squared_distances(X, C),
            rtol=1e-9, atol=1e-9,
        )

    def test_expanded_clamps_negative_zero(self):
        # Distance of a point to itself must not be a tiny negative number.
        X = np.array([[1e8, 1e8]])
        d2 = squared_distances_expanded(X, X)
        assert d2[0, 0] >= 0.0

    def test_distance_to_self_is_zero(self, data):
        X, _ = data
        d2 = squared_distances(X[:3], X[:3])
        np.testing.assert_allclose(np.diag(d2), 0.0, atol=1e-12)


class TestAssignment:
    def test_matches_full_argmin(self, data):
        X, C = data
        expected = np.argmin(squared_distances(X, C), axis=1)
        np.testing.assert_array_equal(assign_chunked(X, C), expected)

    def test_chunking_does_not_change_result(self, data):
        X, C = data
        a = assign_chunked(X, C, chunk_elements=8 * C.shape[0])
        b = assign_chunked(X, C)
        np.testing.assert_array_equal(a, b)

    def test_expanded_kernel_option(self, data):
        # The expanded |x|^2 - 2 x.c + |c|^2 form runs as the gemm kernel.
        X, C = data
        np.testing.assert_array_equal(
            assign_chunked(X, C, kernel="gemm"), assign_chunked(X, C))

    def test_single_centroid(self, data):
        X, _ = data
        assert set(assign_chunked(X, X[:1])) == {0}

    def test_default_ignores_kernel_env(
            self, data: Tuple[np.ndarray, np.ndarray],
            monkeypatch: pytest.MonkeyPatch) -> None:
        # kernel=None is the naive reference, never the REPRO_KERNEL default.
        X, C = data
        monkeypatch.setenv("REPRO_KERNEL", "blas3000")
        np.testing.assert_array_equal(
            assign_chunked(X, C), np.argmin(squared_distances(X, C), axis=1))

    def test_assign_with_distances(self, data):
        X, C = data
        idx, best = assign_with_distances(X, C)
        d2 = squared_distances(X, C)
        np.testing.assert_array_equal(idx, np.argmin(d2, axis=1))
        np.testing.assert_allclose(best, d2.min(axis=1))

    def test_tie_goes_to_lowest_index(self):
        X = np.array([[0.0, 0.0]])
        C = np.array([[1.0, 0.0], [-1.0, 0.0]])  # equidistant
        assert assign_chunked(X, C)[0] == 0


class TestAccumulate:
    def test_sums_and_counts(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        a = np.array([0, 1, 0, 1])
        sums, counts = accumulate(X, a, k=2)
        np.testing.assert_allclose(sums[:, 0], [4.0, 6.0])
        np.testing.assert_array_equal(counts, [2, 2])

    def test_counts_sum_to_n(self, data):
        X, C = data
        a = assign_chunked(X, C)
        _, counts = accumulate(X, a, C.shape[0])
        assert counts.sum() == X.shape[0]

    def test_empty_cluster_zero(self):
        X = np.ones((3, 2))
        sums, counts = accumulate(X, np.zeros(3, dtype=np.int64), k=2)
        assert counts[1] == 0
        np.testing.assert_allclose(sums[1], 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataShapeError):
            accumulate(np.ones((3, 2)), np.zeros(2, dtype=np.int64), k=1)

    def test_out_of_range_assignment_rejected(self):
        X = np.ones((3, 2))
        with pytest.raises(DataShapeError):
            accumulate(X, np.array([0, 1, 2]), k=2)
        with pytest.raises(DataShapeError):
            accumulate(X, np.array([0, -1, 1]), k=2)

    def test_bincount_matches_add_at_bitwise(self):
        # The bincount formulation replaced an np.add.at scatter; both add
        # element-for-element in sample order, so a single-pass bincount is
        # bit-identical, not merely close.
        rng = np.random.default_rng(23)
        X = rng.normal(size=(1500, 17)) * rng.lognormal(size=(1500, 1))
        k = 13
        a = rng.integers(0, k, size=1500)
        sums, counts = accumulate(X, a, k)
        ref_sums = np.zeros((k, X.shape[1]))
        np.add.at(ref_sums, a, X)
        np.testing.assert_array_equal(sums, ref_sums)
        np.testing.assert_array_equal(counts, np.bincount(a, minlength=k))


class TestUpdate:
    def test_means_computed(self):
        sums = np.array([[4.0, 8.0], [3.0, 3.0]])
        counts = np.array([2, 3])
        prev = np.zeros((2, 2))
        new = update_centroids(sums, counts, prev)
        np.testing.assert_allclose(new, [[2.0, 4.0], [1.0, 1.0]])

    def test_empty_cluster_keeps_previous(self):
        sums = np.array([[4.0], [0.0]])
        counts = np.array([2, 0])
        prev = np.array([[9.0], [7.0]])
        new = update_centroids(sums, counts, prev)
        np.testing.assert_allclose(new, [[2.0], [7.0]])

    def test_no_nans_ever(self):
        new = update_centroids(np.zeros((3, 2)), np.zeros(3, dtype=int),
                               np.ones((3, 2)))
        assert np.isfinite(new).all()

    def test_previous_not_mutated(self):
        prev = np.ones((2, 2))
        update_centroids(np.full((2, 2), 4.0), np.array([2, 2]), prev)
        np.testing.assert_allclose(prev, 1.0)


class TestReseedFarthest:
    def test_empty_cluster_takes_farthest_sample(self):
        # Cluster 1 is empty; the sample farthest from its winning
        # centroid (the origin here) becomes its new centroid.
        X = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]])
        sums = np.array([[10.0, 0.0], [0.0, 0.0]])
        counts = np.array([3, 0])
        prev = np.zeros((2, 2))
        _, best_d2 = assign_with_distances(X, prev)
        new = update_centroids(sums, counts, prev,
                               empty_action="reseed_farthest", X=X,
                               best_d2=best_d2)
        np.testing.assert_allclose(new[1], [9.0, 0.0])

    def test_distances_recomputed_when_missing(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]])
        sums = np.array([[10.0, 0.0], [0.0, 0.0]])
        counts = np.array([3, 0])
        new = update_centroids(sums, counts, np.zeros((2, 2)),
                               empty_action="reseed_farthest", X=X)
        np.testing.assert_allclose(new[1], [9.0, 0.0])

    def test_nonempty_clusters_unchanged_by_action(self):
        sums = np.array([[4.0, 8.0], [3.0, 3.0]])
        counts = np.array([2, 3])
        prev = np.zeros((2, 2))
        X = np.ones((5, 2))
        keep = update_centroids(sums, counts, prev)
        reseed = update_centroids(sums, counts, prev,
                                  empty_action="reseed_farthest", X=X)
        np.testing.assert_array_equal(keep, reseed)

    def test_reseed_requires_samples(self):
        with pytest.raises(ConfigurationError, match="needs the samples"):
            update_centroids(np.zeros((2, 2)), np.array([1, 0]),
                             np.zeros((2, 2)),
                             empty_action="reseed_farthest")

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError, match="empty_action"):
            update_centroids(np.zeros((2, 2)), np.array([1, 1]),
                             np.zeros((2, 2)), empty_action="explode")

    def test_more_empty_clusters_than_samples_fall_back_to_keep(self):
        # k > n: only one sample to reseed from; the second empty cluster
        # keeps its previous centroid instead of crashing.
        X = np.array([[5.0, 5.0]])
        sums = np.array([[5.0, 5.0], [0.0, 0.0], [0.0, 0.0]])
        counts = np.array([1, 0, 0])
        prev = np.full((3, 2), 2.0)
        new = update_centroids(sums, counts, prev,
                               empty_action="reseed_farthest", X=X)
        np.testing.assert_allclose(new[1], [5.0, 5.0])
        np.testing.assert_allclose(new[2], [2.0, 2.0])


class TestHelpers:
    def test_inertia_matches_objective(self, data):
        X, C = data
        a = assign_chunked(X, C)
        expected = np.mean(((X - C[a]) ** 2).sum(axis=1))
        assert inertia(X, C, a) == pytest.approx(expected)

    def test_max_centroid_shift(self):
        old = np.zeros((2, 2))
        new = np.array([[3.0, 4.0], [1.0, 0.0]])
        assert max_centroid_shift(old, new) == pytest.approx(5.0)

    def test_chunk_ranges_cover(self):
        ranges = list(chunk_ranges(10, 3))
        assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_chunk_ranges_bad_chunk(self):
        with pytest.raises(DataShapeError):
            list(chunk_ranges(10, 0))


class TestEvenSlices:
    def test_exact_division(self):
        assert even_slices(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_spread_to_front(self):
        assert even_slices(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_covers_everything_disjointly(self):
        for total, parts in [(1, 1), (7, 3), (100, 7), (5, 8)]:
            slices = even_slices(total, parts)
            assert slices[0][0] == 0
            assert slices[-1][1] == total
            for (a0, a1), (b0, b1) in zip(slices, slices[1:]):
                assert a1 == b0

    def test_more_parts_than_items_gives_empty_slices(self):
        slices = even_slices(2, 4)
        sizes = [hi - lo for lo, hi in slices]
        assert sizes == [1, 1, 0, 0]

    def test_zero_parts_rejected(self):
        with pytest.raises(DataShapeError):
            even_slices(10, 0)
