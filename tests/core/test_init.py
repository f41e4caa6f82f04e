"""Tests for centroid initialisation strategies."""

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import init as init_module
from repro.core._common import squared_distances
from repro.core.init import _kmeans_plus_plus, init_centroids, spread_centroids
from repro.core.kmeans import HierarchicalKMeans
from repro.data.synthetic import gaussian_blobs
from repro.errors import ConfigurationError, DataShapeError


@pytest.fixture
def X():
    X, _ = gaussian_blobs(n=300, k=6, d=8, seed=1)
    return X


class TestFirst:
    def test_takes_first_k_rows(self, X):
        C = init_centroids(X, 4, method="first")
        np.testing.assert_allclose(C, X[:4])

    def test_returns_copy(self, X):
        C = init_centroids(X, 2, method="first")
        C[0, 0] = 1e9
        assert X[0, 0] != 1e9


class TestRandom:
    def test_rows_come_from_data(self, X):
        C = init_centroids(X, 5, method="random", seed=3)
        for row in C:
            assert any(np.allclose(row, x) for x in X)

    def test_distinct_rows(self, X):
        C = init_centroids(X, 50, method="random", seed=3)
        assert len(np.unique(C, axis=0)) == 50

    def test_seeded_reproducibility(self, X):
        a = init_centroids(X, 5, method="random", seed=42)
        b = init_centroids(X, 5, method="random", seed=42)
        np.testing.assert_array_equal(a, b)

    def test_generator_accepted(self, X):
        rng = np.random.default_rng(7)
        C = init_centroids(X, 3, method="random", seed=rng)
        assert C.shape == (3, 8)


class TestKMeansPlusPlus:
    def test_shape_and_membership(self, X):
        C = init_centroids(X, 6, method="kmeans++", seed=0)
        assert C.shape == (6, 8)
        for row in C:
            assert any(np.allclose(row, x) for x in X)

    def test_seeded_reproducibility(self, X):
        a = init_centroids(X, 6, method="kmeans++", seed=5)
        b = init_centroids(X, 6, method="kmeans++", seed=5)
        np.testing.assert_array_equal(a, b)

    def test_spreads_better_than_first(self, X):
        # D^2 seeding should cover the 6 true blobs better than the first
        # 6 rows (which may share a blob): compare min pairwise distance.
        def min_pairwise(C):
            d = ((C[:, None] - C[None]) ** 2).sum(-1)
            return d[~np.eye(len(C), dtype=bool)].min()

        pp = init_centroids(X, 6, method="kmeans++", seed=0)
        first = init_centroids(X, 6, method="first")
        assert min_pairwise(pp) >= min_pairwise(first)

    def test_duplicate_points_fallback(self):
        X = np.ones((10, 3))  # all identical: D^2 mass goes to zero
        C = init_centroids(X, 3, method="kmeans++", seed=0)
        assert C.shape == (3, 3)
        np.testing.assert_allclose(C, 1.0)


class TestValidation:
    def test_unknown_method(self, X):
        with pytest.raises(ConfigurationError, match="unknown init method"):
            init_centroids(X, 3, method="forgy")

    def test_k_bounds(self, X):
        with pytest.raises(ConfigurationError):
            init_centroids(X, 0)
        with pytest.raises(ConfigurationError):
            init_centroids(X, X.shape[0] + 1)

    def test_non_2d_rejected(self):
        with pytest.raises(DataShapeError):
            init_centroids(np.zeros(10), 2)


# ---------------------------------------------------------------------------
# k-means++: the GEMV screen against the plain D^2 loop
# ---------------------------------------------------------------------------

def _reference_kmeans_plus_plus(X, k, rng):
    """The plain D^2 loop: every round runs the direct form on all rows."""
    n, d = X.shape
    centroids = np.empty((k, d), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = X[first]
    # Min squared distance to any chosen centroid so far.
    d2 = squared_distances(X, centroids[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining mass is on already-chosen points (duplicates):
            # fall back to uniform choice among all samples.
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=d2 / total))
        centroids[j] = X[choice]
        np.minimum(d2, squared_distances(X, centroids[j:j + 1])[:, 0], out=d2)
    return centroids


class _RecordingRng:
    """Stands in for a Generator and keeps every draw's weight vector.

    Draws are delegated to a real Generator, or taken from ``script``.
    """

    def __init__(self, seed: int = 0,
                 script: Optional[Sequence[int]] = None) -> None:
        self._rng = np.random.default_rng(seed)
        self._script = None if script is None else list(script)
        self.weights: List[np.ndarray] = []

    def integers(self, n: int) -> int:
        if self._script is not None:
            return self._script.pop(0)
        return int(self._rng.integers(n))

    def choice(self, n: int, p: np.ndarray) -> int:
        self.weights.append(p.copy())
        if self._script is not None:
            return self._script.pop(0)
        return int(self._rng.choice(n, p=p))


#: Seeded centroids and the rng that recorded their draws.
Seeding = Tuple[np.ndarray, _RecordingRng]


def _seed_both(X: np.ndarray, k: int,
               **rng_kwargs: object) -> Tuple[Seeding, Seeding]:
    """Seed with the reference loop and the screened one on equal rngs."""
    X64 = np.asarray(X, dtype=np.float64)
    ref_rng = _RecordingRng(**rng_kwargs)
    new_rng = _RecordingRng(**rng_kwargs)
    with np.errstate(all="ignore"):
        ref = _reference_kmeans_plus_plus(X64, k, ref_rng)
        new = _kmeans_plus_plus(X64, k, new_rng)
    return (ref, ref_rng), (new, new_rng)


def _assert_same_seeding(ref: Seeding, new: Seeding) -> None:
    """Bitwise equal centroids and draw weights, round by round."""
    np.testing.assert_array_equal(new[0].view(np.uint64),
                                  ref[0].view(np.uint64))
    assert len(new[1].weights) == len(ref[1].weights)
    for a, b in zip(new[1].weights, ref[1].weights):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def _seeding_case(draw):
    """(X, k) built to break a wrong screen: ties, scales, layouts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    d = draw(st.sampled_from([1, 2, 3, 8, 29]))
    kind = draw(st.sampled_from(["lattice", "decimal", "normal", "equal"]))
    if kind == "lattice":
        # Integer lattice: exact ties between candidate centroids abound.
        X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    elif kind == "decimal":
        # Decimal lattice m * 10^-e: ties binary cannot represent.
        X = rng.integers(0, 5, size=(n, d)) * 10.0 ** -draw(st.integers(1, 4))
    elif kind == "normal":
        X = rng.normal(size=(n, d))
    else:
        # All rows equal: the D^2 mass vanishes (the total <= 0 branch).
        X = np.repeat(rng.normal(size=(1, d)), n, axis=0)
    if draw(st.booleans()):
        X = X[rng.integers(0, n, size=n)]  # duplicate rows
    if draw(st.booleans()):
        # Near ties below the partial form's resolution: far from the
        # origin, |c|^2 - 2 x.c + |x|^2 cancels catastrophically.
        X = X + rng.normal(scale=1e-9, size=X.shape) + 1e3
    # One global scale from subnormal (1e-310) to overflowing squares
    # (1e160), then optional per-row magnitudes.
    scale = 10.0 ** draw(st.one_of(
        st.sampled_from([-310.0, -300.0, 150.0, 155.0, 160.0]),
        st.floats(-165.0, -150.0),  # products of ~1e-320 are subnormal
        st.floats(-310.0, 160.0)))
    X = X * scale
    if draw(st.booleans()):
        X *= 10.0 ** rng.uniform(-30.0, 30.0, size=(n, 1))
    if draw(st.booleans()):
        # Non-contiguous input: every other row of a wider buffer.
        wide = np.zeros((2 * n, d))
        wide[::2] = X
        X = wide[::2]
    if draw(st.booleans()):
        with np.errstate(over="ignore"):  # huge scales become inf
            X = X.astype(np.float32)
    k = min(draw(st.sampled_from([1, 2, n])), n)
    return X, k


class TestSeedingScreen:
    """Each test here fails for a screen that is wrong or idle."""

    @given(case=_seeding_case(), seed=st.integers(0, 2**32 - 1),
           as_generator=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_loop(self, case: Tuple[np.ndarray, int],
                                    seed: int, as_generator: bool) -> None:
        X, k = case
        arg = np.random.default_rng(seed) if as_generator else seed
        X64 = np.asarray(X, dtype=np.float64)
        with np.errstate(all="ignore"):
            try:
                ref = _reference_kmeans_plus_plus(
                    X64, k, np.random.default_rng(seed))
            except ValueError:
                # Non-finite or overflowing distances: a typed error now.
                with pytest.raises(DataShapeError):
                    init_centroids(X, k, "kmeans++", arg)
                return
            got = init_centroids(X, k, "kmeans++", arg)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      ref.view(np.uint64))

    @given(case=_seeding_case(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_every_draw_sees_the_same_weights(
            self, case: Tuple[np.ndarray, int], seed: int) -> None:
        # The draw weights are d2 / total, so a wrongly skipped row shows
        # in the next round even when the drawn centroids agree.
        X, k = case
        try:
            seeded = _seed_both(X, k, seed=seed)
        except (ValueError, DataShapeError):
            return  # pinned by test_matches_reference_loop
        _assert_same_seeding(*seeded)

    def test_fast_path_skips_blobs(
            self, monkeypatch: pytest.MonkeyPatch) -> None:
        # Well-spread data must skip the direct form for most rows; a
        # screen that never skips would pass every parity test, only slower.
        X, _ = gaussian_blobs(n=20_000, k=64, d=32, seed=5)
        rows: List[int] = []

        def counting(A: np.ndarray, C: np.ndarray) -> np.ndarray:
            rows.append(A.shape[0])
            return squared_distances(A, C)

        monkeypatch.setattr(init_module, "squared_distances", counting)
        init_centroids(X, 64, "kmeans++", seed=0)
        n = X.shape[0]
        assert rows[0] == n  # the first round runs the full direct form
        assert sum(rows[1:]) <= 0.10 * n * 63

    @staticmethod
    def _direct_rows(monkeypatch: pytest.MonkeyPatch, X: np.ndarray,
                     k: int, script: Sequence[int]) -> List[np.ndarray]:
        """Rows each round sends to the direct form, under scripted draws."""
        calls: List[np.ndarray] = []

        def recording(A: np.ndarray, C: np.ndarray) -> np.ndarray:
            calls.append(np.array(A, copy=True))
            return squared_distances(A, C)

        monkeypatch.setattr(init_module, "squared_distances", recording)
        seeded = _seed_both(X, k, script=script)
        monkeypatch.undo()
        _assert_same_seeding(*seeded)
        return calls

    @staticmethod
    def _reached(rows: np.ndarray, x: Sequence[float]) -> bool:
        return bool((rows == np.asarray(x)).all(axis=1).any())

    def test_ties_reach_the_direct_form(
            self, monkeypatch: pytest.MonkeyPatch) -> None:
        # After drawing (-1, 0) then (1, 0), rows (0, 0) and (0, 3) are
        # exactly as far from the new centroid as from the old one.
        X = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
        calls = self._direct_rows(monkeypatch, X, 2, script=[0, 1])
        assert len(calls) == 2
        assert self._reached(calls[1], [0.0, 0.0])
        assert self._reached(calls[1], [0.0, 3.0])
        # ... while the first centroid's own row is screened out.
        assert not self._reached(calls[1], [-1.0, 0.0])

    @pytest.mark.parametrize("X", [
        # |x|^2 and x.c overflow (2e154 squared), so the gap is NaN for
        # every row, yet row 2's squared distance drops from 4 to 1.
        np.array([[2e154, 0.0], [2e154, 3.0], [2e154, 2.0]]),
        # |x|^2 overflows but x.c does not, so row 2's gap is +inf, yet
        # its squared distance drops from 0.90 to 0.82 of the float max.
        np.array([[0.055], [0.1], [1.005]]) * np.sqrt(np.finfo(float).max),
    ])
    def test_overflowing_rows_reach_the_direct_form(
            self, monkeypatch: pytest.MonkeyPatch, X: np.ndarray) -> None:
        calls = self._direct_rows(monkeypatch, X, 3, script=[0, 1, 2])
        assert self._reached(calls[1], X[2])

    def test_subnormal_lattices_match_reference(self) -> None:
        # Products near 1e-320 are subnormal, so their absolute rounding
        # error dwarfs any relative bound; only tau's absolute term keeps
        # these rows off the fast path.
        rng = np.random.default_rng(7)
        for trial in range(300):
            X = rng.integers(-2, 3, size=(20, 3)).astype(np.float64)
            X *= 10.0 ** rng.uniform(-165.0, -150.0)
            _assert_same_seeding(*_seed_both(X, 20, seed=trial))


def _bad_input(which: str) -> np.ndarray:
    """200x4 normal data with one NaN or +Inf, or scaled past overflow."""
    X = np.random.default_rng(0).normal(size=(200, 4))
    if which == "overflow":
        return X * 1e160
    X[17, 2] = np.nan if which == "nan" else np.inf
    return X


class TestSeedingErrors:
    """Non-finite or overflowing input raises a typed error, not numpy's."""

    @pytest.mark.parametrize("which", ["nan", "inf", "overflow"])
    def test_init_centroids_raises(self, which: str) -> None:
        match = "overflowed" if which == "overflow" else "non-finite"
        with np.errstate(all="ignore"), \
                pytest.raises(DataShapeError, match=match):
            init_centroids(_bad_input(which), 4, "kmeans++", seed=0)

    @pytest.mark.parametrize("which", ["nan", "inf", "overflow"])
    def test_fit_raises(self, which: str) -> None:
        model = HierarchicalKMeans(4, level=0, seed=0, max_iter=5)
        with np.errstate(all="ignore"), pytest.raises(DataShapeError):
            model.fit(_bad_input(which))


class TestSpreadCentroids:
    def test_shape_and_bounds(self):
        C = spread_centroids(5, 3, low=-2.0, high=2.0, seed=1)
        assert C.shape == (5, 3)
        assert (C >= -2.0).all() and (C <= 2.0).all()

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            spread_centroids(0, 3)
