"""Kernel and MMD oracles, including a brute-force double-loop reference."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ecgvae import metrics
from ecgvae.errors import DimensionError, NumericsError
from ecgvae.metrics import (
    MEDIAN_POINTS,
    compare_sets,
    median_heuristic,
    mmd2_biased,
    mmd2_unbiased,
    rbf_kernel,
)


def mmd2_biased_bruteforce(a: np.ndarray, b: np.ndarray, sigma: float) -> float:
    """Plain double loops, no vectorization; the independent reference."""
    def k(u, v):
        d = u - v
        return np.exp(-float(d @ d) / (2.0 * sigma * sigma))

    m, n = a.shape[0], b.shape[0]
    saa = sum(k(a[i], a[j]) for i in range(m) for j in range(m)) / (m * m)
    sbb = sum(k(b[i], b[j]) for i in range(n) for j in range(n)) / (n * n)
    sab = sum(k(a[i], b[j]) for i in range(m) for j in range(n)) / (m * n)
    return saa + sbb - 2.0 * sab


def picked_rows(total: int, seed: int) -> np.ndarray:
    """The pooled rows the bandwidth reads, drawn as the pooled formula drew them."""
    if total <= metrics.MEDIAN_POINTS:
        return np.arange(total)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(total, size=metrics.MEDIAN_POINTS, replace=False))


def median_over_picked_pairs(a: np.ndarray, b: np.ndarray, seed: int) -> float:
    """np.median of the distances, one picked pair (p < q) at a time, from the full blocks."""
    m = a.shape[0]
    aa, bb, ab = (metrics._sq_dists(x, y) for x, y in ((a, a), (b, b), (a, b)))
    pick = picked_rows(m + b.shape[0], seed).tolist()
    dists = []
    for i, p in enumerate(pick):
        for q in pick[i + 1:]:
            if q < m:
                sq = aa[p, q]
            elif p < m:
                sq = ab[p, q - m]
            else:
                sq = bb[p - m, q - m]
            dists.append(np.sqrt(sq))
    return float(np.median(dists))


def median_of_pooled_product(a: np.ndarray, b: np.ndarray, seed: int) -> float:
    """The pooled formula: one Gram of the picked pool and its upper triangle."""
    pool = np.concatenate([a, b])[picked_rows(a.shape[0] + b.shape[0], seed)]
    sq = metrics._sq_dists(pool, pool)[np.triu_indices(pool.shape[0], k=1)]
    return float(np.median(np.sqrt(sq)))


class TestRbfKernel:
    def test_hand_value(self):
        # squared distance 2 with sigma 1 gives exp(-1)
        x = np.array([[0.0, 0.0]])
        y = np.array([[1.0, 1.0]])
        assert np.isclose(rbf_kernel(x, y, 1.0)[0, 0], np.exp(-1.0), rtol=1e-14)

    def test_self_similarity_is_one(self, rng):
        x = rng.standard_normal((5, 3))
        k = rbf_kernel(x, x, 2.0)
        np.testing.assert_allclose(np.diag(k), 1.0)

    def test_symmetry_and_range(self, rng):
        x = rng.standard_normal((6, 4))
        k = rbf_kernel(x, x, 0.7)
        np.testing.assert_allclose(k, k.T, rtol=1e-12)
        assert (k > 0).all() and (k <= 1.0).all()

    def test_wider_sigma_means_higher_similarity(self):
        x = np.array([[0.0]])
        y = np.array([[3.0]])
        assert rbf_kernel(x, y, 5.0)[0, 0] > rbf_kernel(x, y, 0.5)[0, 0]

    def test_bad_inputs(self):
        # 1e-320 squares to 0 and 1e200 to inf, so 2 sigma^2 is no usable bandwidth
        for sigma in (0.0, -1.0, np.nan, np.inf, 1e-320, 1e200):
            with pytest.raises(ValueError):
                rbf_kernel(np.zeros((2, 2)), np.zeros((2, 2)), sigma)
        with pytest.raises(DimensionError):
            rbf_kernel(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)
        with pytest.raises(NumericsError):
            rbf_kernel(np.array([[np.nan, 0.0]]), np.zeros((1, 2)), 1.0)


class TestMedianHeuristic:
    def test_three_point_hand_value(self):
        # pool {0, 1, 3} on a line: pairwise distances {1, 2, 3}, median 2
        a = np.array([[0.0], [1.0]])
        b = np.array([[3.0]])
        assert median_heuristic(a, b) == 2.0

    def test_degenerate_pool_falls_back_to_one(self):
        a = np.ones((4, 3))
        assert median_heuristic(a, a) == 1.0

    def test_subsample_is_seeded(self, rng):
        # a pool of 2200 rows is above MEDIAN_POINTS, so a seeded subsample is read
        a = rng.standard_normal((1200, 4))
        b = rng.standard_normal((1000, 4))
        assert a.shape[0] + b.shape[0] > MEDIAN_POINTS
        s1 = median_heuristic(a, b, seed=3)
        s2 = median_heuristic(a, b, seed=3)
        s3 = median_heuristic(a, b, seed=4)
        assert s1 == s2
        assert s1 != s3
        # exact median over all 2200 * 2199 / 2 pairs, one row against the rest at a time
        pool = np.concatenate([a, b])
        dists = np.concatenate([np.linalg.norm(pool[i + 1:] - pool[i], axis=1)
                                for i in range(len(pool) - 1)])
        exact = float(np.median(dists))
        assert s1 != exact
        assert np.isclose(s1, exact, rtol=0.02)

    @pytest.mark.parametrize("m,n", [(7, 5), (6, 5)])  # 66 pairs (even), 55 (odd)
    def test_matches_bruteforce_pair_loop(self, rng, m, n):
        a = rng.standard_normal((m, 9)) * 3.0
        b = rng.standard_normal((n, 9)) + 1.0
        pool = np.concatenate([a, b])
        dists = [np.linalg.norm(pool[i] - pool[j])
                 for i in range(len(pool)) for j in range(i + 1, len(pool))]
        np.testing.assert_allclose(median_heuristic(a, b), np.median(dists), rtol=1e-12)


class TestMmd:
    def test_matches_bruteforce(self, rng):
        a = rng.standard_normal((10, 5))
        b = rng.standard_normal((10, 5)) + 0.5
        for sigma in (0.5, 1.0, 3.0):
            assert abs(mmd2_biased(a, b, sigma)
                       - mmd2_biased_bruteforce(a, b, sigma)) < 1e-12

    def test_identical_sets_give_zero(self, rng):
        a = rng.standard_normal((40, 25))
        assert mmd2_biased(a, a.copy(), 1.0) <= 1e-12

    def test_copy_of_a_blocked_input_gives_exactly_zero(self, rng):
        # large enough for BLAS to block the product; the common offset makes
        # the Gram identity cancel hard, so any rounding difference between the
        # within-set and cross-set products survives into the statistic
        a = 100.0 + rng.standard_normal((300, 400))
        assert mmd2_biased(a, a.copy(), median_heuristic(a, a)) == 0.0

    def test_biased_is_non_negative(self, rng):
        for _ in range(10):
            a = rng.standard_normal((8, 3))
            b = rng.standard_normal((12, 3))
            assert mmd2_biased(a, b, 1.0) >= 0.0

    def test_symmetry_in_arguments(self, rng):
        a = rng.standard_normal((9, 4))
        b = rng.standard_normal((7, 4)) + 1.0
        assert np.isclose(mmd2_biased(a, b, 1.3), mmd2_biased(b, a, 1.3), rtol=1e-12)
        assert np.isclose(mmd2_unbiased(a, b, 1.3), mmd2_unbiased(b, a, 1.3), rtol=1e-12)

    def test_singleton_hand_value(self):
        # one point per side: 1 + 1 - 2 k(a, b)
        a = np.array([[0.0]])
        b = np.array([[2.0]])
        expect = 2.0 - 2.0 * np.exp(-4.0 / 2.0)
        assert np.isclose(mmd2_biased(a, b, 1.0), expect, rtol=1e-14)

    def test_far_apart_tight_clusters_approach_two(self, rng):
        # within-set kernel ~1, cross-set ~0, so the statistic saturates at 2
        a = 1e-3 * rng.standard_normal((20, 2))
        b = 1e-3 * rng.standard_normal((20, 2)) + 100.0
        assert mmd2_biased(a, b, 1.0) > 1.99

    def test_shifted_scores_higher_than_matched(self, rng):
        base = rng.standard_normal((100, 5))
        same = rng.standard_normal((100, 5))
        far = rng.standard_normal((100, 5)) + 2.0
        sigma = median_heuristic(base, far)
        assert mmd2_biased(base, far, sigma) > mmd2_biased(base, same, sigma)

    def test_unbiased_near_zero_for_same_distribution(self, rng):
        a = rng.standard_normal((200, 3))
        b = rng.standard_normal((200, 3))
        v = mmd2_unbiased(a, b, median_heuristic(a, b))
        assert abs(v) < 0.01  # can dip below zero, must hug it

    def test_unbiased_needs_two_rows(self):
        with pytest.raises(DimensionError):
            mmd2_unbiased(np.zeros((1, 2)), np.zeros((5, 2)), 1.0)


class TestCompareSets:
    def test_report_fields(self, rng):
        a = rng.standard_normal((30, 25))
        b = rng.standard_normal((40, 25))
        rep = compare_sets(a, b, label_a="real", label_b="gen", seed=5)
        assert (rep.label_a, rep.label_b) == ("real", "gen")
        assert (rep.n_a, rep.n_b) == (30, 40)
        assert rep.sigma == median_heuristic(a, b, seed=5)
        assert rep.mmd2_biased >= 0.0
        assert np.isfinite(rep.mmd2_unbiased)
        assert rep.seed == 5

    def test_explicit_sigma_respected(self, rng):
        a = rng.standard_normal((10, 4))
        rep = compare_sets(a, a, sigma=2.5)
        assert rep.sigma == 2.5
        assert rep.mmd2_biased == 0.0

    def test_fields_equal_standalone_estimators(self, rng):
        a = rng.standard_normal((30, 25))
        b = rng.standard_normal((40, 25)) + 0.2
        rep = compare_sets(a, b, seed=2)
        assert rep.mmd2_biased == mmd2_biased(a, b, rep.sigma)
        assert rep.mmd2_unbiased == mmd2_unbiased(a, b, rep.sigma)

    def test_singleton_side_reports_nan_unbiased(self, rng):
        rep = compare_sets(np.zeros((1, 3)), rng.standard_normal((5, 3)))
        assert np.isnan(rep.mmd2_unbiased)
        assert rep.mmd2_biased >= 0.0


class TestOneDistancePass:
    """compare_sets reads the bandwidth out of the same blocks the MMD^2 sums."""

    @pytest.mark.parametrize("rows", [301, 1203])  # pools of 602 and 2406 rows
    def test_copy_of_offset_rows_gives_exactly_zero(self, rng, rows):
        # 301 and 1203 rows end on partial BLAS tiles; the offset makes
        # ||x||^2 + ||y||^2 - 2 x.y cancel hard, so a rounding mismatch shows
        a = 100.0 + rng.standard_normal((rows, 400))
        assert (2 * rows > MEDIAN_POINTS) == (rows == 1203)
        rep = compare_sets(a, a.copy())
        assert rep.mmd2_biased == 0.0
        assert rep.sigma > 0.0

    @pytest.mark.parametrize("m,n,points", [
        (3, 2, 2000),  # 10 pairs (even)
        (4, 2, 2000),  # 15 pairs (odd)
        (7, 5, 2000),  # 66 pairs (even)
        (6, 5, 2000),  # 55 pairs (odd)
        (40, 31, 50),  # a subsample of 50 rows: 1225 pairs (odd)
        (35, 36, 48),  # a subsample of 48 rows: 1128 pairs (even)
    ])
    def test_sigma_is_the_median_over_the_picked_pairs(self, rng, monkeypatch, m, n, points):
        monkeypatch.setattr(metrics, "MEDIAN_POINTS", points)
        a = 100.0 + rng.standard_normal((m, 30))
        b = 100.0 + 1.5 * rng.standard_normal((n, 30))
        for seed in (0, 7):
            sigma = compare_sets(a, b, seed=seed).sigma
            assert sigma == median_over_picked_pairs(a, b, seed)
            assert sigma == pytest.approx(median_of_pooled_product(a, b, seed), rel=1e-12)
            assert median_heuristic(a, b, seed=seed) == sigma

    def test_score_size_sigma_is_near_the_pooled_product(self, rng):
        a = 0.3 * rng.standard_normal((1000, 400))
        b = 0.3 * rng.standard_normal((1920, 400)) + 0.01
        sigma = compare_sets(a, b, seed=3).sigma
        assert sigma == pytest.approx(median_of_pooled_product(a, b, 3), rel=1e-12)
        assert median_heuristic(a, b, seed=3) == sigma

    def test_one_row_side(self, rng):
        a = rng.standard_normal((1, 6))
        b = rng.standard_normal((9, 6))
        rep = compare_sets(a, b, seed=1)
        assert rep.sigma == median_over_picked_pairs(a, b, 1)
        assert rep.mmd2_biased == mmd2_biased(a, b, rep.sigma)
        assert np.isnan(rep.mmd2_unbiased)

    def test_two_row_pool(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        rep = compare_sets(a, b)
        assert rep.sigma == 5.0
        assert rep.mmd2_biased == pytest.approx(2.0 - 2.0 * np.exp(-25.0 / 50.0), rel=1e-14)
        assert compare_sets(a, a.copy()).sigma == 1.0  # one zero distance falls back

    def test_score_size_peak_memory(self, rng):
        a = rng.standard_normal((1000, 400))
        b = rng.standard_normal((1920, 400))
        tracemalloc.start()
        try:
            compare_sets(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the three blocks are 53 MB; the picked distances 16 MB more
        assert peak < 90e6


class TestOverflowingDistances:
    @pytest.mark.parametrize("call", [
        lambda a, b: compare_sets(a, b),
        lambda a, b: compare_sets(a, b, sigma=1.0),
        lambda a, b: median_heuristic(a, b),
        lambda a, b: mmd2_biased(a, b, 1.0),
        lambda a, b: mmd2_unbiased(a, b, 1.0),
        lambda a, b: rbf_kernel(a, b, 1.0),
    ])
    def test_finite_rows_whose_distances_overflow_raise(self, rng, call):
        a = 1e200 * rng.standard_normal((20, 8))
        b = 1e200 * rng.standard_normal((30, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericsError, match="overflow"):
                call(a, b)

    def test_one_huge_row_on_one_side_raises(self, rng):
        a = rng.standard_normal((20, 8))
        b = rng.standard_normal((30, 8))
        b[7, 3] = 1e154  # a finite squared norm, 1e308, but 2 x.x overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericsError, match="overflow"):
                compare_sets(a, b)

    def test_large_but_safe_rows_score_without_warnings(self, rng):
        a = 1e150 * rng.standard_normal((20, 8))
        b = 1e150 * rng.standard_normal((30, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = compare_sets(a, b)
        assert np.isfinite([rep.sigma, rep.mmd2_biased, rep.mmd2_unbiased]).all()
        assert rep.sigma == pytest.approx(median_of_pooled_product(a, b, 0), rel=1e-12)
