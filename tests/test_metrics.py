"""Kernel and MMD oracles, including a brute-force double-loop reference."""

import numpy as np
import pytest

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
