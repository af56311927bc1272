"""Distribution comparison: RBF kernel, median-heuristic bandwidth, MMD^2.

Everything runs in float64. The biased (V-statistic) MMD^2 (Gretton et al.
2012, JMLR) is >= 0 and exactly 0 for identical samples; the unbiased one
drops diagonal terms and may dip below 0. Squared distances use
||x||^2 + ||y||^2 - 2 x.y, clamped at 0. The product is always a gemm:
numpy runs `x @ x.T` as a syrk, which rounds differently, and MMD^2(X, copy
of X) is exactly 0 only when every pairing's Gram matrix rounds the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericsError

MEDIAN_POINTS = 2000  # pooled rows above which median_heuristic subsamples


def _as_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be rank 2, got rank {arr.ndim}")
    if arr.shape[0] < 1:
        raise DimensionError(f"{name} is empty")
    if not np.isfinite(arr).all():
        raise NumericsError(f"{name} contains non-finite values")
    return arr


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All squared distances ||x_i - y_j||^2 as ||x||^2 + ||y||^2 - 2 x.y, >= 0."""
    # the fresh -2x keeps numpy off the syrk path when y is x; the scaling is exact
    sq = (-2.0 * x) @ y.T
    sq += np.einsum("ij,ij->i", x, x)[:, None]
    sq += np.einsum("ij,ij->i", y, y)
    return np.maximum(sq, 0.0, out=sq)


def check_sigma(sigma: float) -> float:
    """The kernel's 2 sigma^2; ValueError unless sigma > 0 and 2 sigma^2 is finite and > 0."""
    two_var = 2.0 * sigma * sigma
    if not (sigma > 0 and 0.0 < two_var < np.inf):  # NaN fails every comparison
        raise ValueError(f"sigma must be positive with 2 sigma^2 finite and non-zero, got {sigma}")
    return two_var


def rbf_kernel(x: np.ndarray, y: np.ndarray, sigma: float) -> np.ndarray:
    """Gram matrix k(x, y) = exp(-||x - y||^2 / (2 sigma^2))."""
    two_var = check_sigma(sigma)
    x = _as_matrix(x, "x")
    y = _as_matrix(y, "y")
    if x.shape[1] != y.shape[1]:
        raise DimensionError(f"feature dims differ: {x.shape[1]} vs {y.shape[1]}")
    k = _sq_dists(x, y)
    k /= -two_var
    return np.exp(k, out=k)


def median_heuristic(a, b, seed: int = 0) -> float:
    """Median pairwise distance over the pooled samples.

    Exact when the pool has at most MEDIAN_POINTS rows; above that a seeded
    uniform subsample of MEDIAN_POINTS rows is used. A degenerate pool (all
    rows identical) falls back to sigma = 1.0.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"feature dims differ: {a.shape[1]} vs {b.shape[1]}")
    pool = np.concatenate([a, b], axis=0)
    if pool.shape[0] > MEDIAN_POINTS:
        rng = np.random.default_rng(seed)
        pick = rng.choice(pool.shape[0], size=MEDIAN_POINTS, replace=False)
        pool = pool[np.sort(pick)]
    if pool.shape[0] < 2:
        return 1.0
    # sqrt before the median: an even pair count averages the two middle values
    upper = _sq_dists(pool, pool)[np.triu_indices(pool.shape[0], k=1)]
    med = float(np.median(np.sqrt(upper, out=upper)))
    if med <= 0.0:
        return 1.0
    return med


def _mmd2(a, b, sigma: float) -> tuple[float, float]:
    """(biased, unbiased) MMD^2, one Gram matrix per pairing; unbiased is NaN for 1 row."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    kaa = rbf_kernel(a, a, sigma)
    kbb = rbf_kernel(b, b, sigma)
    kab = rbf_kernel(a, b, sigma)
    cross = 2.0 * kab.mean()
    biased = max(float(kaa.mean() + kbb.mean() - cross), 0.0)
    m, n = a.shape[0], b.shape[0]
    if m < 2 or n < 2:
        return biased, float("nan")
    term_a = (kaa.sum() - np.trace(kaa)) / (m * (m - 1))
    term_b = (kbb.sum() - np.trace(kbb)) / (n * (n - 1))
    return biased, float(term_a + term_b - cross)


def mmd2_biased(a, b, sigma: float) -> float:
    """V-statistic MMD^2: mean k(a,a) + mean k(b,b) - 2 mean k(a,b) >= 0."""
    return _mmd2(a, b, sigma)[0]


def mmd2_unbiased(a, b, sigma: float) -> float:
    """U-statistic MMD^2 (diagonals excluded); needs >= 2 rows per side."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise DimensionError("unbiased MMD^2 needs at least 2 samples per side")
    return _mmd2(a, b, sigma)[1]


@dataclass
class MmdReport:
    """One comparison row, ready for the CSV writer."""

    label_a: str
    label_b: str
    n_a: int
    n_b: int
    sigma: float
    mmd2_biased: float
    mmd2_unbiased: float
    seed: int


def compare_sets(a, b, label_a: str = "A", label_b: str = "B",
                 sigma: float | None = None, seed: int = 0) -> MmdReport:
    """Full comparison with median-heuristic sigma unless one is given."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    s = median_heuristic(a, b, seed=seed) if sigma is None else float(sigma)
    biased, unbiased = _mmd2(a, b, s)
    return MmdReport(
        label_a=label_a,
        label_b=label_b,
        n_a=a.shape[0],
        n_b=b.shape[0],
        sigma=s,
        mmd2_biased=biased,
        mmd2_unbiased=unbiased,
        seed=seed,
    )
