"""Distribution comparison: RBF kernel, median-heuristic bandwidth, MMD^2.

Everything runs in float64. The biased (V-statistic) MMD^2 (Gretton et al.
2012, JMLR) is >= 0 and exactly 0 for identical samples; the unbiased one
drops diagonal terms and may dip below 0. Squared distances use
||x||^2 + ||y||^2 - 2 x.y, clamped at 0. The product is always a gemm:
numpy runs `x @ x.T` as a syrk, which rounds differently, and MMD^2(X, copy
of X) is exactly 0 only when every pairing's Gram matrix rounds the same way.

A comparison makes one distance pass: the blocks aa, bb and ab. The
median-heuristic bandwidth reads the pooled upper triangle straight out of
them (a first, picked rows sorted, so every pair keeps the orientation of one
pooled product), and each block is then exponentiated in place and summed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericsError

MEDIAN_POINTS = 2000  # pooled rows above which the bandwidth reads a subsample
# squared row norms up to this keep every term of the distance formula finite
_MAX_SQ_NORM = np.finfo(np.float64).max / 8.0


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


def _pair(x, y, names: str = "ab") -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as checked float64 matrices with the same feature dim."""
    x, y = _as_matrix(x, names[0]), _as_matrix(y, names[1])
    if x.shape[1] != y.shape[1]:
        raise DimensionError(f"feature dims differ: {x.shape[1]} vs {y.shape[1]}")
    return x, y


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All squared distances ||x_i - y_j||^2 as ||x||^2 + ||y||^2 - 2 x.y, >= 0.

    Raises NumericsError before the product when the squared norms are large
    enough for a term to overflow. A floating-point flag would not do: BLAS
    worker threads do not report theirs, and the clamp at 0 hides a -inf.
    """
    nx = np.einsum("ij,ij->i", x, x)
    ny = np.einsum("ij,ij->i", y, y)
    top = max(nx.max(initial=0.0), ny.max(initial=0.0))
    if not top <= _MAX_SQ_NORM:
        raise NumericsError(f"squared distances overflow float64: a squared norm reaches "
                            f"{top:.3g}, past the {_MAX_SQ_NORM:.3g} the formula allows")
    # the fresh -2x keeps numpy off the syrk path when y is x; the scaling is exact
    sq = (-2.0 * x) @ y.T
    sq += nx[:, None]
    sq += ny
    return np.maximum(sq, 0.0, out=sq)


def _grams(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The squared-distance blocks (aa, bb, ab) of one comparison."""
    return _sq_dists(a, a), _sq_dists(b, b), _sq_dists(a, b)


def check_sigma(sigma: float) -> float:
    """The kernel's 2 sigma^2; ValueError unless sigma > 0 and 2 sigma^2 is finite and > 0."""
    two_var = 2.0 * sigma * sigma
    if not (sigma > 0 and 0.0 < two_var < np.inf):  # NaN fails every comparison
        raise ValueError(f"sigma must be positive with 2 sigma^2 finite and non-zero, got {sigma}")
    return two_var


def _exp_kernel(sq: np.ndarray, two_var: float) -> np.ndarray:
    """exp(-sq / (2 sigma^2)), in place over the squared distances."""
    sq /= -two_var
    return np.exp(sq, out=sq)


def rbf_kernel(x: np.ndarray, y: np.ndarray, sigma: float) -> np.ndarray:
    """Gram matrix k(x, y) = exp(-||x - y||^2 / (2 sigma^2))."""
    two_var = check_sigma(sigma)
    x, y = _pair(x, y, "xy")
    return _exp_kernel(_sq_dists(x, y), two_var)


def _pick(total: int, seed: int) -> np.ndarray:
    """Sorted pooled-row indices the bandwidth reads: all, or a seeded MEDIAN_POINTS."""
    if total <= MEDIAN_POINTS:
        return np.arange(total)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(total, size=MEDIAN_POINTS, replace=False))


def _bandwidth(aa: np.ndarray, bb: np.ndarray, ab: np.ndarray, pick: np.ndarray) -> float:
    """Median distance over the pooled rows `pick` (a's rows first), read from the blocks.

    The pairs i < j of the picked rows are the aa upper triangle, all of ab and
    the bb upper triangle. sqrt is monotone and correctly rounded, so the sqrt
    of the middle one or two squared distances (their mean when two) equals
    np.median over the distances. A zero median (all rows identical) gives 1.0.
    """
    m = aa.shape[0]
    pa, pb = pick[pick < m], pick[pick >= m] - m
    upper = np.empty(pick.size * (pick.size - 1) // 2)
    pos = 0
    for r, i in enumerate(pa):
        for row, cols in ((aa[i], pa[r + 1:]), (ab[i], pb)):
            np.take(row, cols, out=upper[pos:pos + cols.size])
            pos += cols.size
    for r, j in enumerate(pb):
        np.take(bb[j], pb[r + 1:], out=upper[pos:pos + pb.size - r - 1])
        pos += pb.size - r - 1
    half = upper.size // 2
    if upper.size % 2:
        upper.partition(half)
        med = math.sqrt(upper[half])
    else:
        upper.partition([half - 1, half])
        med = (math.sqrt(upper[half - 1]) + math.sqrt(upper[half])) / 2.0
    return med if med > 0.0 else 1.0


def median_heuristic(a, b, seed: int = 0) -> float:
    """Median pairwise distance over the pooled samples.

    Exact when the pool has at most MEDIAN_POINTS rows; above that a seeded
    uniform subsample of MEDIAN_POINTS rows is used. A degenerate pool (all
    rows identical) falls back to sigma = 1.0. It reads the picked pairs from
    the full blocks, as `compare_sets` does, so the two give the same sigma.
    """
    a, b = _pair(a, b)
    return _bandwidth(*_grams(a, b), _pick(a.shape[0] + b.shape[0], seed))


def _mmd2(aa: np.ndarray, bb: np.ndarray, ab: np.ndarray, sigma: float) -> tuple[float, float]:
    """(biased, unbiased) MMD^2 from the squared-distance blocks, which it overwrites.

    Each Gram is summed once (a mean is that sum over the size, bit for bit).
    The unbiased statistic is NaN when a side has 1 row.
    """
    two_var = check_sigma(sigma)
    m, n = ab.shape
    kaa, kbb, kab = (_exp_kernel(sq, two_var) for sq in (aa, bb, ab))
    saa, sbb = kaa.sum(), kbb.sum()
    cross = 2.0 * (kab.sum() / (m * n))
    biased = max(float(saa / (m * m) + sbb / (n * n) - cross), 0.0)
    if m < 2 or n < 2:
        return biased, float("nan")
    term_a = (saa - np.trace(kaa)) / (m * (m - 1))
    term_b = (sbb - np.trace(kbb)) / (n * (n - 1))
    return biased, float(term_a + term_b - cross)


def mmd2_biased(a, b, sigma: float) -> float:
    """V-statistic MMD^2: mean k(a,a) + mean k(b,b) - 2 mean k(a,b) >= 0."""
    return _mmd2(*_grams(*_pair(a, b)), sigma)[0]


def mmd2_unbiased(a, b, sigma: float) -> float:
    """U-statistic MMD^2 (diagonals excluded); needs >= 2 rows per side."""
    a, b = _pair(a, b)
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise DimensionError("unbiased MMD^2 needs at least 2 samples per side")
    return _mmd2(*_grams(a, b), sigma)[1]


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
    """Full comparison with median-heuristic sigma unless one is given.

    One distance pass serves both: the bandwidth reads the blocks before the
    MMD^2 exponentiates them in place.
    """
    a, b = _pair(a, b)
    aa, bb, ab = _grams(a, b)
    m = a.shape[0]
    s = _bandwidth(aa, bb, ab, _pick(m + b.shape[0], seed)) if sigma is None else float(sigma)
    biased, unbiased = _mmd2(aa, bb, ab, s)
    return MmdReport(
        label_a=label_a,
        label_b=label_b,
        n_a=m,
        n_b=b.shape[0],
        sigma=s,
        mmd2_biased=biased,
        mmd2_unbiased=unbiased,
        seed=seed,
    )
