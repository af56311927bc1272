"""Model-driven experiments: sampling the prior, latent traversals."""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import SampleSet
from .errors import DimensionError
from .model import VaeModel, decode_batch
from .persistence import emit_plot

TRAVERSAL_GRID = tuple(np.linspace(-3.0, 3.0, 10))


def sample_synthetic(model: VaeModel, n: int, seed: int) -> SampleSet:
    """Decode n prior draws z ~ N(0, I) into cycles, deterministically per seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, model.config.latent_dim)).astype(model.dtype)
    return SampleSet(decode_batch(model, z))


def _traversal_codes(model: VaeModel, base_z: np.ndarray, features: Sequence[int],
                     values: Sequence[float]) -> np.ndarray:
    """Codes [len(features), len(values), latent]: copies of base_z with the feature
    of the row set to each value."""
    base_z = np.asarray(base_z, dtype=model.dtype).reshape(-1)
    latent = model.config.latent_dim
    if base_z.shape[0] != latent:
        raise DimensionError(f"base_z must have length {latent}, got {base_z.shape[0]}")
    for feature in features:
        if not 0 <= feature < latent:
            raise IndexError(f"feature index {feature} outside [0, {latent})")
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size < 1:
        raise ValueError("traversal needs at least one value")
    if not (np.abs(vals) <= np.finfo(model.dtype).max).all():
        raise ValueError(f"traversal values must be finite in {np.dtype(model.dtype).name}")
    vals = vals.astype(model.dtype)
    z = np.tile(base_z, (len(features), vals.size, 1))
    for row, feature in zip(z, features):
        row[:, feature] = vals
    return z


def latent_traversal(model: VaeModel, base_z: np.ndarray, feature: int,
                     values: Sequence[float]) -> np.ndarray:
    """Decode copies of base_z with one coordinate swept over `values`."""
    return decode_batch(model, _traversal_codes(model, base_z, [feature], values)[0])


def traversal_sweep(model: VaeModel, out_dir, seed: int,
                    values: Optional[Sequence[float]] = None,
                    features: Optional[Sequence[int]] = None) -> list[Path]:
    """One SVG per latent feature, each stacking the traces of its sweep around the zero code.

    Every feature and value is checked before the first file is written.
    `seed` does not change the plots. Files are named by feature index and
    written deterministically. All codes decode in one decode_batch call,
    which is row-invariant, so each plot equals latent_traversal's traces.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    latent = model.config.latent_dim
    vals = np.asarray(TRAVERSAL_GRID if values is None else list(values), dtype=np.float64)
    feats = range(latent) if features is None else [int(f) for f in features]
    codes = _traversal_codes(model, np.zeros(latent, dtype=model.dtype), feats, vals)
    traces = decode_batch(model, codes.reshape(-1, latent)).reshape(len(codes), vals.size, -1)
    paths = []
    for f, rows in zip(feats, traces):
        labels = [f"z[{f}]={v:+.2f}" for v in vals]
        p = out_dir / f"traversal_feature_{f:02d}.svg"
        emit_plot(rows, labels, p, title=f"latent feature {f} sweep")
        paths.append(p)
    return paths


def traversal_effect(traces_lo: np.ndarray, traces_hi: np.ndarray) -> float:
    """L2 distance between two decoded cycles (effect size of a sweep)."""
    d = np.asarray(traces_lo, dtype=np.float64) - np.asarray(traces_hi, dtype=np.float64)
    return float(np.sqrt(np.sum(d * d)))
