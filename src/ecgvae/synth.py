"""Synthetic single-lead ECG generation from Gaussian wave bumps.

A beat is the sum of five Gaussian bumps (P, Q, R, S, T) placed relative to
the R peak; a record tiles beats at a jittered RR interval and adds white
noise. Amplitudes are in millivolts, wave centers and widths in seconds.
Everything is driven by explicit seeds, so corpora regenerate byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import CYCLE_LEN, EcgRecord

DEFAULT_FS = 500.0
MAX_NOISE_STD = 1e3  # mV; float32 holds the noise with room to spare
MAX_RECORD_SAMPLES = 2 ** 24  # samples x leads: 64 MB as float32, 9.3 h of one lead at 500 Hz


@dataclass(frozen=True)
class Wave:
    """One Gaussian bump: amplitude (mV), center offset from R (s), width sigma (s)."""

    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        if not (np.isfinite([self.amplitude, self.center]).all() and 0 < self.width < np.inf):
            raise ValueError(f"wave needs finite amplitude and center, finite width > 0: {self}")


# Textbook-flavored defaults: dominant R, small opposing Q/S, low P, broad T.
DEFAULT_P = Wave(0.15, -0.160, 0.020)
DEFAULT_Q = Wave(-0.10, -0.024, 0.008)
DEFAULT_R = Wave(1.00, 0.0, 0.012)
DEFAULT_S = Wave(-0.15, 0.024, 0.008)
DEFAULT_T = Wave(0.30, 0.300, 0.050)


@dataclass(frozen=True)
class MorphologyParams:
    """Full description of one synthetic lead's shape and rhythm."""

    p: Wave = DEFAULT_P
    q: Wave = DEFAULT_Q
    r: Wave = DEFAULT_R
    s: Wave = DEFAULT_S
    t: Wave = DEFAULT_T
    heart_rate_bpm: float = 60.0
    rr_jitter: float = 0.0
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 30.0 <= self.heart_rate_bpm <= 220.0:
            raise ValueError(
                f"heart rate must be in [30, 220] bpm, got {self.heart_rate_bpm}"
            )
        if not 0.0 <= self.rr_jitter < 0.5:
            raise ValueError(f"rr_jitter must be in [0, 0.5), got {self.rr_jitter}")
        if not 0 <= self.noise_std <= MAX_NOISE_STD:
            raise ValueError(f"noise_std must be in [0, {MAX_NOISE_STD:g}] mV, "
                             f"got {self.noise_std}")
        if abs(self.r.amplitude) <= max(abs(self.q.amplitude), abs(self.s.amplitude)):
            raise ValueError("R amplitude must dominate Q and S")

    @property
    def waves(self) -> tuple[Wave, ...]:
        return (self.p, self.q, self.r, self.s, self.t)


def _add_beat(signal: np.ndarray, r_pos: float, waves, fs: float) -> None:
    """Accumulate one beat's bumps into `signal` around sample r_pos."""
    n = signal.shape[0]
    for w in waves:
        c = r_pos + w.center * fs
        half = 5.0 * w.width * fs  # beyond 5 sigma a bump is numerically zero
        lo = max(0, int(np.floor(c - half)))
        hi = min(n, int(np.ceil(c + half)) + 1)
        if lo >= hi:
            continue
        t = np.arange(lo, hi, dtype=np.float64)
        signal[lo:hi] += w.amplitude * np.exp(-0.5 * ((t - c) / (w.width * fs)) ** 2)


def gen_cycle(params: MorphologyParams = MorphologyParams(),
              fs: float = DEFAULT_FS) -> tuple[np.ndarray, int]:
    """One 400-sample R-centered beat; returns the float32 cycle and the R index (200)."""
    r_index = CYCLE_LEN // 2
    signal = np.zeros(CYCLE_LEN, dtype=np.float64)
    _add_beat(signal, float(r_index), params.waves, fs)
    if params.noise_std > 0:
        rng = np.random.default_rng(params.seed)
        signal += params.noise_std * rng.standard_normal(CYCLE_LEN)
    return signal.astype(np.float32), r_index


def _beat_positions(params: MorphologyParams, n_samples: int,
                    fs: float, rng: np.random.Generator) -> np.ndarray:
    """R-peak sample positions: first at interval/2, then jittered intervals."""
    base = 60.0 / params.heart_rate_bpm * fs
    positions = []
    r = base / 2.0
    while r < n_samples:
        positions.append(int(round(r)))
        jitter = params.rr_jitter * float(rng.uniform(-1.0, 1.0))
        r += base * (1.0 + jitter)
    return np.asarray(positions, dtype=np.int64)


def _render_lead(params: MorphologyParams, positions: np.ndarray, n_samples: int,
                 fs: float, rng: np.random.Generator) -> np.ndarray:
    signal = np.zeros(n_samples, dtype=np.float64)
    for pos in positions:
        _add_beat(signal, float(pos), params.waves, fs)
    if params.noise_std > 0:
        signal += params.noise_std * rng.standard_normal(n_samples)
    return signal.astype(np.float32)


def _record_samples(duration_s: float, fs: float, n_leads: int) -> int:
    """Samples per lead of a record; ValueError unless it fits MAX_RECORD_SAMPLES in all."""
    if not 0 < duration_s < np.inf:
        raise ValueError(f"duration must be positive and finite, got {duration_s}")
    n = int(round(duration_s * fs))
    if n * n_leads > MAX_RECORD_SAMPLES:  # checked before any beat is placed
        raise ValueError(f"{n} samples x {n_leads} lead(s) exceeds the record sample cap")
    return n


def gen_record(params: MorphologyParams = MorphologyParams(), duration_s: float = 10.0,
               fs: float = DEFAULT_FS, record_id: str = "") -> tuple[EcgRecord, np.ndarray]:
    """A single-lead strip of `duration_s` seconds plus its true R positions."""
    n = _record_samples(duration_s, fs, 1)
    rng = np.random.default_rng(params.seed)
    positions = _beat_positions(params, n, fs, rng)
    lead = _render_lead(params, positions, n, fs, rng)
    return EcgRecord(lead[None, :], fs, record_id), positions


@dataclass(frozen=True)
class ParamRanges:
    """Uniform sampling ranges for corpus generation (lo, hi), documented defaults.

    Amplitude scales multiply the default wave amplitudes independently per
    wave; width_scale multiplies all widths; centers of P and T are drawn
    outright. noise_std keeps the default corpus clean enough that the model's
    reconstruction floor sits well below cycle-to-cycle shape variation.
    """

    heart_rate_bpm: tuple[float, float] = (50.0, 90.0)
    amp_scale: tuple[float, float] = (0.7, 1.3)
    p_center: tuple[float, float] = (-0.19, -0.13)
    t_center: tuple[float, float] = (0.26, 0.34)
    width_scale: tuple[float, float] = (0.8, 1.25)
    rr_jitter: tuple[float, float] = (0.0, 0.05)
    noise_std: tuple[float, float] = (0.002, 0.01)

    def __post_init__(self):
        for name in ("heart_rate_bpm", "amp_scale", "p_center", "t_center",
                     "width_scale", "rr_jitter", "noise_std"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"range {name} needs finite lo <= hi, got ({lo}, {hi})")
        lo, hi = self.noise_std
        if lo < 0 or hi > MAX_NOISE_STD:
            raise ValueError(f"range noise_std must lie in [0, {MAX_NOISE_STD:g}] mV, "
                             f"got ({lo}, {hi})")


def sample_params(rng: np.random.Generator, ranges: ParamRanges = ParamRanges(),
                  seed: int = 0) -> MorphologyParams:
    """Draw one record's morphology from the given ranges."""
    def u(pair):
        return float(rng.uniform(pair[0], pair[1]))

    ws = u(ranges.width_scale)

    def scaled(wave: Wave, center: float | None = None) -> Wave:
        return Wave(wave.amplitude * u(ranges.amp_scale),
                    wave.center if center is None else center,
                    wave.width * ws)

    return MorphologyParams(
        p=scaled(DEFAULT_P, u(ranges.p_center)),
        q=scaled(DEFAULT_Q),
        r=scaled(DEFAULT_R),
        s=scaled(DEFAULT_S),
        t=scaled(DEFAULT_T, u(ranges.t_center)),
        heart_rate_bpm=u(ranges.heart_rate_bpm),
        rr_jitter=u(ranges.rr_jitter),
        noise_std=u(ranges.noise_std),
        seed=seed,
    )


def gen_corpus(n_records: int, seed: int, ranges: ParamRanges = ParamRanges(),
               duration_s: float = 10.0, fs: float = DEFAULT_FS,
               n_leads: int = 1) -> list[tuple[EcgRecord, np.ndarray]]:
    """Generate `n_records` records with per-record morphology draws.

    Extra leads share the beat timing of lead 0 but redraw amplitude scales
    and noise, like projections of one rhythm onto different electrodes.
    Returns (record, true_r_positions) pairs.
    """
    if n_records < 1:
        raise ValueError(f"n_records must be >= 1, got {n_records}")
    n = _record_samples(duration_s, fs, n_leads)
    master = np.random.default_rng(seed)
    out = []
    for i in range(n_records):
        rec_seed = int(master.integers(0, 2**63 - 1))
        params = sample_params(master, ranges, seed=rec_seed)
        rng = np.random.default_rng(rec_seed)
        positions = _beat_positions(params, n, fs, rng)
        leads = [_render_lead(params, positions, n, fs, rng)]
        for _ in range(1, n_leads):
            lead_params = sample_params(master, ranges, seed=rec_seed)
            # keep rhythm, reshuffle morphology: same positions, new amplitudes
            lead_params = replace(lead_params, heart_rate_bpm=params.heart_rate_bpm)
            leads.append(_render_lead(lead_params, positions, n, fs, rng))
        record = EcgRecord(np.stack(leads), fs, record_id=f"rec_{i:04d}")
        out.append((record, positions))
    return out
