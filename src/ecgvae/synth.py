"""Synthetic single-lead ECG generation from Gaussian wave bumps.

A beat is the sum of five Gaussian bumps (P, Q, R, S, T) placed relative to
the R peak; a record tiles beats at a jittered RR interval and adds white
noise. Amplitudes are in millivolts, wave centers and widths in seconds.
Everything is driven by explicit seeds, so corpora regenerate byte-identically.

gen_cycle, gen_record and gen_corpus share one render pass, `_render`. It
lays every bump's clipped 5-sigma window out end to end, in (lead, beat, wave)
order, evaluates all of them with the same elementwise expressions a
bump-at-a-time loop would use, and adds them into zeroed float64 leads with
`np.add.at`. Each sample's contributions are therefore added one by one in
(beat, wave) order, and the leads equal the loop's bit for bit. The windows are
evaluated in blocks of at most `_GRID_CAP` samples, whatever the corpus size,
the wave widths or the record length; only the per-bump tables grow, with the
beat count. gen_corpus renders at most `_GRID_CAP` lead samples per call, or
one record when a record is longer.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .data import CYCLE_LEN, EcgRecord

DEFAULT_FS = 500.0
MAX_NOISE_STD = 1e3  # mV; float32 holds the noise with room to spare
MAX_RECORD_SAMPLES = 2 ** 24  # samples x leads: 64 MB as float32, 9.3 h of one lead at 500 Hz
_GRID_CAP = 2 ** 16  # bump samples per evaluation block; lead samples per gen_corpus render


@dataclass(frozen=True)
class Wave:
    """One Gaussian bump: amplitude (mV), center offset from R (s), width sigma (s)."""

    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.center)
                and 0 < self.width < math.inf):
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


def _render(params: Sequence[MorphologyParams], positions: Sequence[np.ndarray],
            n: int, fs: float) -> np.ndarray:
    """Noise-free float64 leads [len(params), n]: lead i has params[i]'s waves at positions[i]."""
    waves = np.array([[(w.amplitude, w.center, w.width) for w in p.waves] for p in params])
    lead = np.repeat(np.arange(len(params)), [pos.size for pos in positions])  # per beat
    amp, center, width = waves[lead].transpose(2, 0, 1)  # each [beats, waves]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        # one bump per entry, raveled in (lead, beat, wave) order
        c = (np.concatenate(positions).astype(np.float64)[:, None] + center * fs).ravel()
        half = (5.0 * width * fs).ravel()  # beyond 5 sigma a bump is numerically zero
        sigma = (width * fs).ravel()
        lo, hi = np.floor(c - half), np.ceil(c + half) + 1
    amp = amp.ravel()
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError(f"wave window is not finite at {fs} Hz")
    lo = np.clip(lo, 0, n).astype(np.int64)
    size = np.maximum(np.clip(hi, 0, n).astype(np.int64) - lo, 0)
    # the clipped windows laid end to end: element e of bump j is sample lo[j] + e - start[j]
    end = np.cumsum(size)
    start = end - size
    off = lo - start
    shift = np.repeat(lead, waves.shape[1]) * n + off  # flat index = e + shift[j]
    signal = np.zeros(len(params) * n)
    total = int(size.sum())
    for a in range(0, total, _GRID_CAP):
        b = min(a + _GRID_CAP, total)
        j0, j1 = np.searchsorted(end, a, "right"), np.searchsorted(start, b)  # bumps in [a, b)
        j = np.repeat(np.arange(j0, j1), np.minimum(end[j0:j1], b) - np.maximum(start[j0:j1], a))
        e = np.arange(a, b)
        x = (e + off[j]).astype(np.float64)  # sample times t, then in place the bump values
        x -= c[j]
        x /= sigma[j]
        np.square(x, out=x)
        x *= -0.5
        np.exp(x, out=x)
        x *= amp[j]
        # add.at adds element by element, in order: no sum is regrouped across blocks
        np.add.at(signal, e + shift[j], x)
    return signal.reshape(len(params), n)


def _noisy(signal: np.ndarray, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """float32 `signal` plus white noise, drawn from `rng` only when noise_std > 0."""
    if noise_std > 0:
        signal += noise_std * rng.standard_normal(signal.shape[0])
    return signal.astype(np.float32)


def gen_cycle(params: MorphologyParams = MorphologyParams(),
              fs: float = DEFAULT_FS) -> tuple[np.ndarray, int]:
    """One 400-sample R-centered beat; returns the float32 cycle and the R index (200)."""
    r_index = CYCLE_LEN // 2
    signal = _render([params], [np.array([r_index])], CYCLE_LEN, fs)[0]
    return _noisy(signal, params.noise_std, np.random.default_rng(params.seed)), r_index


def _beat_positions(params: MorphologyParams, n_samples: int,
                    fs: float, rng: np.random.Generator) -> np.ndarray:
    """R-peak sample positions: first at interval/2, then jittered intervals.

    The last can round to n_samples, one past the end; callers keep it for
    rendering and drop it from the truth they return.
    """
    base = 60.0 / params.heart_rate_bpm * fs
    positions = []
    r = base / 2.0
    while r < n_samples:
        positions.append(int(round(r)))
        jitter = params.rr_jitter * float(rng.uniform(-1.0, 1.0))
        r += base * (1.0 + jitter)
    return np.asarray(positions, dtype=np.int64)


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
    """A single-lead strip of `duration_s` seconds plus its true R positions.

    The positions are those inside the strip; a beat whose R rounds to the
    strip's length is still drawn, for its leading flank.
    """
    n = _record_samples(duration_s, fs, 1)
    rng = np.random.default_rng(params.seed)
    positions = _beat_positions(params, n, fs, rng)
    lead = _noisy(_render([params], [positions], n, fs)[0], params.noise_std, rng)
    return EcgRecord(lead[None, :], fs, record_id), positions[positions < n]


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


# The 11 factors of one lead, in draw order; the same range may serve several.
_FACTORS = ("width_scale", "p_center", "amp_scale", "amp_scale", "amp_scale", "amp_scale",
            "t_center", "amp_scale", "heart_rate_bpm", "rr_jitter", "noise_std")


def sample_params(rng: np.random.Generator, ranges: ParamRanges = ParamRanges(),
                  seed: int = 0) -> MorphologyParams:
    """Draw one record's morphology from the given ranges, as one vector of 11 uniforms."""
    lo, hi = np.array([getattr(ranges, name) for name in _FACTORS]).T
    ws, p_c, p_a, q_a, r_a, s_a, t_c, t_a, rate, jitter, noise = rng.uniform(lo, hi).tolist()

    def scaled(wave: Wave, amp_scale: float, center: float | None = None) -> Wave:
        return Wave(wave.amplitude * amp_scale,
                    wave.center if center is None else center,
                    wave.width * ws)

    return MorphologyParams(
        p=scaled(DEFAULT_P, p_a, p_c),
        q=scaled(DEFAULT_Q, q_a),
        r=scaled(DEFAULT_R, r_a),
        s=scaled(DEFAULT_S, s_a),
        t=scaled(DEFAULT_T, t_a, t_c),
        heart_rate_bpm=rate,
        rr_jitter=jitter,
        noise_std=noise,
        seed=seed,
    )


def gen_corpus(n_records: int, seed: int, ranges: ParamRanges = ParamRanges(),
               duration_s: float = 10.0, fs: float = DEFAULT_FS,
               n_leads: int = 1) -> list[tuple[EcgRecord, np.ndarray]]:
    """Generate `n_records` records with per-record morphology draws.

    Extra leads share the beat timing of lead 0 but redraw amplitude scales
    and noise, like projections of one rhythm onto different electrodes.
    Returns (record, true_r_positions) pairs, the positions as gen_record's.
    """
    if n_records < 1:
        raise ValueError(f"n_records must be >= 1, got {n_records}")
    if n_leads < 1:
        raise ValueError(f"n_leads must be >= 1, got {n_leads}")
    n = _record_samples(duration_s, fs, n_leads)
    master = np.random.default_rng(seed)
    per_call = max(1, _GRID_CAP // (n * n_leads))  # records rendered together
    out = []
    for at in range(0, n_records, per_call):
        batch = []  # (record rng, R positions, params of each lead)
        for _ in range(min(per_call, n_records - at)):
            rec_seed = int(master.integers(0, 2**63 - 1))
            params = sample_params(master, ranges, seed=rec_seed)
            rng = np.random.default_rng(rec_seed)
            positions = _beat_positions(params, n, fs, rng)
            # keep rhythm, reshuffle morphology: same positions, new amplitudes
            leads = [params] + [replace(sample_params(master, ranges, seed=rec_seed),
                                        heart_rate_bpm=params.heart_rate_bpm)
                                for _ in range(1, n_leads)]
            batch.append((rng, positions, leads))
        signals = _render([p for _, _, leads in batch for p in leads],
                          [pos for _, pos, _ in batch for _ in range(n_leads)], n, fs)
        for i, (rng, positions, leads) in enumerate(batch):
            rows = signals[i * n_leads:(i + 1) * n_leads]
            record = np.stack([_noisy(row, p.noise_std, rng) for row, p in zip(rows, leads)])
            out.append((EcgRecord(record, fs, f"rec_{at + i:04d}"), positions[positions < n]))
    return out
