"""Record preprocessing: segmentation, R-peak detection, cycle extraction.

The pipeline has one configuration: records are cut into SEGMENT_S (9 s)
segments, and every extracted cycle has its baseline removed.

The detector follows the classic energy-based recipe: zero-phase band-pass
around the QRS band (5-15 Hz), squared derivative, moving-window integration,
then peak picking against half of a rolling maximum. Detections are refined
to the raw-signal maximum near the center of the energy window, so reported
indices land on the R peak itself.

The band-pass is designed once per sampling rate. `preprocess_records`
filters the (segment, lead) rows of all records together, in stacks of rows
that share a rate and length, each stack bounded to _STACK_SAMPLES samples so
that peak memory does not grow with the record count; only peak picking and
refinement run row by row. Cycles are cut by one gather per row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.ndimage import maximum_filter1d
from scipy.signal import butter, filtfilt, find_peaks

from .data import CYCLE_LEN, EcgRecord, RPeakList, check_sampling_rate
from .errors import DimensionError

REFRACTORY_S = 0.2  # minimum believable gap between two R peaks
SEGMENT_S = 9.0
_STACK_SAMPLES = 2 ** 18  # samples per detection stack: ~58 rows of 9 s at 500 Hz


def cut_segments(record: EcgRecord) -> list[EcgRecord]:
    """Split a record into non-overlapping SEGMENT_S segments; drop the tail."""
    seg_len = int(round(SEGMENT_S * record.sampling_rate_hz))
    if seg_len < 1:
        raise ValueError("segment shorter than one sample")
    k = record.n_samples // seg_len
    out = []
    for i in range(k):
        out.append(EcgRecord(
            record.leads[:, i * seg_len:(i + 1) * seg_len],
            record.sampling_rate_hz,
            record_id=f"{record.record_id}#{i}",
        ))
    return out


@lru_cache(maxsize=8)
def _bandpass(fs: float) -> tuple[np.ndarray, np.ndarray]:
    """First-order Butterworth band-pass around the QRS band (5-15 Hz), read-only."""
    nyq = fs / 2.0
    b, a = butter(1, [5.0 / nyq, 15.0 / nyq], btype="bandpass")
    b.flags.writeable = a.flags.writeable = False
    return b, a


def _detect_rows(stack: np.ndarray, fs: float) -> list[RPeakList]:
    """R peaks of each row of stack [S, L] float64, every row sampled at fs."""
    fs = check_sampling_rate(fs)
    n = stack.shape[-1]
    if n < int(fs):
        raise DimensionError(f"lead too short for detection: {n} samples at {fs} Hz")

    b, a = _bandpass(fs)
    filtered = filtfilt(b, a, stack, axis=-1)
    deriv = np.diff(filtered, axis=-1, prepend=filtered[:, :1])
    energy = deriv * deriv

    win = max(1, int(round(0.15 * fs)))
    csum = np.cumsum(np.concatenate((np.zeros((stack.shape[0], 1)), energy), axis=-1), axis=-1)
    mwi = (csum[:, win:] - csum[:, :-win]) / win
    mwi = np.concatenate((np.repeat(mwi[:, :1], win - 1, axis=-1), mwi), axis=-1)

    # adaptive threshold: half the local (~2 s window) maximum of the envelope
    roll = maximum_filter1d(mwi, size=max(1, int(round(2.0 * fs))), axis=-1, mode="nearest")
    refractory = max(1, int(round(REFRACTORY_S * fs)))
    # the integration window trails the QRS by ~win/2; search raw near its center
    half = int(round(0.05 * fs))
    out = []
    for lead, env, top in zip(stack, mwi, roll):
        cand, _ = find_peaks(env, distance=refractory)
        cand = cand[env[cand] >= 0.5 * top[cand]]
        refined: list[int] = []
        for c in cand:
            anchor = max(0, c - win // 2)
            lo = max(0, anchor - half)
            refined.append(lo + int(np.argmax(lead[lo:anchor + half + 1])))
        kept = _merge_close(sorted(refined), lead, refractory)
        out.append(RPeakList(np.asarray(kept, dtype=np.int64)))
    return out


def _merge_close(peaks: list[int], lead: np.ndarray, refractory: int) -> list[int]:
    """Sorted peak indices with close pairs merged: duplicates can refine to the same peak.

    A peak fewer than `refractory` samples after the last kept one replaces it
    if it is taller on `lead`, and is dropped otherwise.
    """
    kept: list[int] = []
    for p in peaks:
        if kept and p - kept[-1] < refractory:
            if lead[p] > lead[kept[-1]]:
                kept[-1] = p
        else:
            kept.append(p)
    return kept


def detect_r_peaks(lead: np.ndarray, fs: float) -> RPeakList:
    """Locate R peaks in one lead; a lead without QRS activity gives an empty list."""
    return _detect_rows(np.asarray(lead, dtype=np.float64).reshape(1, -1), fs)[0]


def extract_cycles(lead: np.ndarray, peaks,
                   half_width: int = CYCLE_LEN // 2) -> tuple[np.ndarray, int]:
    """Cut [r - half_width, r + half_width) windows around each peak.

    Peaks whose window would cross a record boundary are skipped and counted.
    Each window's baseline, the mean of its first and last 10 samples, is
    subtracted. Returns (windows [n, 2 * half_width] float32, n_skipped).
    """
    lead = np.asarray(lead, dtype=np.float32).reshape(-1)
    if half_width < 1:
        raise ValueError(f"half_width must be >= 1, got {half_width}")
    idx = peaks.indices if isinstance(peaks, RPeakList) else np.asarray(peaks, dtype=np.int64)
    inside = (idx >= half_width) & (idx <= lead.shape[0] - half_width)
    skipped = int(idx.size - np.count_nonzero(inside))
    if not inside.any():
        return np.empty((0, 2 * half_width), dtype=np.float32), skipped
    rows = lead[idx[inside, None] + np.arange(-half_width, half_width)]
    edges = np.concatenate((rows[:, :10], rows[:, -10:]), axis=1)
    rows -= edges.mean(axis=1, dtype=np.float64).astype(np.float32)[:, None]
    return rows, skipped


def preprocess_records(
    records, half_width: int = CYCLE_LEN // 2,
) -> tuple[np.ndarray, list[tuple[str, int]], dict]:
    """records -> segments -> peaks -> cycles, with per-cycle provenance.

    Returns (cycles [n, 2 * half_width], [(record_id, lead_id)] per cycle,
    stats with detected/skipped counts). stats["empty_leads"] counts the
    (segment, lead) rows in which no R peak was found.
    """
    stats = {"records": 0, "segments": 0, "peaks": 0, "skipped_windows": 0,
             "empty_leads": 0}
    rows: list[tuple[str, int, np.ndarray]] = []  # (segment id, lead id, lead)
    stacks: dict[tuple[float, int], list[int]] = {}  # (rate, length) -> row numbers
    for rec in records:
        stats["records"] += 1
        for seg in cut_segments(rec):
            stats["segments"] += 1
            for lead_id, lead in enumerate(seg.leads):
                stacks.setdefault((seg.sampling_rate_hz, seg.n_samples), []).append(len(rows))
                rows.append((seg.record_id, lead_id, lead))

    peaks: dict[int, RPeakList] = {}
    for (fs, n), members in stacks.items():
        per_stack = max(1, _STACK_SAMPLES // n)
        for at in range(0, len(members), per_stack):
            chunk = members[at:at + per_stack]
            stack = np.array([rows[i][2] for i in chunk], dtype=np.float64)
            peaks.update(zip(chunk, _detect_rows(stack, fs)))

    all_rows = []
    meta: list[tuple[str, int]] = []
    for i, (seg_id, lead_id, lead) in enumerate(rows):
        found = peaks[i]
        stats["empty_leads"] += len(found) == 0
        stats["peaks"] += len(found)
        cut, skipped = extract_cycles(lead, found, half_width)
        stats["skipped_windows"] += skipped
        if cut.shape[0]:
            all_rows.append(cut)
            meta.extend([(seg_id, lead_id)] * cut.shape[0])
    if all_rows:
        cycles = np.concatenate(all_rows, axis=0)
    else:
        cycles = np.empty((0, 2 * half_width), dtype=np.float32)
    return cycles, meta, stats
