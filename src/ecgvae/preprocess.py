"""Record preprocessing: segmentation, R-peak detection, cycle extraction.

The pipeline has one configuration: records are cut into SEGMENT_S (9 s)
segments, and every extracted cycle has its baseline removed.

The detector follows the classic energy-based recipe (Pan & Tompkins 1985):
zero-phase band-pass around the QRS band (5-15 Hz), squared derivative,
moving-window integration, then peak picking against half of a rolling
maximum. Detections are refined to the raw-signal maximum near the center of
the energy window, so reported indices land on the R peak itself.

The band-pass is designed once per sampling rate. `preprocess_records`
filters the (segment, lead) rows of all records together, in stacks of rows
that share a rate and length, each stack bounded to _STACK_SAMPLES samples so
that peak memory does not grow with the record count; only the refinement of
each candidate to the raw signal runs row by row. Cycles are cut by one
gather per row.

The four signal steps are short numpy forms of their scipy counterparts, so
that importing this module loads numpy alone (the tests hold scipy as their
oracle):
- `_bandpass`: scipy.signal.butter(1, band, "bandpass") in closed form: the
  analog first-order prototype moved to the prewarped band, then the
  bilinear transform. It needs a rate above 30 Hz, as butter did;
- `_filtfilt`: scipy.signal.filtfilt of that 2-pole filter, with scipy's odd
  extension of 9 samples at each end and its `lfilter_zi` start. Each pass
  (`_lfilter`) runs the state-space recursion in blocks of _BLOCK samples:
  one matmul for every block's end state from its inputs, a prefix scan of
  2x2 steps (log2 of the block count of them) that carries the state from
  block to block, and one matmul for every block's outputs from its inputs
  and start state. It agrees with scipy to ~1e-14 of the output's scale, not
  bitwise;
- `_local_maxima` and `_find_peaks`: scipy.signal.find_peaks(x, distance=d)
  over every row of a stack at once. A local maximum is a rise, then (after
  zero or more flat diffs) a fall in the signs of a row's diffs; a flat
  run's peak is its middle sample `(left + right) // 2`. Then, tallest
  first, each kept peak removes the peaks of its row fewer than d samples
  away. Equal heights are taken in index order, the earlier first; scipy
  leaves their order to an unstable sort;
- `_window_max`: scipy.ndimage.maximum_filter1d(x, size, mode="nearest"),
  read only at the candidate peaks. The window of i is
  [i - size // 2, i + (size - 1) // 2], scipy's origin at odd and even
  sizes, clipped to the row (a window past an end holds copies of the edge
  sample), and its max lies at a clipped end or at a local maximum inside.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .data import CYCLE_LEN, EcgRecord, RPeakList, check_sampling_rate
from .errors import DimensionError

REFRACTORY_S = 0.2  # minimum believable gap between two R peaks
SEGMENT_S = 9.0
_STACK_SAMPLES = 2 ** 18  # samples per detection stack: ~58 rows of 9 s at 500 Hz
_PAD = 9  # filtfilt's odd extension at each end: scipy's 3 * max(len(a), len(b))
_BLOCK = 64  # samples per block of the state-space filter


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
    """First-order Butterworth band-pass around the QRS band (5-15 Hz), read-only.

    The prototype pole s = -1 goes to the band as the roots of s^2 + bw s + wo^2
    (bw and wo^2 the difference and product of the prewarped edges), and the
    bilinear transform at scipy's fs = 2 sends those to the z-plane and the
    band's two zeros to z = 1 and z = -1.
    """
    nyq = fs / 2.0
    if not 15.0 < nyq:
        raise ValueError(f"sampling rate must be above 30 Hz for the 5-15 Hz QRS band, got {fs}")
    lo, hi = (4.0 * np.tan(np.pi * edge / nyq / 2.0) for edge in (5.0, 15.0))
    bw, wo2 = hi - lo, hi * lo
    den = 16.0 + 4.0 * bw + wo2  # (4 - p1)(4 - p2) over the two analog poles
    gain = 4.0 * bw / den
    b = np.array([gain, 0.0, -gain])
    a = np.array([1.0, -(32.0 - 2.0 * wo2) / den, (16.0 - 4.0 * bw + wo2) / den])
    b.flags.writeable = a.flags.writeable = False
    return b, a


@lru_cache(maxsize=8)
def _blocks(b: tuple, a: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block matrices of the 2-pole IIR (b, a), for _lfilter.

    Its transposed direct form is the recursion s' = A s + g x, y = b0 x + s[0].
    Over a block of m = _BLOCK inputs u and a start state s, that is
    y = T u + O s and s_end = A^m s + G u, with T the [m, m] Toeplitz of the
    impulse response. Returns, for row vectors, [T | O]^T [m + 2, m],
    G^T [m, 2] and (A^m)^T.
    """
    m = _BLOCK
    step = np.array([[-a[1], 1.0], [-a[2], 0.0]])
    g = np.array([b[1] - a[1] * b[0], b[2] - a[2] * b[0]])
    powers = [np.eye(2)]  # A^0 .. A^m
    for _ in range(m):
        powers.append(step @ powers[-1])
    powers = np.array(powers)
    impulse = np.concatenate(([b[0]], powers[:m - 1, 0] @ g))
    lag = np.subtract.outer(np.arange(m), np.arange(m))
    toeplitz = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    response = np.concatenate((toeplitz.T, powers[:m, 0].T))
    return response, powers[m - 1::-1] @ g, powers[m].T.copy()


def _lfilter(b: np.ndarray, a: np.ndarray, u: np.ndarray, state: np.ndarray) -> np.ndarray:
    """scipy.signal.lfilter(b, a, x, zi=state)[0] of a 2-pole IIR, for rows x cut in blocks.

    u [R, blocks, _BLOCK + 2] holds each row's x, zero-padded to whole blocks,
    in [..., :_BLOCK]; the last two columns are scratch. One matmul gives every
    block's end state from its inputs alone, a scan of 2x2 steps carries the
    state across blocks into the scratch columns, and one matmul gives every
    block's outputs (see _blocks). Returns y [R, blocks * _BLOCK].
    """
    rows, blocks, _ = u.shape
    m = _BLOCK
    response, to_end, carry = _blocks(tuple(b), tuple(a))
    flat = u.reshape(-1, m + 2)
    starts = u[:, :, m:]
    starts[:, 0] = state
    starts[:, 1:] = (flat[:, :m] @ to_end).reshape(rows, blocks, 2)[:, :-1]
    # s_k = s_(k-1) A^m + G u_(k-1) as a prefix scan whose reach doubles each step
    power, reach = carry, 1
    while reach < blocks:
        starts[:, reach:] += starts[:, :-reach] @ power
        power = power @ power
        reach *= 2
    return (flat @ response).reshape(rows, -1)


def _filtfilt(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy.signal.filtfilt(b, a, x, axis=-1) for a 2-pole IIR, rows of x [R, L > _PAD]."""
    rows, n = x.shape
    ext = n + 2 * _PAD
    blocks = -(-ext // _BLOCK)
    flat = np.zeros((rows, blocks * _BLOCK))
    flat[:, :_PAD] = 2.0 * x[:, :1] - x[:, _PAD:0:-1]
    flat[:, _PAD:_PAD + n] = x
    flat[:, _PAD + n:ext] = 2.0 * x[:, -1:] - x[:, -2:-_PAD - 2:-1]
    u = np.empty((rows, blocks, _BLOCK + 2))
    u[:, :, :_BLOCK] = flat.reshape(rows, blocks, _BLOCK)
    # lfilter_zi: the state a unit step settles to, s = A s + g
    g0, g1 = b[1] - a[1] * b[0], b[2] - a[2] * b[0]
    settled = (g0 + g1) / (1.0 + a[1] + a[2])
    zi = np.array([settled, g1 - a[2] * settled])
    y = _lfilter(b, a, u, zi * flat[:, :1])
    flat[:, :ext] = y[:, ext - 1::-1]  # the backward pass runs on y reversed
    u[:, :, :_BLOCK] = flat.reshape(rows, blocks, _BLOCK)
    y = _lfilter(b, a, u, zi * flat[:, :1])
    return y[:, ext - 1 - _PAD:_PAD - 1:-1]


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Flat indices into x [R, n] of every row's local maxima, in order.

    A maximum is a rise, then (after zero or more flat diffs) a fall, in the
    signs of a row's diffs; a flat run's peak is its middle sample, rounded
    down. Runs at either end of a row are not maxima.
    """
    n = x.shape[1]
    up = x[:, 1:] > x[:, :-1]  # [R, n - 1]: the diffs that rise
    down = x[:, 1:] < x[:, :-1]
    row, rise = (up[:, :-1] & down[:, 1:]).nonzero()  # a rise, then at once a fall
    found = [row * n + rise + 1]
    # flat runs: diffs k0..k1 of a row are 0 (flat coordinates into up and down)
    flat = (~(up | down)).ravel().nonzero()[0]
    if flat.size:
        row = flat // (n - 1)
        ends = np.flatnonzero((np.diff(flat) != 1) | (np.diff(row) != 0))
        k0, k1 = flat[np.append(0, ends + 1)], flat[np.append(ends, flat.size - 1)]
        row, c0, c1 = k0 // (n - 1), k0 % (n - 1), k1 % (n - 1)
        inner = (c0 > 0) & (c1 < n - 2)
        top = np.zeros_like(inner)
        top[inner] = up.ravel()[k0[inner] - 1] & down.ravel()[k1[inner] + 1]
        found.append(row[top] * n + (c0[top] + c1[top] + 1) // 2)
    return np.sort(np.concatenate(found))


def _find_peaks(x: np.ndarray, distance: int, maxima: np.ndarray) -> np.ndarray:
    """The maxima of x [R, n] (flat, from _local_maxima) at least `distance` apart in a row.

    Tallest first, each kept peak removes the peaks fewer than `distance`
    samples away in its row. Equal heights are taken in index order.
    """
    n = x.shape[1]
    key = maxima + maxima // n * distance  # rows `distance` apart, out of each other's reach
    lo = np.searchsorted(key, key - distance, side="right").tolist()
    hi = np.searchsorted(key, key + distance, side="left").tolist()
    keep = [True] * maxima.size
    for j in np.argsort(-x.ravel()[maxima], kind="stable").tolist():
        if keep[j]:
            keep[lo[j]:j] = [False] * (j - lo[j])
            keep[j + 1:hi[j]] = [False] * (hi[j] - j - 1)
    return maxima[np.array(keep, dtype=bool)]


def _window_max(x: np.ndarray, maxima: np.ndarray, at: np.ndarray, size: int) -> np.ndarray:
    """Max of x [R, n] over [i - size // 2, i + (size - 1) // 2] in i's row, for flat i in at.

    scipy.ndimage.maximum_filter1d(x, size, axis=-1, mode="nearest") read at
    `at`: a window past a row's end holds copies of its edge sample, so it is
    the window clipped to the row. Its max lies at a clipped end or at one of
    the row's local maxima (`maxima`, from _local_maxima) inside it.
    """
    n = x.shape[1]
    flat = x.ravel()
    start = at - at % n
    lo = np.maximum(at - size // 2, start)
    hi = np.minimum(at + (size - 1) // 2, start + n - 1)
    first = np.searchsorted(maxima, lo)
    stop = np.searchsorted(maxima, hi, side="right")
    heights = np.append(flat[maxima], -np.inf)
    inner = np.maximum.reduceat(heights, np.stack((first, stop), axis=1).ravel())[::2]
    inner[first == stop] = -np.inf
    return np.maximum(np.maximum(flat[lo], flat[hi]), inner)


def _detect_rows(stack: np.ndarray, fs: float) -> list[RPeakList]:
    """R peaks of each row of stack [S, L] float64, every row sampled at fs."""
    fs = check_sampling_rate(fs)
    n = stack.shape[-1]
    if n < int(fs):
        raise DimensionError(f"lead too short for detection: {n} samples at {fs} Hz")

    filtered = _filtfilt(*_bandpass(fs), stack)
    # the running sum of the squared derivative from 0, whose first sample is 0;
    # written in place: each stack-sized temporary costs fresh pages
    csum = np.zeros((stack.shape[0], n + 1))
    np.subtract(filtered[:, 1:], filtered[:, :-1], out=csum[:, 2:])
    np.multiply(csum, csum, out=csum)
    np.cumsum(csum, axis=-1, out=csum)

    win = max(1, int(round(0.15 * fs)))
    mwi = np.empty((stack.shape[0], n))
    np.subtract(csum[:, win:], csum[:, :-win], out=mwi[:, win - 1:])
    mwi[:, win - 1:] /= win
    mwi[:, :win - 1] = mwi[:, win - 1:win]

    refractory = max(1, int(round(REFRACTORY_S * fs)))
    maxima = _local_maxima(mwi)
    peaks = _find_peaks(mwi, refractory, maxima)
    # adaptive threshold: half the local (~2 s window) maximum of the envelope
    top = _window_max(mwi, maxima, peaks, max(1, int(round(2.0 * fs))))
    peaks = peaks[mwi.ravel()[peaks] >= 0.5 * top]
    bounds = np.searchsorted(peaks, np.arange(stack.shape[0] + 1) * n)
    # the integration window trails the QRS by ~win/2; search raw near its center
    half = int(round(0.05 * fs))
    out = []
    for r, lead in enumerate(stack):
        cand = peaks[bounds[r]:bounds[r + 1]] - r * n
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
