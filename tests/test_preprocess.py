"""Detector and windowing behavior against synthetic records with known peaks."""

import hashlib
import json

import numpy as np
import pytest

from ecgvae import preprocess
from ecgvae.data import EcgRecord, RPeakList
from ecgvae.errors import DimensionError
from ecgvae.preprocess import (
    cut_segments,
    detect_r_peaks,
    extract_cycles,
    preprocess_records,
)
from ecgvae.synth import MorphologyParams, ParamRanges, gen_corpus, gen_record


def match_counts(found: np.ndarray, truth: np.ndarray, tol: int = 10):
    """Greedy one-to-one matching within tol samples; returns (tp, fn, fp)."""
    used = np.zeros(found.size, dtype=bool)
    tp = 0
    for t in truth:
        d = np.abs(found - t)
        d[used] = tol + 1
        if d.size and d.min() <= tol:
            used[int(np.argmin(d))] = True
            tp += 1
    return tp, truth.size - tp, int((~used).sum())


def per_lead_oracle(records, half_width=200):
    """preprocess_records as one detect_r_peaks / extract_cycles call per (segment, lead)."""
    rows, meta = [], []
    stats = {"records": 0, "segments": 0, "peaks": 0, "skipped_windows": 0,
             "empty_leads": 0}
    for rec in records:
        stats["records"] += 1
        for seg in cut_segments(rec):
            stats["segments"] += 1
            for lead_id in range(seg.n_leads):
                peaks = detect_r_peaks(seg.leads[lead_id], seg.sampling_rate_hz)
                stats["empty_leads"] += len(peaks) == 0
                stats["peaks"] += len(peaks)
                cut, skipped = extract_cycles(seg.leads[lead_id], peaks, half_width)
                stats["skipped_windows"] += skipped
                rows.append(cut)
                meta.extend([(seg.record_id, lead_id)] * cut.shape[0])
    return np.concatenate(rows), meta, stats


def loop_extract(lead, indices, half_width):
    """extract_cycles as one slice per peak, baseline removed."""
    rows, skipped = [], 0
    for r in indices:
        lo, hi = int(r) - half_width, int(r) + half_width
        if lo < 0 or hi > lead.shape[0]:
            skipped += 1
            continue
        w = lead[lo:hi].astype(np.float32)
        rows.append(w - np.float32(np.concatenate((w[:10], w[-10:])).mean(dtype=np.float64)))
    return (np.stack(rows) if rows else np.empty((0, 2 * half_width), np.float32)), skipped


def assert_same_bits(got, want):
    (c1, m1, s1), (c2, m2, s2) = got, want
    assert c1.dtype == c2.dtype and c1.shape == c2.shape
    assert c1.tobytes() == c2.tobytes()
    assert m1 == m2 and s1 == s2


class TestCutSegments:
    def test_splits_and_drops_tail(self):
        rec = EcgRecord(np.zeros((2, 5000), dtype=np.float32), 500.0, "r0")
        segs = cut_segments(rec)
        assert len(segs) == 1
        assert segs[0].n_samples == 4500
        assert segs[0].n_leads == 2
        assert segs[0].record_id == "r0#0"

    def test_multiple_segments(self):
        rec = EcgRecord(np.zeros((1, 14000), dtype=np.float32), 500.0, "r1")
        segs = cut_segments(rec)
        assert [s.record_id for s in segs] == ["r1#0", "r1#1", "r1#2"]

    def test_short_record_yields_nothing(self):
        rec = EcgRecord(np.zeros((1, 100), dtype=np.float32), 500.0)
        assert cut_segments(rec) == []

    def test_bad_length(self):
        # a rate read from a file can make SEGMENT_S shorter than one sample
        rec = EcgRecord(np.zeros((1, 100), dtype=np.float32), 0.05)
        with pytest.raises(ValueError, match="shorter than one sample"):
            cut_segments(rec)


class TestDetector:
    def test_clean_record_exact_recovery(self):
        record, truth = gen_record(MorphologyParams(heart_rate_bpm=72.0),
                                   duration_s=10.0)
        peaks = detect_r_peaks(record.leads[0], record.sampling_rate_hz)
        tp, fn, fp = match_counts(peaks.indices, truth, tol=10)
        assert fn == 0 and fp == 0

    @pytest.mark.parametrize("bpm", [50.0, 60.0, 90.0, 120.0])
    def test_rate_sweep(self, bpm):
        record, truth = gen_record(MorphologyParams(heart_rate_bpm=bpm),
                                   duration_s=10.0)
        peaks = detect_r_peaks(record.leads[0], record.sampling_rate_hz)
        tp, fn, fp = match_counts(peaks.indices, truth, tol=10)
        assert fn == 0 and fp == 0

    def test_noisy_record(self):
        p = MorphologyParams(heart_rate_bpm=66.0, noise_std=0.05,
                             rr_jitter=0.05, seed=2)
        record, truth = gen_record(p, duration_s=10.0)
        peaks = detect_r_peaks(record.leads[0], record.sampling_rate_hz)
        tp, fn, fp = match_counts(peaks.indices, truth, tol=10)
        assert tp / truth.size >= 0.95
        assert tp / max(1, len(peaks)) >= 0.95

    def test_flat_lead_warns_instead_of_failing(self):
        peaks = detect_r_peaks(np.zeros(5000), 500.0)
        assert len(peaks) == 0
        # the pipeline counts each flat lead of the one segment
        flat = EcgRecord(np.zeros((2, 5000), dtype=np.float32), 500.0)
        cycles, _, stats = preprocess_records([flat])
        assert cycles.shape == (0, 400)
        assert stats["empty_leads"] == 2 and stats["peaks"] == 0

    def test_peaks_strictly_increasing_and_refractory(self):
        record, _ = gen_record(MorphologyParams(heart_rate_bpm=90.0, rr_jitter=0.05,
                                                seed=8), duration_s=10.0)
        peaks = detect_r_peaks(record.leads[0], record.sampling_rate_hz)
        gaps = np.diff(peaks.indices)
        assert (gaps > 0).all()
        assert gaps.min() >= int(0.2 * record.sampling_rate_hz) * 0.8

    def test_short_lead_rejected(self):
        with pytest.raises(DimensionError):
            detect_r_peaks(np.zeros(400), 500.0)

    def test_bad_fs(self):
        with pytest.raises(ValueError):
            detect_r_peaks(np.zeros(5000), 0.0)

    @pytest.mark.parametrize("fs", [np.inf, np.nan, -np.inf])
    def test_non_finite_fs_is_a_value_error_naming_the_rate(self, fs):
        with pytest.raises(ValueError, match=f"sampling rate .* got {fs}"):
            detect_r_peaks(np.zeros(5000), fs)


class TestMergeClose:
    """The detector's close-pair merge: refined peaks closer than the refractory gap."""

    REFRACTORY = 50

    def test_peaks_exactly_refractory_apart_are_both_kept(self):
        lead = np.zeros(200)
        lead[[20, 70]] = [1.0, 2.0]
        assert preprocess._merge_close([20, 70], lead, self.REFRACTORY) == [20, 70]

    @pytest.mark.parametrize("heights,kept", [((1.0, 2.0), [69]), ((2.0, 1.0), [20])])
    def test_closer_peaks_merge_to_the_taller(self, heights, kept):
        lead = np.zeros(200)
        lead[[20, 69]] = heights
        assert preprocess._merge_close([20, 69], lead, self.REFRACTORY) == kept

    def test_duplicates_and_a_run_of_close_peaks(self):
        lead = np.zeros(300)
        lead[[10, 40, 80, 200]] = [1.0, 3.0, 2.0, 1.0]
        # 10 and 40 merge to 40; 80 is 40 after the kept 40, so it merges and loses
        assert preprocess._merge_close([10, 10, 40, 80, 200], lead, 50) == [40, 200]
        assert preprocess._merge_close([], lead, 50) == []


class TestExtractCycles:
    def test_window_bounds_and_skips(self):
        lead = np.arange(1000, dtype=np.float32)
        rows, skipped = extract_cycles(lead, np.array([100, 500, 950]), half_width=200)
        # 100 - 200 < 0 and 950 + 200 > 1000 both cross the boundary
        assert skipped == 2
        assert rows.shape == (1, 400)
        # the ramp's edge mean is (300 + ... + 309 + 690 + ... + 699) / 20 = 499.5
        np.testing.assert_array_equal(rows[0], lead[300:700] - np.float32(499.5))

    def test_baseline_removal_hand_value(self):
        lead = np.full(600, 3.0, dtype=np.float32)
        lead[300] = 5.0
        rows, _ = extract_cycles(lead, np.array([300]), half_width=100)
        # edge mean is 3.0, so the window drops to zero with a 2.0 spike
        assert np.isclose(rows[0][:10].mean(), 0.0, atol=1e-6)
        assert np.isclose(rows[0][100], 2.0, atol=1e-6)

    def test_accepts_rpeaklist(self):
        lead = np.zeros(1000, dtype=np.float32)
        peaks = RPeakList(np.array([500]))
        rows, skipped = extract_cycles(lead, peaks)
        assert rows.shape == (1, 400) and skipped == 0

    def test_empty_peaks(self):
        rows, skipped = extract_cycles(np.zeros(1000, dtype=np.float32),
                                       np.array([], dtype=np.int64))
        assert rows.shape == (0, 400) and skipped == 0

    @pytest.mark.parametrize("half_width", [200, 4, 37])
    def test_gather_matches_slice_loop_bitwise(self, half_width):
        record, _ = gen_record(MorphologyParams(heart_rate_bpm=95.0, noise_std=0.05, seed=4),
                               duration_s=10.0)
        lead = record.leads[0]
        # every detected peak, windows that just fit or just cross either end, and
        # out-of-range indices
        n = lead.shape[0]
        idx = np.concatenate(([-5, 0, 3, half_width - 1, half_width],
                              detect_r_peaks(lead, 500.0).indices,
                              [n - half_width, n - half_width + 1, n - 1, n + 9]))
        rows, skipped = extract_cycles(lead, idx, half_width)
        want, want_skipped = loop_extract(lead, idx, half_width)
        assert skipped == want_skipped
        assert rows.dtype == np.float32 and rows.shape == want.shape
        assert rows.tobytes() == want.tobytes()

    def test_huge_half_width_skips_every_peak(self):
        peaks = np.array([100, 500, 900])
        rows, skipped = extract_cycles(np.zeros(1000, dtype=np.float32), peaks,
                                       half_width=10 ** 12)
        assert rows.shape == (0, 2 * 10 ** 12) and skipped == 3

    def test_bad_half_width(self):
        with pytest.raises(ValueError):
            extract_cycles(np.zeros(100), np.array([50]), half_width=0)


class TestPreprocessRecords:
    def test_pipeline_counts_and_meta(self):
        corpus = gen_corpus(3, seed=21, duration_s=10.0)
        records = [rec for rec, _ in corpus]
        cycles, meta, stats = preprocess_records(records)
        assert stats["records"] == 3
        assert stats["segments"] == 3  # one 9 s segment per 10 s record
        assert cycles.shape[0] == len(meta)
        assert cycles.shape[1] == 400
        assert cycles.dtype == np.float32
        # every 9 s segment at 50-90 bpm holds several beats; edge windows drop
        assert cycles.shape[0] >= 3 * 4
        assert all(rid.startswith("rec_") and "#" in rid for rid, _ in meta)

    def test_windows_are_r_centered(self):
        record, _ = gen_record(MorphologyParams(heart_rate_bpm=60.0), duration_s=10.0)
        cycles, meta, _ = preprocess_records([record])
        assert cycles.shape[0] > 0
        peaks_at_center = np.abs(np.argmax(cycles, axis=1) - 200) <= 1
        assert peaks_at_center.all()

    def test_empty_input(self):
        cycles, meta, stats = preprocess_records([])
        assert cycles.shape == (0, 400) and meta == [] and stats["records"] == 0


class TestBatchedMatchesPerLeadOracle:
    """preprocess_records detects on stacks; a per-lead loop is its bitwise oracle."""

    def test_three_leads(self):
        records = [rec for rec, _ in gen_corpus(4, seed=31, duration_s=20.0, n_leads=3)]
        assert_same_bits(preprocess_records(records), per_lead_oracle(records))

    def test_mixed_rates_and_a_short_record_between(self):
        at_250 = [rec for rec, _ in gen_corpus(2, seed=32, duration_s=10.0, fs=250.0)]
        at_500 = [rec for rec, _ in gen_corpus(2, seed=33, duration_s=19.0, n_leads=2)]
        short = gen_corpus(1, seed=34, duration_s=5.0)[0][0]
        records = [at_250[0], at_500[0], short, at_250[1], at_500[1]]
        got = preprocess_records(records)
        assert got[2]["records"] == 5 and got[2]["segments"] == 6
        assert {rid.split("#")[0] for rid, _ in got[1]} == {"rec_0000", "rec_0001"}
        assert_same_bits(got, per_lead_oracle(records))
        assert_same_bits(preprocess_records(records, half_width=3),
                         per_lead_oracle(records, half_width=3))

    def test_more_rows_than_one_stack_holds(self, monkeypatch):
        records = [rec for rec, _ in gen_corpus(21, seed=35, duration_s=10.0, n_leads=3)]
        shapes = []
        detect = preprocess._detect_rows

        def spy(stack, fs):
            shapes.append(stack.shape)
            return detect(stack, fs)

        monkeypatch.setattr(preprocess, "_detect_rows", spy)
        got = preprocess_records(records)
        # 63 rows of 4500 samples: a full stack of 58 and one of 5
        assert shapes == [(58, 4500), (5, 4500)]
        assert all(s * n <= preprocess._STACK_SAMPLES for s, n in shapes)
        monkeypatch.setattr(preprocess, "_detect_rows", detect)
        assert_same_bits(got, per_lead_oracle(records))

    def test_row_longer_than_a_stack_is_detected_alone(self, monkeypatch):
        monkeypatch.setattr(preprocess, "_STACK_SAMPLES", 1000)
        records = [rec for rec, _ in gen_corpus(2, seed=36, duration_s=10.0, n_leads=2)]
        assert_same_bits(preprocess_records(records), per_lead_oracle(records))


def short_sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestPinnedDetector:
    """Exact detector output on fixed corpora of 40 records, as sha256 prefixes.

    `peaks` digests every (segment, lead) row's int64 R indices, each row led
    by its count; `cycles`, `meta` and `stats` digest preprocess_records'
    outputs. Any moved peak, added or lost, changes them.
    """

    CORPORA = {
        "seed-101": dict(seed=101),
        "seed-5": dict(seed=5),
        "seed-2-three-leads": dict(seed=2, n_leads=3),
        # criterion 9's noisy corpus
        "seed-606-noisy": dict(seed=606, ranges=ParamRanges(noise_std=(0.01, 0.05))),
    }
    DIGESTS = {
        "seed-101": {"peaks": "2ebc5802382d1f30", "cycles": "3daf8a8bb8e5c116",
                     "meta": "92156d699db84dae", "stats": "76c196ce16a8e738"},
        "seed-5": {"peaks": "418e6e4b3040be84", "cycles": "723e1dfb0755f6b8",
                   "meta": "d1f272a714a8d1ac", "stats": "39d9c6d679ef270f"},
        "seed-2-three-leads": {"peaks": "d7d07ea6c993d4fc", "cycles": "ce2bebbd018634dd",
                               "meta": "9a485566ab073736", "stats": "33b136f1be3bd500"},
        "seed-606-noisy": {"peaks": "513f776ca0c26da7", "cycles": "6e28f577f80a55dd",
                           "meta": "67e9d05871ed43e9", "stats": "92894012afde26cf"},
    }

    @pytest.mark.parametrize("name", CORPORA)
    def test_digests(self, name):
        records = [rec for rec, _ in gen_corpus(40, **self.CORPORA[name])]
        rows = [detect_r_peaks(seg.leads[i], seg.sampling_rate_hz).indices
                for rec in records for seg in cut_segments(rec) for i in range(seg.n_leads)]
        peaks = np.concatenate([np.concatenate(([len(r)], r)) for r in rows]).astype(np.int64)
        cycles, meta, stats = preprocess_records(records)
        got = {"peaks": short_sha(peaks.tobytes()), "cycles": short_sha(cycles.tobytes()),
               "meta": short_sha(json.dumps(meta).encode()),
               "stats": short_sha(json.dumps(stats, sort_keys=True).encode())}
        assert got == self.DIGESTS[name]

