"""Synthetic ECG oracles: bump placement, beat counts, seeds, corpus sampling."""

from dataclasses import replace

import numpy as np
import pytest

from ecgvae import synth
from ecgvae.data import CYCLE_LEN
from ecgvae.synth import (
    DEFAULT_P,
    DEFAULT_Q,
    DEFAULT_R,
    DEFAULT_S,
    DEFAULT_T,
    MAX_NOISE_STD,
    MAX_RECORD_SAMPLES,
    MorphologyParams,
    ParamRanges,
    Wave,
    gen_corpus,
    gen_cycle,
    gen_record,
    sample_params,
)


# Reference generator: one bump at a time, each sample's contributions added in
# (beat, wave) order, and 11 scalar draws per lead. The vectorized generator
# must reproduce it bit for bit.

def add_beat(signal, r_pos, waves, fs):
    """Accumulate one beat's bumps into `signal` around sample r_pos."""
    n = signal.shape[0]
    for w in waves:
        c = r_pos + w.center * fs
        half = 5.0 * w.width * fs
        lo = max(0, int(np.floor(c - half)))
        hi = min(n, int(np.ceil(c + half)) + 1)
        if lo >= hi:
            continue
        t = np.arange(lo, hi, dtype=np.float64)
        signal[lo:hi] += w.amplitude * np.exp(-0.5 * ((t - c) / (w.width * fs)) ** 2)


def reference_sum(params, positions, n, fs):
    signal = np.zeros(n, dtype=np.float64)
    for pos in positions:
        add_beat(signal, float(pos), params.waves, fs)
    return signal


def reference_lead(params, positions, n, fs, rng):
    signal = reference_sum(params, positions, n, fs)
    if params.noise_std > 0:
        signal += params.noise_std * rng.standard_normal(n)
    return signal.astype(np.float32)


def reference_cycle(params, fs):
    return reference_lead(params, [CYCLE_LEN // 2], CYCLE_LEN, fs,
                          np.random.default_rng(params.seed))


def reference_record(params, duration_s, fs):
    n = int(round(duration_s * fs))
    rng = np.random.default_rng(params.seed)
    positions = synth._beat_positions(params, n, fs, rng)
    return reference_lead(params, positions, n, fs, rng)[None, :], positions[positions < n]


def reference_params(rng, ranges, seed):
    def u(pair):
        return float(rng.uniform(pair[0], pair[1]))

    ws = u(ranges.width_scale)

    def scaled(wave, center=None):
        return Wave(wave.amplitude * u(ranges.amp_scale),
                    wave.center if center is None else center, wave.width * ws)

    return MorphologyParams(p=scaled(DEFAULT_P, u(ranges.p_center)), q=scaled(DEFAULT_Q),
                            r=scaled(DEFAULT_R), s=scaled(DEFAULT_S),
                            t=scaled(DEFAULT_T, u(ranges.t_center)),
                            heart_rate_bpm=u(ranges.heart_rate_bpm),
                            rr_jitter=u(ranges.rr_jitter), noise_std=u(ranges.noise_std),
                            seed=seed)


def reference_corpus(n_records, seed, ranges, duration_s, fs, n_leads):
    n = int(round(duration_s * fs))
    master = np.random.default_rng(seed)
    out = []
    for _ in range(n_records):
        rec_seed = int(master.integers(0, 2**63 - 1))
        params = reference_params(master, ranges, rec_seed)
        rng = np.random.default_rng(rec_seed)
        positions = synth._beat_positions(params, n, fs, rng)
        leads = [reference_lead(params, positions, n, fs, rng)]
        for _ in range(1, n_leads):
            lead_params = replace(reference_params(master, ranges, rec_seed),
                                  heart_rate_bpm=params.heart_rate_bpm)
            leads.append(reference_lead(lead_params, positions, n, fs, rng))
        out.append((np.stack(leads), positions[positions < n]))
    return out


def assert_corpus_matches_reference(n_records, seed, ranges, duration_s, fs, n_leads):
    got = gen_corpus(n_records, seed=seed, ranges=ranges, duration_s=duration_s, fs=fs,
                     n_leads=n_leads)
    want = reference_corpus(n_records, seed, ranges, duration_s, fs, n_leads)
    assert len(got) == len(want)
    for (record, positions), (leads, ref_positions) in zip(got, want):
        assert np.array_equal(positions, ref_positions)
        assert record.leads.dtype == np.float32
        assert np.array_equal(record.leads, leads)


# Tachycardic beats with a broad T: the first P starts before sample 0 and the
# last T runs past the end; a 0.4 s T spans whole 2 s records.
CLIPPED = MorphologyParams(t=Wave(0.3, 0.3, 0.4), heart_rate_bpm=220.0, rr_jitter=0.3)
ORACLE_PARAMS = [
    MorphologyParams(),
    MorphologyParams(heart_rate_bpm=30.0, rr_jitter=0.2, noise_std=0.01, seed=3),
    MorphologyParams(heart_rate_bpm=220.0, rr_jitter=0.4, noise_std=MAX_NOISE_STD, seed=4),
    replace(CLIPPED, seed=5),
    replace(CLIPPED, noise_std=0.05, seed=6),
]


class TestRenderOracle:
    @pytest.mark.parametrize("fs", [250.0, 360.0, 500.0])
    @pytest.mark.parametrize("params", ORACLE_PARAMS)
    def test_gen_cycle(self, params, fs):
        cycle, r_index = gen_cycle(params, fs)
        assert r_index == CYCLE_LEN // 2
        assert np.array_equal(cycle, reference_cycle(params, fs))

    @pytest.mark.parametrize("fs", [250.0, 360.0, 500.0])
    @pytest.mark.parametrize("duration", [2.0, 7.3037, 20.0])  # 7.3037 s: no whole count
    @pytest.mark.parametrize("params", ORACLE_PARAMS)
    def test_gen_record(self, params, duration, fs):
        record, positions = gen_record(params, duration_s=duration, fs=fs)
        leads, ref_positions = reference_record(params, duration, fs)
        assert np.array_equal(positions, ref_positions)
        assert np.array_equal(record.leads, leads)

    def test_clipped_at_both_ends(self):
        record, positions = gen_record(CLIPPED, duration_s=2.0)
        assert positions[0] + DEFAULT_P.center * 500 - 5 * DEFAULT_P.width * 500 < 0
        assert positions[-1] + 0.3 * 500 + 5 * 0.4 * 500 > record.n_samples
        assert np.array_equal(record.leads, reference_record(CLIPPED, 2.0, 500.0)[0])

    def test_record_without_beats(self):
        # at 30 bpm the first R falls at sample 500, past the end of a 1 s strip
        params = MorphologyParams(heart_rate_bpm=30.0, noise_std=0.01)
        record, positions = gen_record(params, duration_s=1.0)
        assert positions.size == 0
        assert np.array_equal(record.leads, reference_record(params, 1.0, 500.0)[0])

    @pytest.mark.parametrize("n_leads", [1, 2, 3])
    @pytest.mark.parametrize("fs,duration", [(250.0, 2.0), (360.0, 9.0037), (500.0, 20.0)])
    def test_gen_corpus(self, n_leads, fs, duration):
        assert_corpus_matches_reference(5, 11 * n_leads, ParamRanges(), duration, fs, n_leads)

    @pytest.mark.parametrize("noise", [(0.0, 0.0), (MAX_NOISE_STD, MAX_NOISE_STD)])
    def test_gen_corpus_noise_bounds_and_extreme_rates(self, noise):
        ranges = ParamRanges(heart_rate_bpm=(30.0, 220.0), rr_jitter=(0.0, 0.45),
                             width_scale=(0.5, 8.0), noise_std=noise)
        assert_corpus_matches_reference(6, 5, ranges, 4.0, 500.0, 2)

    @pytest.mark.parametrize("cap", [1, 7, 1000, 3 * 2500])
    def test_small_grid_cap_splits_bumps_and_batches(self, monkeypatch, cap):
        # blocks end inside bumps and inside runs of overlapping bumps, and a
        # gen_corpus render call holds one to a few records
        monkeypatch.setattr(synth, "_GRID_CAP", cap)
        assert_corpus_matches_reference(4, 9, ParamRanges(), 5.0, 500.0, 2)
        for params in ORACLE_PARAMS[1:4]:
            record, _ = gen_record(params, duration_s=2.0)
            assert np.array_equal(record.leads, reference_record(params, 2.0, 500.0)[0])

    @pytest.mark.parametrize("cap", [1, 7, 1000, 2 ** 16])
    def test_float64_sums_keep_the_loop_order(self, monkeypatch, cap):
        # the float32 outputs hide most last-bit changes in float64: compare the
        # sums themselves, where a regrouped or reordered addition shows
        monkeypatch.setattr(synth, "_GRID_CAP", cap)
        rng = np.random.default_rng(8)
        params = [sample_params(rng, ParamRanges(width_scale=(1.0, 4.0))) for _ in range(6)]
        params += [CLIPPED, MorphologyParams(heart_rate_bpm=30.0)]
        n, fs = 2000, 500.0
        positions = [synth._beat_positions(p, n, fs, rng) for p in params]
        signals = synth._render(params, positions, n, fs)
        assert signals.shape == (len(params), n) and signals.dtype == np.float64
        for p, pos, row in zip(params, positions, signals):
            assert np.array_equal(row, reference_sum(p, pos, n, fs))

    def test_default_corpus_matches_reference(self):
        assert_corpus_matches_reference(40, 3, ParamRanges(), 10.0, 500.0, 1)

    @pytest.mark.parametrize("wave", [Wave(0.3, 0.3, 1e306), Wave(0.3, 1e306, 0.05)])
    def test_window_past_float_range_is_refused(self, wave):
        with pytest.raises(ValueError, match="wave window is not finite"):
            gen_record(MorphologyParams(t=wave), duration_s=2.0)


class TestGenCycle:
    def test_r_peak_at_center(self):
        cycle, r_index = gen_cycle(MorphologyParams())
        assert r_index == 200
        assert cycle.dtype == np.float32 and cycle.shape == (400,)
        assert int(np.argmax(cycle)) == 200
        # Q and S tails subtract a few thousandths at the apex
        assert np.isclose(cycle[200], DEFAULT_R.amplitude, atol=5e-3)

    def test_p_wave_placement(self):
        # P center -0.160 s at 500 Hz puts the bump 80 samples before R
        cycle, _ = gen_cycle(MorphologyParams())
        window = cycle[100:160]
        assert int(np.argmax(window)) + 100 == 200 + round(DEFAULT_P.center * 500)
        assert np.isclose(window.max(), DEFAULT_P.amplitude, atol=0.01)

    def test_t_wave_placement(self):
        cycle, _ = gen_cycle(MorphologyParams())
        window = cycle[280:399]
        assert int(np.argmax(window)) + 280 == 200 + round(DEFAULT_T.center * 500)

    def test_edges_near_baseline(self):
        # left edge precedes the P bump's support; the right edge still rides
        # the tail of the broad T, so it is small but not exactly zero
        cycle, _ = gen_cycle(MorphologyParams())
        assert abs(cycle[0]) < 1e-6
        assert abs(cycle[-1]) < 0.05 * DEFAULT_R.amplitude

    def test_noise_free_cycle_is_deterministic(self):
        a, _ = gen_cycle(MorphologyParams(seed=1))
        b, _ = gen_cycle(MorphologyParams(seed=2))
        np.testing.assert_array_equal(a, b)

    def test_noisy_cycle_seeded(self):
        p = MorphologyParams(noise_std=0.01, seed=5)
        a, _ = gen_cycle(p)
        b, _ = gen_cycle(p)
        c, _ = gen_cycle(MorphologyParams(noise_std=0.01, seed=6))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestWaveValidation:
    def test_nonpositive_width(self):
        with pytest.raises(ValueError):
            Wave(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("fields", [(float("nan"), -0.16, 0.02), (0.3, float("inf"), 0.05),
                                        (-0.15, 0.024, float("inf")), (1.0, 0.0, float("nan"))])
    def test_non_finite_wave_rejected(self, fields):
        with pytest.raises(ValueError, match="wave needs finite"):
            Wave(*fields)

    def test_r_must_dominate(self):
        with pytest.raises(ValueError):
            MorphologyParams(r=Wave(0.05, 0.0, 0.012))

    @pytest.mark.parametrize("kwargs", [
        dict(heart_rate_bpm=20.0),
        dict(heart_rate_bpm=300.0),
        dict(rr_jitter=0.5),
        dict(rr_jitter=-0.1),
        dict(noise_std=-1e-3),
        dict(noise_std=float("inf")),
        dict(noise_std=float("nan")),
        dict(heart_rate_bpm=float("nan")),
        dict(rr_jitter=float("nan")),
        dict(noise_std=np.nextafter(MAX_NOISE_STD, np.inf)),
        dict(noise_std=1e300),
    ])
    def test_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            MorphologyParams(**kwargs)

    def test_noise_cap_is_inclusive_and_renders_finite(self):
        p = MorphologyParams(noise_std=MAX_NOISE_STD, seed=1)
        record, _ = gen_record(p, duration_s=1.0)
        assert np.isfinite(record.leads).all()


class TestGenRecord:
    def test_beat_count_60bpm(self):
        # 60 bpm, 10 s, no jitter: beats at 250, 750, ... 4750 -> 10 beats
        record, positions = gen_record(MorphologyParams(heart_rate_bpm=60.0),
                                       duration_s=10.0)
        assert record.n_samples == 5000
        assert positions.tolist() == [250 + 500 * i for i in range(10)]

    def test_beat_count_75bpm_9s(self):
        # RR = 400 samples; beats at 200, 600, ... 4400 -> 11 beats in 4500
        _, positions = gen_record(MorphologyParams(heart_rate_bpm=75.0),
                                  duration_s=9.0)
        assert positions.tolist() == [200 + 400 * i for i in range(11)]

    def test_r_peaks_land_on_positions(self):
        record, positions = gen_record(MorphologyParams(), duration_s=10.0)
        lead = record.leads[0]
        for pos in positions:
            lo, hi = max(0, pos - 50), min(lead.size, pos + 50)
            assert abs(int(np.argmax(lead[lo:hi])) + lo - pos) <= 1

    def test_jitter_changes_spacing(self):
        p = MorphologyParams(rr_jitter=0.1, seed=3)
        _, positions = gen_record(p, duration_s=10.0)
        rr = np.diff(positions)
        assert rr.min() != rr.max()

    def test_deterministic_for_seed(self):
        p = MorphologyParams(noise_std=0.01, rr_jitter=0.05, seed=9)
        rec_a, pos_a = gen_record(p, duration_s=10.0)
        rec_b, pos_b = gen_record(p, duration_s=10.0)
        np.testing.assert_array_equal(rec_a.leads, rec_b.leads)
        np.testing.assert_array_equal(pos_a, pos_b)

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            gen_record(MorphologyParams(), duration_s=0.0)

    def test_r_at_the_end_is_drawn_but_not_listed(self):
        # this seed's third R rounds to sample 1000 of a 1000-sample strip
        params = MorphologyParams(heart_rate_bpm=75.0, rr_jitter=0.3, seed=424)
        assert synth._beat_positions(params, 1000, 500.0, np.random.default_rng(424))[-1] == 1000
        record, positions = gen_record(params, duration_s=2.0)
        assert positions.tolist() == [200, 659]
        # its leading flank still rises to the end of the strip
        assert record.leads[0, -1] > record.leads[0, -60:].mean()


class TestCorpus:
    def test_size_ids_and_determinism(self):
        corpus_a = gen_corpus(5, seed=17)
        corpus_b = gen_corpus(5, seed=17)
        assert len(corpus_a) == 5
        assert [r.record_id for r, _ in corpus_a] == [f"rec_{i:04d}" for i in range(5)]
        for (ra, pa), (rb, pb) in zip(corpus_a, corpus_b):
            np.testing.assert_array_equal(ra.leads, rb.leads)
            np.testing.assert_array_equal(pa, pb)

    @pytest.mark.parametrize("seed", [101, 2])  # each has one R rounding to sample n
    def test_positions_lie_inside_the_record(self, seed):
        corpus = gen_corpus(200, seed=seed)
        for record, positions in corpus:
            assert positions.min() >= 0 and positions.max() < record.n_samples, record.record_id

    def test_records_vary_within_corpus(self):
        corpus = gen_corpus(3, seed=0)
        assert not np.array_equal(corpus[0][0].leads, corpus[1][0].leads)

    def test_heart_rates_span_range(self):
        ranges = ParamRanges()
        corpus = gen_corpus(30, seed=1, duration_s=10.0)
        rates = [60.0 / (np.diff(pos).mean() / 500.0) for _, pos in corpus]
        assert min(rates) > ranges.heart_rate_bpm[0] - 5
        assert max(rates) < ranges.heart_rate_bpm[1] + 5
        assert max(rates) - min(rates) > 10.0

    def test_multi_lead_shares_timing(self):
        corpus = gen_corpus(2, seed=4, n_leads=3)
        record, positions = corpus[0]
        assert record.n_leads == 3
        for lead in record.leads:
            for pos in positions:
                lo, hi = max(0, pos - 50), min(lead.size, pos + 50)
                peak = int(np.argmax(np.abs(lead[lo:hi]))) + lo
                assert abs(peak - pos) <= 2
        assert not np.array_equal(record.leads[0], record.leads[1])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            gen_corpus(0, seed=0)

    @pytest.mark.parametrize("n_leads", [0, -1])
    def test_no_leads_rejected(self, n_leads):
        with pytest.raises(ValueError, match="n_leads must be >= 1"):
            gen_corpus(1, seed=0, n_leads=n_leads)

    @pytest.mark.parametrize("n_leads", [1, 3])
    def test_record_past_the_sample_cap_refused_before_placing_beats(self, monkeypatch,
                                                                     n_leads):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached _beat_positions")

        monkeypatch.setattr(synth, "_beat_positions", unreachable)
        fits = MAX_RECORD_SAMPLES // n_leads / 500.0  # seconds at 500 Hz
        for duration in (fits + 0.01, 1e8, 1e300):
            with pytest.raises(ValueError, match="sample cap"):
                gen_corpus(1, seed=0, duration_s=duration, n_leads=n_leads)
        with pytest.raises(ValueError, match="sample cap"):
            gen_record(MorphologyParams(), duration_s=MAX_RECORD_SAMPLES / 500.0 + 0.01)
        with pytest.raises(AssertionError, match="reached"):  # at the cap: allowed
            gen_corpus(1, seed=0, duration_s=fits, n_leads=n_leads)

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            gen_corpus(1, seed=0, duration_s=duration)
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            gen_record(MorphologyParams(), duration_s=duration)


class TestSampleParams:
    def test_vector_draw_matches_scalar_draws(self):
        ranges = ParamRanges(heart_rate_bpm=(40.0, 40.0), amp_scale=(0.5, 1.5))
        for seed in range(200):
            for r in (ParamRanges(), ranges):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                assert sample_params(a, r, seed=seed) == reference_params(b, r, seed)
                assert a.random() == b.random()  # both consumed the same stream

    def test_draws_within_ranges(self):
        rng = np.random.default_rng(0)
        ranges = ParamRanges()
        for _ in range(20):
            p = sample_params(rng, ranges)
            assert ranges.heart_rate_bpm[0] <= p.heart_rate_bpm <= ranges.heart_rate_bpm[1]
            assert ranges.p_center[0] <= p.p.center <= ranges.p_center[1]
            assert ranges.t_center[0] <= p.t.center <= ranges.t_center[1]
            assert ranges.noise_std[0] <= p.noise_std <= ranges.noise_std[1]
            lo, hi = ranges.amp_scale
            assert lo * DEFAULT_R.amplitude <= p.r.amplitude <= hi * DEFAULT_R.amplitude

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            ParamRanges(heart_rate_bpm=(90.0, 50.0))

    @pytest.mark.parametrize("pair", [(0.0, float("inf")), (float("nan"), float("nan")),
                                      (float("-inf"), 0.01)])
    def test_non_finite_range_rejected(self, pair):
        with pytest.raises(ValueError, match=r"range noise_std needs finite lo <= hi"):
            ParamRanges(noise_std=pair)

    @pytest.mark.parametrize("pair", [(0.0, 1e300), (0.0, np.nextafter(MAX_NOISE_STD, np.inf)),
                                      (-0.01, 0.01)])
    def test_noise_range_outside_the_cap_rejected(self, pair):
        with pytest.raises(ValueError, match=r"range noise_std must lie in \[0, 1000\] mV"):
            ParamRanges(noise_std=pair)
        ParamRanges(noise_std=(0.0, MAX_NOISE_STD))  # the cap itself is allowed
