"""Synthetic ECG oracles: bump placement, beat counts, seeds, corpus sampling."""

import numpy as np
import pytest

from ecgvae import synth
from ecgvae.synth import (
    DEFAULT_P,
    DEFAULT_R,
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


class TestCorpus:
    def test_size_ids_and_determinism(self):
        corpus_a = gen_corpus(5, seed=17)
        corpus_b = gen_corpus(5, seed=17)
        assert len(corpus_a) == 5
        assert [r.record_id for r, _ in corpus_a] == [f"rec_{i:04d}" for i in range(5)]
        for (ra, pa), (rb, pb) in zip(corpus_a, corpus_b):
            np.testing.assert_array_equal(ra.leads, rb.leads)
            np.testing.assert_array_equal(pa, pb)

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
