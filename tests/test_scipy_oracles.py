"""The detector's numpy forms against the scipy functions they replace.

scipy is a test dependency only: `ecgvae.preprocess` imports numpy alone.
"""

import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d
from scipy.signal import butter, filtfilt, find_peaks

from ecgvae import preprocess
from ecgvae.preprocess import cut_segments, detect_r_peaks
from ecgvae.synth import gen_corpus


class TestScipyOracles:
    """Each numpy form in the detector against the scipy function it replaces."""

    @pytest.mark.parametrize("fs", [31.0, 128.0, 250.0, 360.0, 500.0, 1000.0])
    def test_bandpass_matches_butter(self, fs):
        nyq = fs / 2.0
        want_b, want_a = butter(1, [5.0 / nyq, 15.0 / nyq], btype="bandpass")
        b, a = preprocess._bandpass(fs)
        np.testing.assert_allclose(b, want_b, rtol=0, atol=1e-15)
        np.testing.assert_allclose(a, want_a, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("fs", [30.0, 12.5])
    def test_band_past_nyquist_is_a_value_error(self, fs):
        # scipy's butter refused these rates too (critical frequencies >= 1)
        with pytest.raises(ValueError, match="above 30 Hz"):
            detect_r_peaks(np.zeros(1000), fs)

    @pytest.mark.parametrize("fs", [250.0, 360.0, 500.0])
    @pytest.mark.parametrize("n", [10, 11, 63, 64, 65, 127, 1001, 4500])
    def test_filtfilt_matches_scipy(self, fs, n):
        # short rows, odd and even lengths, a block's length and one past it
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, n)) + np.linspace(-4.0, 6.0, n)
        b, a = preprocess._bandpass(fs)
        want = filtfilt(b, a, x, axis=-1)
        got = preprocess._filtfilt(b, a, x)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("fs", [250.0, 360.0, 500.0])
    def test_filtfilt_matches_scipy_on_ecg_rows(self, fs):
        records = [rec for rec, _ in gen_corpus(4, seed=7, fs=fs, n_leads=2)]
        x = np.concatenate([seg.leads for rec in records for seg in cut_segments(rec)])
        b, a = preprocess._bandpass(fs)
        want = filtfilt(b, a, x.astype(np.float64), axis=-1)
        got = preprocess._filtfilt(b, a, x.astype(np.float64))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_local_maxima_match_find_peaks_with_plateaus(self):
        # small integers: flat runs, ties and runs at either end are common
        rng = np.random.default_rng(0)
        for _ in range(600):
            rows, n = int(rng.integers(1, 4)), int(rng.integers(1, 40))
            x = rng.integers(0, 4, (rows, n)).astype(np.float64)
            want = [find_peaks(row)[0] + i * n for i, row in enumerate(x)]
            np.testing.assert_array_equal(preprocess._local_maxima(x), np.concatenate(want))

    @pytest.mark.parametrize("distance", [1, 2, 3, 7, 25])
    def test_find_peaks_matches_scipy_on_distinct_heights(self, distance):
        rng = np.random.default_rng(distance)
        for _ in range(150):
            rows, n = int(rng.integers(1, 4)), int(rng.integers(1, 80))
            x = rng.permutation(rows * n).reshape(rows, n).astype(np.float64)
            got = preprocess._find_peaks(x, distance, preprocess._local_maxima(x))
            want = [find_peaks(row, distance=distance)[0] + i * n for i, row in enumerate(x)]
            np.testing.assert_array_equal(got, np.concatenate(want))

    def test_equal_heights_go_to_the_earlier_peak(self):
        # 1 and 3 tie; taken first, 1 removes 3, so 5 (4 away from 1) stays.
        # Taking 3 first would remove both 1 and 5.
        x = np.array([[0.0, 2.0, 0.0, 2.0, 0.0, 1.0, 0.0]] * 2)
        got = preprocess._find_peaks(x, 3, preprocess._local_maxima(x))
        assert got.tolist() == [1, 5, 8, 12]

    def test_rows_do_not_reach_each_other(self):
        # row 0's peak at 4 and row 1's at 1 are 4 flat indices apart
        x = np.array([[0.0, 0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, 0.0, 0.0, 0.0]])
        assert preprocess._find_peaks(x, 5, preprocess._local_maxima(x)).tolist() == [4, 7]

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 10, 38, 39, 40, 41, 79, 80, 81])
    def test_window_max_matches_maximum_filter1d(self, size):
        rng = np.random.default_rng(size)
        for x in (rng.standard_normal((3, 40)), rng.integers(0, 3, (4, 33)).astype(np.float64),
                  rng.standard_normal((2, 1)), np.zeros((1, 7))):
            at = np.arange(x.size)
            want = maximum_filter1d(x, size, axis=-1, mode="nearest").ravel()
            got = preprocess._window_max(x, preprocess._local_maxima(x), at, size)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("fs", [250.0, 360.0, 500.0])
    def test_window_max_matches_maximum_filter1d_at_the_detector_size(self, fs):
        # 2 s windows: 500, 720 and 1000 samples, all even, on 9 s rows
        rng = np.random.default_rng(int(fs))
        size = int(round(2.0 * fs))
        x = np.cumsum(rng.standard_normal((3, int(9 * fs))), axis=1)
        want = maximum_filter1d(x, size, axis=-1, mode="nearest").ravel()
        at = np.arange(x.size)
        np.testing.assert_array_equal(
            preprocess._window_max(x, preprocess._local_maxima(x), at, size), want)
