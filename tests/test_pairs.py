"""benchmarks/pairs.py: the per-metric verdict on paired parent/change runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)
verdict = pairs.verdict

# median 100, quartiles 99 and 101: a spread of 2%
STEADY = [100.0, 99.0, 101.0, 100.0, 98.0, 102.0, 100.0, 99.0, 101.0, 100.0]
# median 100, quartiles 57.5 and 142.5: a spread of 85%
WIDE = [50.0, 150.0, 40.0, 160.0, 100.0, 100.0, 60.0, 140.0, 100.0, 100.0]


def shifted(values, by):
    return [v + by for v in values]


class TestVerdict:
    def test_same_runs_held(self):
        assert verdict(STEADY, STEADY, "higher", 0.25) == "held"
        assert verdict(STEADY, STEADY, "lower", 0.25) == "held"

    @pytest.mark.parametrize("better,by", [("higher", -26.0), ("lower", 26.0)])
    def test_median_worse_by_more_than_bound_regressed(self, better, by):
        assert verdict(STEADY, shifted(STEADY, by), better, 0.25) == "regressed"

    @pytest.mark.parametrize("better,by", [("higher", -24.0), ("lower", 24.0)])
    def test_worse_within_bound_held(self, better, by):
        assert verdict(STEADY, shifted(STEADY, by), better, 0.25) == "held"

    def test_regression_outranks_a_wide_spread(self):
        assert verdict(WIDE, shifted(WIDE, -30.0), "higher", 0.25) == "regressed"

    def test_spread_wider_than_bound_unresolved(self):
        assert verdict(WIDE, shifted(WIDE, 5.0), "higher", 0.25) == "unresolved"

    def test_wide_spread_resolved_when_every_b_beats_every_a(self):
        # min(b) 161 beats max(a) 160, but the shift (61) is inside A's spread (85)
        b = [161.0] * 10
        assert verdict(WIDE, b, "higher", 0.25) == "held"
        assert verdict(WIDE, [39.0] * 10, "lower", 0.25) == "held"

    @pytest.mark.parametrize("better,by", [("higher", 5.0), ("lower", -5.0)])
    def test_nine_of_ten_and_shift_past_spread_is_gain(self, better, by):
        b = shifted(STEADY, by)
        b[3] = STEADY[3] - by  # one pair lost
        assert verdict(STEADY, b, better, 0.25) == "gain"

    def test_eight_of_ten_is_no_gain(self):
        b = shifted(STEADY, 5.0)
        b[3], b[7] = STEADY[3] - 5.0, STEADY[7] - 5.0
        assert verdict(STEADY, b, "higher", 0.25) == "held"

    def test_ties_count_for_neither_side(self):
        b = shifted(STEADY, 5.0)
        b[3] = STEADY[3]
        assert verdict(STEADY, b, "higher", 0.25) == "gain"
        b[7] = STEADY[7]
        assert verdict(STEADY, b, "higher", 0.25) == "held"

    def test_shift_inside_parent_spread_is_no_gain(self):
        # every pair won, but by 1, inside A's quartile spread of 2
        assert verdict(STEADY, shifted(STEADY, 1.0), "higher", 0.25) == "held"

    def test_constant_share_metric(self):
        ones = [1.0] * 10
        assert verdict(ones, ones, "higher", 0.01) == "held"
        assert verdict(ones, [0.9] + [1.0] * 9, "higher", 0.01) == "held"
        assert verdict(ones, [0.98] * 10, "higher", 0.01) == "regressed"
