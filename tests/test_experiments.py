"""Prior sampling and latent traversal behavior on a compact model."""

import numpy as np
import pytest

from conftest import COMPACT
from ecgvae.errors import DimensionError
from ecgvae.experiments import (
    TRAVERSAL_GRID,
    latent_traversal,
    sample_synthetic,
    traversal_effect,
    traversal_sweep,
)
from ecgvae.model import VaeModel, decode_batch
from ecgvae.persistence import emit_plot


@pytest.fixture(scope="module")
def model():
    return VaeModel.build(COMPACT, seed=3)


class TestSampleSynthetic:
    def test_count_and_shape(self, model):
        out = sample_synthetic(model, 17, seed=0)
        assert out.cycles.shape == (17, 64)
        assert np.isfinite(out.cycles).all()

    def test_seeded_and_batch_invariant(self, model):
        a = sample_synthetic(model, 10, seed=42)
        # the same prior draws decoded 3 at a time give the same bits
        z = np.random.default_rng(42).standard_normal((10, 4)).astype(np.float32)
        np.testing.assert_array_equal(
            a.cycles, np.concatenate([decode_batch(model, z[lo:lo + 3]) for lo in range(0, 10, 3)]))
        np.testing.assert_array_equal(a.cycles, sample_synthetic(model, 10, seed=42).cycles)
        c = sample_synthetic(model, 10, seed=43)
        assert not np.array_equal(a.cycles, c.cycles)

    def test_rejects_zero(self, model):
        with pytest.raises(ValueError):
            sample_synthetic(model, 0, seed=0)


class TestLatentTraversal:
    def test_only_swept_rows_change_monotonically(self, model):
        base = np.zeros(4, dtype=np.float32)
        traces = latent_traversal(model, base, feature=1, values=[-2.0, 0.0, 2.0])
        assert traces.shape == (3, 64)
        # middle row equals decoding the base point itself
        ref = model.decode(base[None, :]).data[0]
        np.testing.assert_allclose(traces[1], ref, rtol=1e-5, atol=1e-6)

    def test_feature_isolation(self, model):
        # sweeping feature 0 then resetting it reproduces the base decoding
        base = np.full(4, 0.3, dtype=np.float32)
        traces = latent_traversal(model, base, feature=0, values=[0.3])
        ref = model.decode(base[None, :]).data[0]
        np.testing.assert_allclose(traces[0], ref, rtol=1e-5, atol=1e-6)

    def test_grid_constant(self):
        assert len(TRAVERSAL_GRID) == 10
        assert TRAVERSAL_GRID[0] == -3.0 and TRAVERSAL_GRID[-1] == 3.0
        assert all(b > a for a, b in zip(TRAVERSAL_GRID, TRAVERSAL_GRID[1:]))

    def test_bad_feature_and_base(self, model):
        with pytest.raises(IndexError):
            latent_traversal(model, np.zeros(4), feature=4, values=[0.0])
        with pytest.raises(DimensionError):
            latent_traversal(model, np.zeros(5), feature=0, values=[0.0])
        with pytest.raises(ValueError):
            latent_traversal(model, np.zeros(4), feature=0, values=[])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300, -3.5e38])
    def test_values_not_finite_in_model_dtype_rejected(self, model, value):
        # 1e300 and -3.5e38 are finite float64 but overflow float32 in the cast
        with np.errstate(all="raise"), pytest.raises(ValueError, match="finite in float32"):
            latent_traversal(model, np.zeros(4), feature=0, values=[0.0, value])

    def test_effect_is_l2(self):
        lo = np.zeros(8)
        hi = np.full(8, 0.5)
        assert np.isclose(traversal_effect(lo, hi), np.sqrt(8 * 0.25))

    def test_untrained_model_still_moves_output(self, model):
        # even at init, sweeping a coordinate from -3 to 3 shifts the decoding
        traces = latent_traversal(model, np.zeros(4), feature=2,
                                  values=[-3.0, 3.0])
        assert traversal_effect(traces[0], traces[1]) > 1e-6


class TestTraversalSweep:
    def test_writes_one_file_per_feature(self, model, tmp_path):
        paths = traversal_sweep(model, tmp_path, seed=0)
        assert len(paths) == 4
        assert [p.name for p in paths] == [
            f"traversal_feature_{i:02d}.svg" for i in range(4)
        ]
        for p in paths:
            text = p.read_text()
            assert "<svg" in text.splitlines()[1]
            assert text.count("<polyline") == len(TRAVERSAL_GRID)

    def test_feature_subset(self, model, tmp_path):
        paths = traversal_sweep(model, tmp_path, seed=0, features=[2],
                                values=[-1.0, 1.0])
        assert len(paths) == 1
        assert paths[0].name == "traversal_feature_02.svg"

    def test_rerun_is_byte_identical(self, model, tmp_path):
        pa = traversal_sweep(model, tmp_path / "a", seed=9)
        pb = traversal_sweep(model, tmp_path / "b", seed=9)
        for fa, fb in zip(pa, pb):
            assert fa.read_bytes() == fb.read_bytes()

    def test_plots_equal_the_per_feature_traversals(self, model, tmp_path):
        # the sweep decodes all 40 codes in one call; decode_batch's fixed-size chunks keep
        # each row's bits, so every plot equals its own feature's 10-row decode
        paths = traversal_sweep(model, tmp_path, seed=0)
        for f, p in enumerate(paths):
            traces = latent_traversal(model, np.zeros(4), f, TRAVERSAL_GRID)
            labels = [f"z[{f}]={v:+.2f}" for v in TRAVERSAL_GRID]
            svg = emit_plot(traces, labels, title=f"latent feature {f} sweep")
            assert p.read_bytes() == svg.encode("utf-8")

    def test_bad_feature_refused_before_any_plot(self, model, tmp_path):
        with pytest.raises(IndexError):
            traversal_sweep(model, tmp_path, seed=0, features=[0, 4])
        assert list(tmp_path.iterdir()) == []
