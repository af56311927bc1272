"""Training loop behavior: determinism, progress, splits, validation, memory."""

import tracemalloc

import numpy as np
import pytest

from conftest import COMPACT
from ecgvae import training
from ecgvae.autodiff import Tensor
from ecgvae.errors import DimensionError, NumericsError
from ecgvae.model import VaeModel, decode_batch, encode_batch
from ecgvae.training import EVAL_FRACTION, TrainConfig, mean_cycle_baseline, train


def bump_dataset(n: int, length: int = 64, seed: int = 0) -> np.ndarray:
    """Gaussian bumps with varying center and height; easy to reconstruct."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    centers = rng.uniform(0.3 * length, 0.7 * length, size=n)
    heights = rng.uniform(0.5, 1.5, size=n)
    rows = heights[:, None] * np.exp(-0.5 * ((t[None, :] - centers[:, None]) / 4.0) ** 2)
    rows += rng.normal(0.0, 0.01, size=rows.shape)
    return rows.astype(np.float32)


class TestTrainBasics:
    def test_history_and_model_metadata(self):
        data = bump_dataset(24)
        cfg = TrainConfig(seed=7, epochs=2, batch_size=8)
        model, history = train(data, cfg, COMPACT)
        assert len(history) == 2
        assert [h.epoch for h in history] == [0, 1]
        for h in history:
            for v in (h.train_recon, h.train_kl, h.eval_recon, h.eval_kl):
                assert np.isfinite(v)
            assert h.train_kl >= 0.0 and h.eval_kl >= 0.0
        assert model.train_seed == 7
        assert model.train_config_dict["epochs"] == 2

    def test_log_callback_called_once_per_epoch(self):
        lines = []
        train(bump_dataset(16), TrainConfig(seed=0, epochs=3, batch_size=8),
              COMPACT, log=lines.append)
        assert len(lines) == 3
        assert all("eval_recon" in ln for ln in lines)

    def test_leftover_single_cycle_batch_is_skipped(self):
        # 11 cycles, eval holds 2, train split of 9 with batch 4 leaves a
        # lone trailing cycle that batch statistics cannot handle
        assert 11 - round(11 * EVAL_FRACTION) == 9
        data = bump_dataset(11)
        cfg = TrainConfig(seed=0, epochs=1, batch_size=4)
        model, history = train(data, cfg, COMPACT)
        assert np.isfinite(history[0].train_recon)


class TestDeterminism:
    def test_same_seed_is_bitwise_identical(self):
        data = bump_dataset(20)
        cfg = TrainConfig(seed=123, epochs=2, batch_size=8)
        model_a, hist_a = train(data, cfg, COMPACT)
        model_b, hist_b = train(data, cfg, COMPACT)
        for (na, pa), (nb, pb) in zip(model_a.named_parameters(),
                                      model_b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)
        assert [h.__dict__ for h in hist_a] == [h.__dict__ for h in hist_b]

    def test_different_seeds_diverge(self):
        data = bump_dataset(20)
        model_a, _ = train(data, TrainConfig(seed=1, epochs=1, batch_size=8), COMPACT)
        model_b, _ = train(data, TrainConfig(seed=2, epochs=1, batch_size=8), COMPACT)
        assert not np.array_equal(model_a.named_parameters()[0][1].data,
                                  model_b.named_parameters()[0][1].data)


class TestLearning:
    def test_reconstruction_improves(self):
        data = bump_dataset(48, seed=3)
        cfg = TrainConfig(seed=11, epochs=8, batch_size=16, lr=2e-3)
        _, history = train(data, cfg, COMPACT)
        assert history[-1].train_recon < 0.5 * history[0].train_recon
        assert history[-1].eval_recon < history[0].eval_recon

    def test_beats_mean_cycle_on_varied_shapes(self):
        # centers vary, so the mean cycle is a poor predictor and the VAE
        # should undercut it after a short run
        data = bump_dataset(48, seed=5)
        cfg = TrainConfig(seed=4, epochs=25, batch_size=16, lr=3e-3)
        _, history = train(data, cfg, COMPACT)
        baseline = mean_cycle_baseline(data, data)
        assert history[-1].eval_recon < baseline


class TestValidation:
    def test_too_few_cycles(self):
        with pytest.raises(DimensionError):
            train(bump_dataset(3), TrainConfig(seed=0, epochs=1), COMPACT)

    def test_wrong_cycle_length(self):
        with pytest.raises(DimensionError):
            train(bump_dataset(10, length=50), TrainConfig(seed=0, epochs=1), COMPACT)

    @pytest.mark.parametrize("kwargs", [
        dict(epochs=0),
        dict(batch_size=1),
        dict(lr=0.0),
        dict(lr=-1e-3),
        dict(beta_kl=-0.1),
        dict(lr=float("nan")),
        dict(lr=float("inf")),
        dict(beta_kl=float("nan")),
        dict(beta_kl=float("inf")),
    ])
    def test_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(seed=0, **kwargs)


    def test_eval_pass_error_names_the_epoch(self, monkeypatch):
        def poisoned(*args, **kwargs):
            raise NumericsError("non-finite values produced by op 'conv1d'")

        monkeypatch.setattr(training, "encode_batch", poisoned)
        with pytest.raises(NumericsError,
                           match=r"^training diverged at epoch 0 eval pass: .*'conv1d'"):
            train(bump_dataset(16), TrainConfig(seed=0, epochs=1, batch_size=8), COMPACT)


class TestMemory:
    def test_peak_does_not_grow_with_the_step_count(self, monkeypatch):
        # the default model at batch 64: 80 cycles train one step, 640 train eight
        data = bump_dataset(640, length=400, seed=2)
        cfg = TrainConfig(seed=0, epochs=1)
        train(data[:80], cfg)  # first-call allocations (caches, lazy imports) stay outside
        held = []  # traced memory as each backward() starts: the step's forward graph and all
        backward = Tensor.backward

        def traced_backward(loss):
            held.append(tracemalloc.get_traced_memory()[0])
            backward(loss)

        monkeypatch.setattr(Tensor, "backward", traced_backward)
        peaks = []
        for n in (80, 640):
            tracemalloc.start()
            try:
                train(data[:n], cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        msg = f"held {min(held) / 1e6:.1f} MB, peaks {peaks[0] / 1e6:.1f} -> {peaks[1] / 1e6:.1f} MB"
        # nothing of a step is left bound while the next step runs
        assert peaks[1] < 1.1 * peaks[0], msg
        # backward() frees closures and interior grads as it walks: they would add ~50%
        assert peaks[1] < 1.25 * min(held), msg


class TestEvalColumns:
    """The loss CSV's eval numbers come from kl_node/recon_node in float64; these plain
    numpy formulas are their oracle."""

    @pytest.mark.parametrize("n", [1, 7, 130])  # 130: three encode_batch calls
    def test_eval_pass_matches_the_float64_formulas(self, n):
        model = VaeModel.build(COMPACT, seed=n)
        cycles = bump_dataset(n, seed=n)
        mu, lv = encode_batch(model, cycles)
        c64, xh64 = cycles.astype(np.float64), decode_batch(model, mu).astype(np.float64)
        mu64, lv64 = mu.astype(np.float64), lv.astype(np.float64)
        recon, kl = training._eval_pass(model, cycles)
        assert recon == np.mean((c64 - xh64) ** 2)
        want_kl = 0.5 * np.mean(np.sum(mu64**2 + np.exp(lv64) - lv64 - 1.0, axis=1))
        assert kl == pytest.approx(want_kl, rel=1e-12, abs=0.0)

    def test_baseline_matches_the_float64_formula(self):
        rng = np.random.default_rng(3)
        train_c = rng.standard_normal((50, 400)).astype(np.float32)
        eval_c = rng.standard_normal((17, 400)).astype(np.float32)
        mean = train_c.mean(axis=0, dtype=np.float64)
        want = np.mean((eval_c.astype(np.float64) - mean) ** 2)
        assert mean_cycle_baseline(train_c, eval_c) == want


class TestMeanCycleBaseline:
    def test_hand_value(self):
        train_c = np.array([[0.0, 0.0], [2.0, 2.0]], dtype=np.float32)
        assert mean_cycle_baseline(train_c, np.array([[1.0, 1.0]])) == 0.0
        assert mean_cycle_baseline(train_c, np.array([[3.0, 1.0]])) == 2.0

    def test_zero_for_constant_data(self):
        data = np.ones((5, 8), dtype=np.float32)
        assert mean_cycle_baseline(data, data) == 0.0
