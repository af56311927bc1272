"""Model contracts: shapes, loss formulas vs oracles, determinism, gradients."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import COMPACT, max_grad_rel_err
from ecgvae import autodiff as ad
from ecgvae.autodiff import Tensor
from ecgvae.errors import DimensionError, NumericsError
from ecgvae.model import (
    DECODE_ROWS,
    ENCODE_ROWS,
    ModelConfig,
    VaeModel,
    decode_batch,
    encode_batch,
    kl_node,
    recon_node,
    layer_table,
    table_floats,
)


def kl_by_numeric_integration(mu: float, logvar: float) -> float:
    """KL(N(mu, e^lv) || N(0,1)) = integral q(z) ln(q(z)/p(z)) dz, Simpson."""
    sigma = np.exp(0.5 * logvar)
    z = np.linspace(-30.0, 30.0, 24001)
    log_q = -0.5 * ((z - mu) / sigma) ** 2 - np.log(sigma * np.sqrt(2 * np.pi))
    log_p = -0.5 * z ** 2 - 0.5 * np.log(2 * np.pi)
    q = np.exp(log_q)
    integrand = np.where(q > 1e-300, q * (log_q - log_p), 0.0)
    return float(simpson(integrand, x=z))


class TestShapeContract:
    def test_encode_decode_shapes(self, rng):
        model = VaeModel.build(seed=0)
        x = rng.standard_normal((3, 400)).astype(np.float32)
        mu, lv = model.encode(x)
        assert mu.shape == (3, 25) and lv.shape == (3, 25)
        out = model.decode(mu)
        assert out.shape == (3, 400)

    def test_architecture_summary_widths(self):
        s = VaeModel.build(seed=0).architecture_summary()
        assert (s.encoder_conv_out, s.encoder_dense_out, s.encoder_concat) == (25, 25, 50)
        assert (s.mu_dim, s.logvar_dim) == (25, 25)
        assert (s.decoder_dense_out, s.decoder_conv_out, s.decoder_concat) == (400, 400, 800)
        assert s.output_len == 400

    def test_single_cycle_promoted_to_batch(self, rng):
        model = VaeModel.build(seed=0)
        mu, lv = model.encode(rng.standard_normal(400).astype(np.float32))
        assert mu.shape == (1, 25)

    def test_wrong_length_rejected(self, rng):
        model = VaeModel.build(seed=0)
        with pytest.raises(DimensionError):
            model.encode(rng.standard_normal((2, 300)).astype(np.float32))
        with pytest.raises(DimensionError):
            model.decode(rng.standard_normal((2, 24)).astype(np.float32))

    def test_config_rejects_inconsistent_geometry(self):
        with pytest.raises(ValueError):
            ModelConfig(input_len=300)  # 300 != 25 * 2^4

    @pytest.mark.parametrize("bad", [4.0, True, 0, -2])
    @pytest.mark.parametrize("field", ["input_len", "latent_dim", "conv_channels",
                                       "enc_dense", "dec_dense", "dec_conv_channels"])
    def test_config_rejects_sizes_the_layers_reject(self, field, bad):
        sizes = getattr(ModelConfig(), field)
        value = sizes[:-1] + (bad,) if isinstance(sizes, tuple) else bad
        with pytest.raises(ValueError, match=f"{field} must hold ints >= 1"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("config", [ModelConfig(), COMPACT], ids=["default", "compact"])
    def test_table_float_count_equals_built_tensors(self, config):
        model = VaeModel.build(config, seed=0)
        n = sum(p.data.size for _, p in model.named_parameters())
        n += sum(a.size for _, a in model.named_state())
        assert table_floats(layer_table(config)) == n


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a = VaeModel.build(seed=42)
        b = VaeModel.build(seed=42)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = VaeModel.build(seed=1)
        b = VaeModel.build(seed=2)
        assert not np.array_equal(a.named_parameters()[0][1].data,
                                  b.named_parameters()[0][1].data)

    def test_eval_encode_is_bitwise_repeatable(self, rng):
        model = VaeModel.build(seed=0)
        x = rng.standard_normal((4, 400)).astype(np.float32)
        m1, l1 = model.encode(x)
        m2, l2 = model.encode(x)
        np.testing.assert_array_equal(m1.data, m2.data)
        np.testing.assert_array_equal(l1.data, l2.data)

    def test_zero_signal_stays_finite(self):
        model = VaeModel.build(seed=0)
        mu, lv = model.encode(np.zeros((2, 400), dtype=np.float32))
        out = model.decode(mu)
        assert np.isfinite(mu.data).all()
        assert np.isfinite(out.data).all()


class TestTapeFreeEval:
    def test_eval_outputs_are_constants(self, rng):
        model = VaeModel.build(seed=0)
        mu, lv = model.encode(rng.standard_normal((3, 400)).astype(np.float32))
        out = model.decode(mu)
        for t in (mu, lv, out):
            assert not t.requires_grad and t._parents == ()

    def test_train_forward_records_after_eval_error(self):
        model = VaeModel.build(seed=0)
        with pytest.raises(NumericsError):
            model.encode(np.full((2, 400), np.inf, dtype=np.float32))
        mu, lv = model.encode(np.zeros((2, 400), dtype=np.float32), train=True)
        assert mu.requires_grad and lv.requires_grad and mu._parents

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_caught_after_the_unchecked_reshape(self, train, bad):
        # the first op on the input is a reshape, which skips the finite check;
        # the conv after it raises, without a RuntimeWarning from its matmul
        x = np.zeros((2, 400), dtype=np.float32)
        x[1] = bad  # a row of inf makes inf - inf in the conv sums
        model = VaeModel.build(seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericsError, match="conv1d"):
                model.encode(x, train=train)

    @staticmethod
    def _per_op_error(layers, x) -> str:
        """The NumericsError message of the chain's layers run one by one, tape off."""
        t = Tensor(x)
        with ad.recording(False), pytest.raises(NumericsError) as err:
            for layer in layers:
                t = layer(t)
        return str(err.value)

    def test_poisoned_running_mean_names_the_per_op_op(self, rng):
        model = VaeModel.build(seed=0)
        model.dec_conv.layers[1].running_mean[3] = np.nan
        z = rng.standard_normal((4, 25)).astype(np.float32)
        want = self._per_op_error(model.dec_conv.layers, z.reshape(4, 1, 25))
        assert "batch_norm" in want
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericsError, match=re.escape(want)):
                model.decode(z)

    def test_infinite_conv_weight_names_the_per_op_op(self, rng):
        model = VaeModel.build(seed=0)
        model.enc_conv.layers[4].weight.data[2, 5, 1] = np.inf
        x = rng.standard_normal((4, 400)).astype(np.float32)
        want = self._per_op_error(model.enc_conv.layers, x.reshape(4, 1, 400))
        assert "conv1d" in want
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericsError, match=re.escape(want)):
                model.encode(x)

    def test_encode_batch_keeps_no_graph_alive(self, rng):
        model = VaeModel.build(seed=0)
        x = rng.standard_normal((512, 400)).astype(np.float32)
        tracemalloc.start()
        try:
            encode_batch(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # ~33 MB without a tape; ~323 MB when each chunk kept its graph
        assert peak < 100e6, f"encode_batch peak {peak / 1e6:.0f} MB"


def kl(mu, lv) -> float:
    """kl_node on float64 constants [rows, features], as the eval pass calls it."""
    return kl_node(Tensor(np.asarray(mu, dtype=np.float64)),
                   Tensor(np.asarray(lv, dtype=np.float64))).item()


def recon(x, x_hat) -> float:
    """recon_node on float64 constants, as the eval pass calls it."""
    return recon_node(Tensor(np.asarray(x, dtype=np.float64)),
                      Tensor(np.asarray(x_hat, dtype=np.float64))).item()


class TestKlLoss:
    def test_hand_values(self):
        # one dim: mu=1, lv=0 -> (1 + 1 - 0 - 1)/2 = 0.5
        assert np.isclose(kl([[1.0]], [[0.0]]), 0.5)
        # mu=0, lv=1 -> (e - 1 - 1)/2
        assert np.isclose(kl([[0.0]], [[1.0]]), (np.e - 2.0) / 2.0)
        # zero mean, unit variance: exactly zero
        assert kl(np.zeros((1, 25)), np.zeros((1, 25))) == 0.0

    def test_non_negative_on_random_inputs(self, rng):
        for _ in range(50):
            mu = rng.standard_normal((1, 25)) * 2
            lv = rng.standard_normal((1, 25)) * 2
            assert kl(mu, lv) >= 0.0

    @pytest.mark.parametrize("mu,lv", [(0.0, 0.0), (1.5, -1.0), (-2.0, 2.0), (0.3, 0.7)])
    def test_matches_numeric_integration(self, mu, lv):
        closed = kl([[mu]], [[lv]])
        numeric = kl_by_numeric_integration(mu, lv)
        assert abs(closed - numeric) < 1e-6

    def test_batched_input_averages_rows(self, rng):
        mu = rng.standard_normal((8, 25))
        lv = rng.standard_normal((8, 25))
        rows = [kl(mu[i:i + 1], lv[i:i + 1]) for i in range(8)]
        assert np.isclose(kl(mu, lv), np.mean(rows))

    def test_one_row_of_25_features_is_25_times_one_feature(self):
        assert kl(np.ones((1, 25)), np.zeros((1, 25))) == 12.5

    @pytest.mark.parametrize("mu_shape,lv_shape", [
        ((25,), (25,)),  # read by axis 0 as 25 rows, this gave 0.5 for the 12.5 above
        ((1, 1, 25), (1, 1, 25)),
        ((), ()),
        ((1, 25), (25,)),
        ((2, 25), (1, 25)),
    ])
    def test_rank_other_than_2_or_mismatched_shapes_refused(self, mu_shape, lv_shape):
        with pytest.raises(DimensionError, match="one shape"):
            kl(np.ones(mu_shape), np.zeros(lv_shape))


class TestReconLoss:
    def test_hand_value(self):
        x = np.zeros((1, 400))
        x_hat = np.zeros((1, 400))
        x_hat[0, 0] = 2.0
        assert np.isclose(recon(x, x_hat), 0.01)  # 4 / 400

    def test_zero_for_identical(self, rng):
        x = rng.standard_normal((3, 400))
        assert recon(x, x) == 0.0


class TestCycleHelpers:
    def test_encode_batch_matches_single_calls(self, rng):
        model = VaeModel.build(seed=0)
        x = rng.standard_normal((10, 400)).astype(np.float32)
        mu_all, lv_all = encode_batch(model, x)
        # one row per call: the same bits, since every call runs ENCODE_ROWS rows
        singles = [encode_batch(model, row) for row in x]
        np.testing.assert_array_equal(mu_all, np.concatenate([m for m, _ in singles]))
        np.testing.assert_array_equal(lv_all, np.concatenate([lv for _, lv in singles]))
        mu_ref, lv_ref = model.encode(x)
        np.testing.assert_allclose(mu_all, mu_ref.data, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(lv_all, lv_ref.data, rtol=1e-5, atol=1e-6)

    def test_one_code_decodes_as_its_row(self, rng):
        model = VaeModel.build(seed=0)
        z = rng.standard_normal(25).astype(np.float32)
        one = decode_batch(model, z)
        assert one.shape == (1, 400)
        assert one.tobytes() == decode_batch(model, z[None, :]).tobytes()

    def test_decode_batch_chunking_consistent(self, rng):
        model = VaeModel.build(seed=0)
        z = rng.standard_normal((7, 25)).astype(np.float32)
        whole = decode_batch(model, z)
        for split in ([2, 2, 2, 1], [7], [1] * 7, [3, 4]):
            at = np.cumsum([0] + split)
            parts = [decode_batch(model, z[lo:hi]) for lo, hi in zip(at, at[1:])]
            np.testing.assert_array_equal(np.concatenate(parts), whole)

def _moved_model(seed: int) -> VaeModel:
    """The default model with its batch-norm running statistics moved off 0 and 1."""
    model = VaeModel.build(seed=seed)
    rng = np.random.default_rng(100 + seed)
    for name, arr in model.named_state():
        arr[...] = (rng.normal(0.0, 0.5, arr.shape) if name.endswith("running_mean")
                    else rng.uniform(0.3, 3.0, arr.shape))
    return model


_DIRECTIONS = {  # rows per model call, input width, outputs as one array
    "encode": (ENCODE_ROWS, 400, lambda model, x: np.hstack(encode_batch(model, x))),
    "decode": (DECODE_ROWS, 25, decode_batch),
}


class TestRowInvariance:
    """encode_batch and decode_batch give each row the same bits in any split and order.

    Every model call runs a fixed number of rows, so the BLAS keeps one kernel
    for every chunk; a BLAS that rounds a row by its position breaks this test.
    """

    @pytest.mark.parametrize("direction", sorted(_DIRECTIONS))
    @pytest.mark.parametrize("seed", range(12))
    def test_any_split_and_order_gives_the_same_bits(self, seed, direction):
        rows, width, run = _DIRECTIONS[direction]
        model = _moved_model(seed)
        rng = np.random.default_rng(seed)
        for n in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
            x = rng.standard_normal((n, width)).astype(np.float32)
            whole = run(model, x)
            assert whole.shape[0] == n and np.isfinite(whole).all()
            cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, 4), replace=False))
            edges = [0, *cuts, n]
            parts = [run(model, x[lo:hi]) for lo, hi in zip(edges, edges[1:])]
            np.testing.assert_array_equal(np.concatenate(parts), whole)
            perm = rng.permutation(n)
            np.testing.assert_array_equal(run(model, x[perm]), whole[perm])

    @pytest.mark.parametrize("direction", sorted(_DIRECTIONS))
    def test_every_model_call_runs_the_fixed_row_count(self, direction, monkeypatch):
        rows, width, run = _DIRECTIONS[direction]
        model = VaeModel.build(seed=0)
        forward, seen = getattr(model, direction), []

        def spy(x):
            seen.append(np.array(x))
            return forward(x)

        monkeypatch.setattr(model, direction, spy)
        x = np.random.default_rng(0).standard_normal((rows + 3, width)).astype(np.float32)
        assert run(model, x).shape[0] == rows + 3
        assert [c.shape[0] for c in seen] == [rows, rows]
        # the short last chunk is padded with copies of its last real row
        np.testing.assert_array_equal(seen[1][3:], np.repeat(x[-1:], rows - 3, axis=0))

    def test_no_rows_refused(self):
        model = VaeModel.build(COMPACT, seed=0)
        with pytest.raises(DimensionError, match="no rows"):
            encode_batch(model, np.zeros((0, COMPACT.input_len), dtype=np.float32))
        with pytest.raises(DimensionError, match="no rows"):
            decode_batch(model, np.zeros((0, COMPACT.latent_dim), dtype=np.float32))


class TestEndToEndGradients:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_vae_loss_gradients(self, seed):
        rng = np.random.default_rng(seed)
        model = VaeModel.build(COMPACT, seed=seed, dtype=np.float64)
        x = Tensor(0.5 * rng.standard_normal((3, COMPACT.input_len)))
        noise = Tensor(rng.standard_normal((3, COMPACT.latent_dim)))

        def loss():
            mu, lv = model.encode(x, train=True)
            z = mu + ad.exp(lv * 0.5) * noise
            x_hat = model.decode(z, train=True)
            return recon_node(x, x_hat) + kl_node(mu, lv) * 0.1

        tensors = [p for _, p in model.named_parameters()]
        err = max_grad_rel_err(loss, tensors, n_per_tensor=2, rng=rng)
        assert err < 1e-3, f"worst end-to-end gradient error {err:.2e}"
