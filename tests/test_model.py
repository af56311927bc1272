"""Model contracts: shapes, loss formulas vs oracles, determinism, gradients."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import max_grad_rel_err
from ecgvae import autodiff as ad
from ecgvae.autodiff import Tensor
from ecgvae.data import CardiacCycle
from ecgvae.errors import DimensionError, NumericsError
from ecgvae.model import (
    LatentCode,
    ModelConfig,
    VaeModel,
    decode_batch,
    decode_cycle,
    encode_batch,
    encode_cycle,
    kl_loss,
    kl_node,
    recon_loss,
    recon_node,
    reparameterize,
    layer_table,
    sample_latent,
    table_floats,
)

# small architecture with the same block pattern; keeps gradient checks fast
COMPACT = ModelConfig(
    input_len=64, latent_dim=4,
    conv_channels=(4, 8, 8, 8), kernel_size=5,
    enc_dense=(32, 16), dec_dense=(16, 32), dec_conv_channels=(8, 8, 8),
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
    @pytest.mark.parametrize("field", ["input_len", "latent_dim", "conv_channels", "kernel_size",
                                       "enc_dense", "dec_dense", "dec_conv_channels",
                                       "pool_width", "up_factor"])
    def test_config_rejects_sizes_the_layers_reject(self, field, bad):
        sizes = getattr(ModelConfig(), field)
        value = sizes[:-1] + (bad,) if isinstance(sizes, tuple) else bad
        with pytest.raises(ValueError, match=f"{field} must hold ints >= 1"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("kwargs", [{"bn_momentum": 0.0}, {"bn_momentum": 1.1},
                                        {"bn_eps": 0.0}])
    def test_config_rejects_batch_norm_settings_the_layers_reject(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ModelConfig(**kwargs)

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


class TestKlLoss:
    def test_hand_values(self):
        # one dim: mu=1, lv=0 -> (1 + 1 - 0 - 1)/2 = 0.5
        assert np.isclose(kl_loss(np.array([1.0]), np.array([0.0])), 0.5)
        # mu=0, lv=1 -> (e - 1 - 1)/2
        assert np.isclose(kl_loss(np.array([0.0]), np.array([1.0])),
                          (np.e - 2.0) / 2.0)
        # zero mean, unit variance: exactly zero
        assert kl_loss(np.zeros(25), np.zeros(25)) == 0.0

    def test_non_negative_on_random_inputs(self, rng):
        for _ in range(50):
            mu = rng.standard_normal(25) * 2
            lv = rng.standard_normal(25) * 2
            assert kl_loss(mu, lv) >= 0.0

    @pytest.mark.parametrize("mu,lv", [(0.0, 0.0), (1.5, -1.0), (-2.0, 2.0), (0.3, 0.7)])
    def test_matches_numeric_integration(self, mu, lv):
        closed = kl_loss(np.array([mu]), np.array([lv]))
        numeric = kl_by_numeric_integration(mu, lv)
        assert abs(closed - numeric) < 1e-6

    def test_batched_input_averages_rows(self, rng):
        mu = rng.standard_normal((8, 25))
        lv = rng.standard_normal((8, 25))
        rows = [kl_loss(mu[i], lv[i]) for i in range(8)]
        assert np.isclose(kl_loss(mu, lv), np.mean(rows))

    def test_graph_version_agrees_with_plain(self, rng):
        mu = rng.standard_normal((6, 25)).astype(np.float64)
        lv = rng.standard_normal((6, 25)).astype(np.float64)
        node = kl_node(Tensor(mu), Tensor(lv))
        assert np.isclose(node.item(), kl_loss(mu, lv), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            kl_loss(np.zeros(3), np.zeros(4))


class TestReconLoss:
    def test_hand_value(self):
        x = np.zeros((1, 400))
        x_hat = np.zeros((1, 400))
        x_hat[0, 0] = 2.0
        assert np.isclose(recon_loss(x, x_hat), 0.01)  # 4 / 400

    def test_zero_for_identical(self, rng):
        x = rng.standard_normal((3, 400))
        assert recon_loss(x, x) == 0.0

    def test_graph_version_agrees(self, rng):
        x = rng.standard_normal((5, 400))
        y = rng.standard_normal((5, 400))
        node = recon_node(Tensor(x), Tensor(y))
        assert np.isclose(node.item(), recon_loss(x, y), rtol=1e-10)


class TestReparameterize:
    def test_hand_value(self):
        # sigma = exp(ln(4)/2) = 2, so z = 0 + 2 * 1 = 2
        z = reparameterize(np.zeros(3), np.full(3, np.log(4.0)), np.ones(3))
        np.testing.assert_allclose(z, 2.0)

    def test_zero_noise_returns_mu(self, rng):
        mu = rng.standard_normal(25)
        z = reparameterize(mu, rng.standard_normal(25), np.zeros(25))
        np.testing.assert_array_equal(z, mu)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            reparameterize(np.zeros(3), np.zeros(3), np.zeros(4))

    def test_sample_latent_records_seed_and_formula(self, rng):
        code = LatentCode(mu=rng.standard_normal(25).astype(np.float32),
                          logvar=rng.standard_normal(25).astype(np.float32))
        drawn = sample_latent(code, seed=99)
        assert drawn.noise_seed == 99
        noise = np.random.default_rng(99).standard_normal(25)
        expect = code.mu + np.exp(0.5 * code.logvar) * noise
        np.testing.assert_allclose(drawn.z, expect.astype(np.float32), rtol=1e-6)
        # same seed, same draw
        np.testing.assert_array_equal(drawn.z, sample_latent(code, seed=99).z)


class TestCycleHelpers:
    def test_encode_cycle_roundtrip_types(self, rng):
        model = VaeModel.build(seed=0)
        cycle = CardiacCycle(rng.standard_normal(400).astype(np.float32))
        code = encode_cycle(model, cycle)
        assert code.mu.shape == (25,) and code.logvar.shape == (25,)
        out = decode_cycle(model, code.mu)
        assert isinstance(out, CardiacCycle)

    def test_encode_batch_matches_single_calls(self, rng):
        model = VaeModel.build(seed=0)
        x = rng.standard_normal((10, 400)).astype(np.float32)
        mu_all, lv_all = encode_batch(model, x, batch=3)
        mu_ref, lv_ref = model.encode(x)
        np.testing.assert_allclose(mu_all, mu_ref.data, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(lv_all, lv_ref.data, rtol=1e-5, atol=1e-6)

    def test_decode_batch_chunking_consistent(self, rng):
        model = VaeModel.build(seed=0)
        z = rng.standard_normal((7, 25)).astype(np.float32)
        # chunk boundaries change BLAS summation order, so f32 round-off only
        np.testing.assert_allclose(decode_batch(model, z, batch=2),
                                   decode_batch(model, z, batch=7),
                                   rtol=1e-4, atol=5e-6)


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
