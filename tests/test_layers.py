"""Layer contracts: hand values, shape algebra, train/eval batchnorm behavior."""

import numpy as np
import pytest

from conftest import max_grad_rel_err
from ecgvae import autodiff as ad
from ecgvae.autodiff import Tensor
from ecgvae.errors import DimensionError
from ecgvae.layers import (
    BatchNorm1d,
    Conv1d,
    Dense,
    MaxPool1d,
    ReLU,
    Sequential,
    UpsampleNearest1d,
    he_uniform,
)

TOL = 1e-4


class TestDense:
    def test_hand_value(self, rng):
        layer = Dense(2, 1, rng=rng)
        layer.weight.data = np.array([[1.0, 1.0]], dtype=np.float32)
        layer.bias.data = np.array([1.0], dtype=np.float32)
        out = layer(Tensor(np.array([[2.0, 3.0]], dtype=np.float32)))
        np.testing.assert_allclose(out.data, [[6.0]])

    def test_init_bounds_and_zero_bias(self):
        layer = Dense(100, 50, rng=np.random.default_rng(0))
        limit = np.sqrt(6.0 / 100)
        assert np.abs(layer.weight.data).max() <= limit
        assert layer.weight.data.std() > 0
        np.testing.assert_array_equal(layer.bias.data, 0.0)

    def test_init_is_seed_deterministic(self):
        a = Dense(8, 4, rng=np.random.default_rng(7))
        b = Dense(8, 4, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_gradients(self, rng):
        layer = Dense(5, 3, rng=rng, dtype=np.float64)
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)

        def loss():
            return layer(x).square().sum()

        assert max_grad_rel_err(loss, [x, layer.weight, layer.bias]) < TOL


class TestConv1dLayer:
    def test_bias_is_added_per_channel(self, rng):
        layer = Conv1d(1, 2, 3, rng=rng)
        layer.weight.data = np.zeros_like(layer.weight.data)
        layer.bias.data = np.array([1.5, -2.0], dtype=np.float32)
        out = layer(Tensor(np.zeros((1, 1, 6), dtype=np.float32)))
        np.testing.assert_allclose(out.data[0, 0], 1.5)
        np.testing.assert_allclose(out.data[0, 1], -2.0)

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ValueError):
            Conv1d(1, 1, 4, rng=rng)

    def test_gradients(self, rng):
        layer = Conv1d(2, 3, 3, rng=rng, dtype=np.float64)
        x = Tensor(rng.standard_normal((2, 2, 10)), requires_grad=True)

        def loss():
            return layer(x).square().sum()

        assert max_grad_rel_err(loss, [x, layer.weight, layer.bias]) < TOL


class TestBatchNorm:
    def test_hand_value_population_variance(self, rng):
        # batch [[1],[3]]: mean 2, population var 1 -> normalized [[-1],[1]]
        bn = BatchNorm1d(1)
        out = bn(Tensor(np.array([[1.0], [3.0]], dtype=np.float32)), train=True)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-2)

    def test_running_stats_updated_with_momentum(self):
        bn = BatchNorm1d(1, momentum=0.1)
        bn(Tensor(np.array([[1.0], [3.0]], dtype=np.float32)), train=True)
        # start (0,1); batch mean 2, var 1 -> mean 0.9*0+0.1*2, var 0.9*1+0.1*1
        np.testing.assert_allclose(bn.running_mean, [0.2], rtol=1e-6)
        np.testing.assert_allclose(bn.running_var, [1.0], rtol=1e-6)

    def test_eval_uses_running_stats_not_batch(self):
        bn = BatchNorm1d(1)
        bn.running_mean = np.array([5.0], dtype=np.float32)
        bn.running_var = np.array([4.0], dtype=np.float32)
        out = bn(Tensor(np.array([[5.0], [9.0]], dtype=np.float32)), train=False)
        np.testing.assert_allclose(out.data, [[0.0], [2.0]], atol=1e-2)

    def test_eval_does_not_touch_running_stats(self, rng):
        bn = BatchNorm1d(4)
        before = bn.running_mean.copy(), bn.running_var.copy()
        bn(Tensor(rng.standard_normal((8, 4)).astype(np.float32)), train=False)
        np.testing.assert_array_equal(bn.running_mean, before[0])
        np.testing.assert_array_equal(bn.running_var, before[1])

    def test_train_batch_of_one_rejected(self):
        bn = BatchNorm1d(3)
        with pytest.raises(DimensionError):
            bn(Tensor(np.zeros((1, 3), dtype=np.float32)), train=True)

    def test_rank3_normalizes_over_batch_and_length(self, rng):
        bn = BatchNorm1d(3)
        x = Tensor(rng.standard_normal((4, 3, 10)).astype(np.float32) * 5 + 2)
        out = bn(x, train=True)
        assert abs(out.data.mean(axis=(0, 2))).max() < 1e-5
        np.testing.assert_allclose(out.data.std(axis=(0, 2)), 1.0, atol=1e-3)

    def test_feature_count_mismatch(self, rng):
        bn = BatchNorm1d(3)
        with pytest.raises(DimensionError):
            bn(Tensor(rng.standard_normal((4, 5)).astype(np.float32)), train=True)

    @pytest.mark.parametrize("shape", [(6, 4), (3, 4, 8)])
    def test_gradients_train_mode(self, shape, rng):
        bn = BatchNorm1d(4, dtype=np.float64)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        # elementwise weights break the symmetry that makes sum(out^2) constant
        c = Tensor(rng.standard_normal(shape))

        def loss():
            return (bn(x, train=True) * c).square().sum()

        assert max_grad_rel_err(loss, [x, bn.gamma, bn.beta]) < TOL

    def test_gradients_eval_mode(self, rng):
        bn = BatchNorm1d(4, dtype=np.float64)
        bn.running_mean = rng.standard_normal(4).astype(np.float32)
        bn.running_var = rng.uniform(0.5, 2.0, 4).astype(np.float32)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)

        def loss():
            return bn(x, train=False).square().sum()

        assert max_grad_rel_err(loss, [x, bn.gamma, bn.beta]) < TOL


class TestPoolAndUpsample:
    def test_pool_layer_hand_value(self):
        out = MaxPool1d(2)(Tensor(np.array([[[1.0, 3.0, 5.0, 2.0]]], dtype=np.float32)))
        np.testing.assert_array_equal(out.data, [[[3.0, 5.0]]])

    def test_upsample_repeats_each_sample(self):
        out = UpsampleNearest1d(2)(Tensor(np.array([[[1.0, 2.0]]], dtype=np.float32)))
        np.testing.assert_array_equal(out.data, [[[1.0, 1.0, 2.0, 2.0]]])

    def test_pool_then_upsample_preserves_length(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 16)).astype(np.float32))
        y = UpsampleNearest1d(2)(MaxPool1d(2)(x))
        assert y.data.shape == x.data.shape


class TestSequential:
    def test_threads_train_flag_and_names(self, rng):
        seq = Sequential([
            Dense(8, 4, rng=rng),
            BatchNorm1d(4),
            ReLU(),
        ])
        names = [n for n, _ in seq.named_parameters("blk.")]
        assert names == ["blk.00.weight", "blk.00.bias", "blk.01.gamma", "blk.01.beta"]
        state = dict(seq.named_state("blk."))
        assert set(state) == {"blk.01.running_mean", "blk.01.running_var"}
        out = seq(Tensor(rng.standard_normal((4, 8)).astype(np.float32)), train=True)
        assert out.data.shape == (4, 4)
        assert (out.data >= 0).all()

    def test_batchnorm_relu_pair_runs_as_one_op(self, rng):
        bn = BatchNorm1d(3)
        seq = Sequential([bn, ReLU()])
        x = Tensor(rng.standard_normal((4, 3, 10)).astype(np.float32))
        for train in (True, False):
            out = seq(x, train=train)
            assert out.op == "batch_norm" and out._parents[0] is x
            np.testing.assert_array_equal(out.data, ad.relu(bn(x, train=train)).data)

    def test_encoder_shape_algebra_400_to_25(self, rng):
        # four conv/pool halvings then a width-1 collapse: 400 -> 25 x 1 channel
        layers = []
        c_in = 1
        for c_out in (16, 32, 64, 128):
            layers += [Conv1d(c_in, c_out, 5, rng=rng), BatchNorm1d(c_out), ReLU(),
                       MaxPool1d(2)]
            c_in = c_out
        layers.append(Conv1d(c_in, 1, 1, rng=rng))
        seq = Sequential(layers)
        out = seq(Tensor(rng.standard_normal((2, 1, 400)).astype(np.float32)), train=True)
        assert out.data.shape == (2, 1, 25)


def test_he_uniform_respects_fan_in():
    rng = np.random.default_rng(0)
    w = he_uniform(rng, (1000,), fan_in=6, dtype=np.float32)
    assert np.abs(w).max() <= 1.0
    assert np.abs(w).max() > 0.9  # should fill the [-1, 1] range for fan_in 6
