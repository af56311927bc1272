"""Autodiff engine: per-op gradients vs central differences, graph semantics."""

import numpy as np
import pytest

from conftest import max_grad_rel_err
from ecgvae import autodiff as ad
from ecgvae.autodiff import Tensor
from ecgvae.errors import DimensionError, NumericsError, StateError

TOL = 1e-4


def leaf(rng, shape, scale=1.0):
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


class TestOpGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_elementwise_chain(self, seed):
        rng = np.random.default_rng(seed)
        a = leaf(rng, (4, 5))
        b = leaf(rng, (4, 5))

        def loss():
            return ((a * b + a - b * 0.5).square() + ad.exp(a * 0.3)).sum() * 0.1

        assert max_grad_rel_err(loss, [a, b]) < TOL

    def test_broadcasting_add_mul(self, rng):
        a = leaf(rng, (3, 4))
        row = leaf(rng, (1, 4))
        col = leaf(rng, (3, 1))

        def loss():
            return ((a + row) * col).square().sum()

        assert max_grad_rel_err(loss, [a, row, col]) < TOL

    def test_relu_away_from_kink(self, rng):
        x = Tensor(rng.standard_normal((6, 7)) + 0.05, requires_grad=True)

        def loss():
            return ad.relu(x).square().sum()

        assert max_grad_rel_err(loss, [x]) < TOL

    def test_powf_inverse_sqrt(self, rng):
        x = Tensor(rng.uniform(0.5, 3.0, (5,)), requires_grad=True)

        def loss():
            return ad.powf(x, -0.5).sum()

        assert max_grad_rel_err(loss, [x]) < TOL

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 1), False)])
    def test_reductions(self, axis, keepdims, rng):
        x = leaf(rng, (4, 6))

        def loss_sum():
            return ad.reduce_sum(ad.reduce_sum(x, axis=axis, keepdims=keepdims).square())

        def loss_mean():
            return ad.reduce_sum(ad.reduce_mean(x, axis=axis, keepdims=keepdims).square())

        assert max_grad_rel_err(loss_sum, [x]) < TOL
        assert max_grad_rel_err(loss_mean, [x]) < TOL

    def test_dense(self, rng):
        x = leaf(rng, (3, 4))
        w = leaf(rng, (2, 4))
        b = leaf(rng, (2,))

        def loss():
            return ad.dense(x, w, b).square().sum()

        assert max_grad_rel_err(loss, [x, w, b]) < TOL

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv1d(self, stride, rng):
        x = leaf(rng, (2, 3, 11))
        w = leaf(rng, (4, 3, 5))
        b = leaf(rng, (4,))

        def loss():
            return ad.conv1d(x, w, b, stride=stride).square().sum()

        assert max_grad_rel_err(loss, [x, w, b]) < TOL

    def test_maxpool(self, rng):
        x = leaf(rng, (2, 2, 12))

        def loss():
            return ad.maxpool1d(x, 2).square().sum()

        assert max_grad_rel_err(loss, [x]) < TOL

    @pytest.mark.parametrize("shape", [(5, 4), (3, 4, 6)])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("train", [False, True])
    def test_batch_norm(self, shape, relu, train, rng):
        x = leaf(rng, shape)
        gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
        beta = Tensor(0.3 * rng.standard_normal(4), requires_grad=True)
        running = None if train else (rng.standard_normal(4), rng.uniform(0.5, 2.0, 4))
        # elementwise weights break the symmetry that makes sum(out^2) constant
        c = Tensor(rng.standard_normal(shape))

        def loss():
            out, _, _ = ad.batch_norm(x, gamma, beta, 1e-5, running, relu=relu)
            # the offset keeps the loss gradient nonzero where ReLU outputs 0
            return ((out + 0.5) * c).square().sum()

        assert max_grad_rel_err(loss, [x, gamma, beta]) < TOL

    def test_upsample(self, rng):
        x = leaf(rng, (2, 2, 6))

        def loss():
            return ad.upsample1d(x, 2).square().sum()

        assert max_grad_rel_err(loss, [x]) < TOL

    def test_concat_and_reshape(self, rng):
        a = leaf(rng, (3, 4))
        b = leaf(rng, (3, 2))

        def loss():
            joined = ad.concat([a, b], axis=1)
            return ad.reshape(joined, (2, 9)).square().sum()

        assert max_grad_rel_err(loss, [a, b]) < TOL


class TestGraphSemantics:
    def test_gradients_accumulate_across_consumers(self):
        # y = x*x via two separate consumers of the same node: dy/dx = 2x
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = (x * 2.0 + x).sum()  # 3x
        y.backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_shared_subgraph_gets_summed_contributions(self, rng):
        x = Tensor(rng.standard_normal((4,)), requires_grad=True)
        h = x.square()
        loss = (h.sum() + (h * 2.0).sum())
        loss.backward()
        np.testing.assert_allclose(x.grad, 6.0 * x.data, rtol=1e-12)

    def test_backward_needs_scalar(self, rng):
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        with pytest.raises(StateError):
            (x * 2.0).backward()

    def test_grad_shape_matches_data(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
        ad.maxpool1d(x, 2).sum().backward()
        assert x.grad.shape == x.data.shape

    def test_constants_do_not_require_grad(self, rng):
        c = Tensor(rng.standard_normal((3,)))
        x = Tensor(rng.standard_normal((3,)), requires_grad=True)
        out = (x * c).sum()
        out.backward()
        assert c.grad is None
        assert x.grad is not None

    def test_integer_input_is_promoted_to_float32(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float32

    def test_dtype_mismatch_rejected(self):
        a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float64))
        with pytest.raises(ValueError):
            ad.add(a, b)


class TestNumericsGuard:
    def test_exp_overflow_raises(self):
        x = Tensor(np.array([1000.0], dtype=np.float32))
        with pytest.raises(NumericsError):
            ad.exp(x)

    def test_nan_input_caught_at_first_op(self):
        x = Tensor(np.array([np.nan]))
        with pytest.raises(NumericsError):
            x * 1.0

    def test_batch_norm_variance_overflow_raises(self):
        # finite float32 inputs whose variance overflows: without the check the
        # output would silently collapse to beta
        x = Tensor(np.array([[1e25], [-1e25]], dtype=np.float32))
        one = Tensor(np.ones(1, dtype=np.float32))
        zero = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(NumericsError, match="batch_norm"):
            ad.batch_norm(x, one, zero, 1e-5)

    def test_batch_norm_relu_does_not_hide_overflow(self):
        # -3e38 * 10 overflows to -inf, which a plain max(., 0) would turn into 0
        x = Tensor(np.array([[-3e38], [1.0]], dtype=np.float32))
        gamma = Tensor(np.full(1, 10.0, dtype=np.float32))
        beta = Tensor(np.zeros(1, dtype=np.float32))
        running = (np.zeros(1, dtype=np.float32), np.ones(1, dtype=np.float32))
        with pytest.raises(NumericsError, match="batch_norm"):
            ad.batch_norm(x, gamma, beta, 1e-5, running, relu=True)

    def test_finite_path_passes(self, rng):
        x = Tensor(rng.standard_normal((10,)))
        y = ad.exp(x * 0.01).sum()
        assert np.isfinite(y.item())


class TestShapeErrors:
    def test_conv_channel_mismatch(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 8)))
        w = Tensor(rng.standard_normal((2, 4, 3)))
        with pytest.raises(DimensionError):
            ad.conv1d(x, w)

    def test_conv_even_kernel_rejected(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 8)))
        w = Tensor(rng.standard_normal((1, 1, 4)))
        with pytest.raises(ValueError):
            ad.conv1d(x, w)

    def test_pool_wider_than_input(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4)))
        with pytest.raises(DimensionError):
            ad.maxpool1d(x, 8)

    def test_dense_rank_check(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)))
        w = Tensor(rng.standard_normal((2, 4)))
        b = Tensor(np.zeros(2))
        with pytest.raises(DimensionError):
            ad.dense(x, w, b)

    def test_bad_reshape(self, rng):
        x = Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(DimensionError):
            ad.reshape(x, (4, 4))

    def test_concat_rank_mismatch(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((2, 3, 1)))
        with pytest.raises(DimensionError):
            ad.concat([a, b], axis=0)
