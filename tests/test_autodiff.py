"""Autodiff engine: per-op gradients vs central differences, graph semantics."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import graph_nodes, max_grad_rel_err, training_loss
from ecgvae import autodiff as ad
from ecgvae import kernels
from ecgvae.autodiff import Tensor
from ecgvae.errors import DimensionError, NumericsError, StateError
from ecgvae.model import VaeModel

TOL = 1e-4

_SPEC = importlib.util.spec_from_file_location(
    "bench_kernels", Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py")
bench_kernels = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_kernels)


def leaf(rng, shape, scale=1.0):
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


class TestOpGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_elementwise_chain(self, seed):
        rng = np.random.default_rng(seed)
        a = leaf(rng, (4, 5))
        b = leaf(rng, (4, 5))

        def loss():
            return ad.reduce_sum(ad.square(a * b + a - b * 0.5) + ad.exp(a * 0.3)) * 0.1

        assert max_grad_rel_err(loss, [a, b]) < TOL

    def test_broadcasting_add_mul(self, rng):
        a = leaf(rng, (3, 4))
        row = leaf(rng, (1, 4))
        col = leaf(rng, (3, 1))

        def loss():
            return ad.reduce_sum(ad.square((a + row) * col))

        assert max_grad_rel_err(loss, [a, row, col]) < TOL

    def test_relu_away_from_kink(self, rng):
        x = Tensor(rng.standard_normal((6, 7)) + 0.05, requires_grad=True)

        def loss():
            return ad.reduce_sum(ad.square(ad.relu(x)))

        assert max_grad_rel_err(loss, [x]) < TOL

    def test_reductions(self, rng):
        x = leaf(rng, (4, 6))

        def loss_sum():
            return ad.reduce_sum(ad.square(ad.reduce_sum(x)))

        def loss_mean():
            return ad.reduce_sum(ad.square(ad.reduce_mean(x)))

        assert max_grad_rel_err(loss_sum, [x]) < TOL
        assert max_grad_rel_err(loss_mean, [x]) < TOL

    def test_dense(self, rng):
        x = leaf(rng, (3, 4))
        w = leaf(rng, (2, 4))
        b = leaf(rng, (2,))

        def loss():
            return ad.reduce_sum(ad.square(ad.dense(x, w, b)))

        assert max_grad_rel_err(loss, [x, w, b]) < TOL

    @pytest.mark.parametrize("factor,k", [(1, 5), (1, 3), (2, 5), (3, 3), (2, 1)])
    def test_conv1d(self, factor, k, rng):
        x = leaf(rng, (2, 3, 6))
        w = leaf(rng, (4, 3, k))
        b = leaf(rng, (4,))

        def loss():
            return ad.reduce_sum(ad.square(ad.conv1d(x, w, b, factor)))

        assert max_grad_rel_err(loss, [x, w, b]) < TOL

    def test_maxpool(self, rng):
        x = leaf(rng, (2, 2, 12))

        def loss():
            return ad.reduce_sum(ad.square(ad.maxpool1d(x, 2)))

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
            return ad.reduce_sum(ad.square((out + 0.5) * c))

        assert max_grad_rel_err(loss, [x, gamma, beta]) < TOL

    def test_upsample(self, rng):
        x = leaf(rng, (2, 2, 6))

        def loss():
            return ad.reduce_sum(ad.square(ad.upsample1d(x, 2)))

        assert max_grad_rel_err(loss, [x]) < TOL

    def test_concat_and_reshape(self, rng):
        a = leaf(rng, (3, 4))
        b = leaf(rng, (3, 2))

        def loss():
            joined = ad.concat([a, b])
            return ad.reduce_sum(ad.square(ad.reshape(joined, (2, 9))))

        assert max_grad_rel_err(loss, [a, b]) < TOL


class TestConvFactorOne:
    """At factor 1 the conv op is the plain conv kernel, bit for bit."""

    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("shape", bench_kernels.CONV_SHAPES, ids=lambda s: s[0])
    def test_matches_the_plain_kernels_bytewise(self, shape, batch):
        _, ci, co, length, _ = shape
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((batch, ci, length)).astype(np.float32)
        w = rng.standard_normal((co, ci, bench_kernels.KERNEL_WIDTH)).astype(np.float32)
        w[0, 0, 1] = -0.0  # a phase-weight sum would make it +0.0
        b = rng.standard_normal(co).astype(np.float32)
        g = rng.standard_normal((batch, co, length)).astype(np.float32)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        y = ad.conv1d(xt, wt, bt)
        ad.reduce_sum(y * Tensor(g)).backward()  # the gradient reaching y is g itself
        dx, dw = kernels.conv1d_bwd(x, w, 1, g)
        # the bias gradient: float32 sums along L, added over the batch in float64
        db = np.einsum("bcl->bc", g).sum(axis=0, dtype=np.float64).astype(np.float32)
        for got, want in ((y.data, kernels.conv1d_fwd(x, w, 1, b)), (xt.grad, dx),
                          (wt.grad, dw), (bt.grad, db)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("factor", [1, 2])
    def test_phase_weights_are_built_only_above_factor_one(self, factor, monkeypatch):
        # building them at factor 1 changes no output bit, so only a call count shows it
        calls = {"polyphase_weight": 0, "polyphase_weight_bwd": 0}
        for name, fn in [(n, getattr(kernels, n)) for n in calls]:
            def counted(*args, name=name, fn=fn):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(kernels, name, counted)
        rng = np.random.default_rng(factor)
        for _, ci, co, length, _ in bench_kernels.CONV_SHAPES:
            x, w = leaf(rng, (2, ci, length)), leaf(rng, (co, ci, bench_kernels.KERNEL_WIDTH))
            before = dict(calls)
            y = ad.conv1d(x, w, leaf(rng, (co,)), factor)
            fwd = calls["polyphase_weight"] - before["polyphase_weight"]
            before = dict(calls)
            ad.reduce_sum(ad.square(y)).backward()
            bwd = [calls[n] - before[n] for n in calls]
            if factor == 1:
                assert fwd == 0 and bwd == [0, 0]
            else:
                assert fwd >= 1 and min(bwd) >= 1


class TestGraphSemantics:
    def test_gradients_accumulate_across_consumers(self):
        # y = x*x via two separate consumers of the same node: dy/dx = 2x
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = ad.reduce_sum(x * 2.0 + x)  # 3x
        y.backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_shared_subgraph_gets_summed_contributions(self, rng):
        x = Tensor(rng.standard_normal((4,)), requires_grad=True)
        h = ad.square(x)
        loss = ad.reduce_sum(h) + ad.reduce_sum(h * 2.0)
        loss.backward()
        np.testing.assert_allclose(x.grad, 6.0 * x.data, rtol=1e-12)

    def test_backward_needs_scalar(self, rng):
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        with pytest.raises(StateError):
            (x * 2.0).backward()

    def test_grad_shape_matches_data(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
        ad.reduce_sum(ad.maxpool1d(x, 2)).backward()
        assert x.grad.shape == x.data.shape

    def test_constants_do_not_require_grad(self, rng):
        c = Tensor(rng.standard_normal((3,)))
        x = Tensor(rng.standard_normal((3,)), requires_grad=True)
        out = ad.reduce_sum(x * c)
        out.backward()
        assert c.grad is None
        assert x.grad is not None

    def test_op_on_constants_records_no_parents(self, rng):
        out = Tensor(rng.standard_normal((3,))) * 2.0
        assert not out.requires_grad and out._parents == () and out._backward is None

    def test_recording_off_gives_constants(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        with ad.recording(False):
            with ad.recording(True):  # an outer off wins
                inner = x * 2.0
            out = ad.reduce_sum(ad.square(inner))
        assert not out.requires_grad and out._parents == () and out._backward is None
        assert inner._parents == ()
        after = x * 2.0
        assert after.requires_grad and after._parents[0] is x

    def test_recording_restored_after_error(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(NumericsError):
            with ad.recording(False):
                x * np.inf
        assert (x * 2.0).requires_grad

    def test_integer_input_is_promoted_to_float32(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float32

    def test_dtype_mismatch_rejected(self):
        a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float64))
        with pytest.raises(ValueError):
            ad.add(a, b)


def _walk_keeping_the_graph(loss):
    """backward() as it ran before it released the graph: the same topological order,
    every closure and interior grad left in place."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in seen)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _small_graph():
    """A conv, a fused batch norm, a pool and a node with two consumers, on float64."""
    rng = np.random.default_rng(21)
    x, w, b = leaf(rng, (3, 2, 8)), leaf(rng, (4, 2, 3)), leaf(rng, (4,))
    gamma, beta = leaf(rng, (4,)), leaf(rng, (4,))
    c = Tensor(rng.standard_normal((3, 4, 8)))
    h = ad.conv1d(x, w, b)
    y, _, _ = ad.batch_norm(h, gamma, beta, 1e-5, relu=True)
    loss = ad.reduce_mean(ad.square(ad.maxpool1d(y + h * c, 2)))
    return loss, [x, w, b, gamma, beta]


def _model_graph():
    """The loss training.train builds, on the default model."""
    model = VaeModel.build(seed=0)
    return training_loss(model), [p for _, p in model.named_parameters()]


class TestGraphRelease:
    """backward() frees each op node once it has passed its gradient on."""

    @pytest.mark.parametrize("build", [_small_graph, _model_graph])
    def test_leaves_keep_the_grads_a_kept_graph_gives(self, build):
        loss, leaves = build()
        _walk_keeping_the_graph(loss)
        want = [p.grad.copy() for p in leaves]
        loss, leaves = build()
        loss.backward()
        for p, g in zip(leaves, want):
            assert p.grad.dtype == g.dtype and p.grad.shape == g.shape
            assert p.grad.tobytes() == g.tobytes()

    @pytest.mark.parametrize("build", [_small_graph, _model_graph])
    def test_interior_nodes_are_released(self, build):
        loss, _ = build()
        nodes = graph_nodes(loss)
        loss.backward()
        interior = [t for t in nodes if t._parents]  # ops recorded on the tape
        assert loss in interior and len(interior) > 5
        for t in interior:
            assert t.grad is None, f"{t.op} kept its grad"
            assert t._backward is ad._released, f"{t.op} kept its closure"
        for t in nodes:
            if not t._parents:  # leaves and constants: no closure, grad only if required
                assert t._backward is None
                assert (t.grad is not None) == t.requires_grad, t.op

    def test_released_graph_keeps_its_nodes(self):
        loss, _ = _model_graph()
        loss.backward()
        assert len(graph_nodes(loss)) == 135  # perfbench's autodiff.tape_nodes

    def test_second_backward_names_the_op(self):
        loss, leaves = _small_graph()
        loss.backward()
        before = [p.grad.copy() for p in leaves]
        with pytest.raises(StateError, match=r"already ran through op 'mean'"):
            loss.backward()
        for p, g in zip(leaves, before):  # refused before any gradient moved
            np.testing.assert_array_equal(p.grad, g)

    def test_new_graph_over_a_walked_node_is_refused(self, rng):
        x = leaf(rng, (5,))
        y = ad.exp(x)
        ad.reduce_sum(y).backward()
        with pytest.raises(StateError, match=r"already ran through op 'exp'"):
            ad.reduce_sum(y * 2.0).backward()

    def test_released_closure_raises_if_called(self):
        with pytest.raises(StateError, match="already ran"):
            ad._released(np.ones(1))


class TestNumericsGuard:
    def test_exp_overflow_raises(self):
        x = Tensor(np.array([1000.0], dtype=np.float32))
        with pytest.raises(NumericsError):
            ad.exp(x)

    def test_nan_input_caught_at_first_op(self):
        x = Tensor(np.array([np.nan]))
        with pytest.raises(NumericsError):
            x * 1.0

    def test_reshape_leaves_the_check_to_the_next_op(self):
        y = ad.reshape(Tensor(np.array([np.nan, 1.0])), (1, 2))
        with pytest.raises(NumericsError, match="'mul'"):
            y * 1.0

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
        y = ad.reduce_sum(ad.exp(x * 0.01))
        assert np.isfinite(y.item())


class TestShapeErrors:
    def test_conv_channel_mismatch(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 8)))
        w = Tensor(rng.standard_normal((2, 4, 3)))
        with pytest.raises(DimensionError):
            ad.conv1d(x, w, Tensor(np.zeros(2)))

    def test_conv_even_kernel_rejected(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 8)))
        w = Tensor(rng.standard_normal((1, 1, 4)))
        with pytest.raises(ValueError):
            ad.conv1d(x, w, Tensor(np.zeros(1)))

    def test_upsample_conv_checks_like_conv(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 8)))
        with pytest.raises(DimensionError, match="conv1d: input has 3 channels"):
            ad.conv1d(x, Tensor(rng.standard_normal((2, 4, 3))), Tensor(np.zeros(2)), 2)
        with pytest.raises(ValueError, match="conv1d kernel width must be odd"):
            ad.conv1d(x, Tensor(rng.standard_normal((2, 3, 4))), Tensor(np.zeros(2)), 2)
        with pytest.raises(ValueError, match="conv1d upsampling factor must be >= 1"):
            ad.conv1d(x, Tensor(rng.standard_normal((2, 3, 3))), Tensor(np.zeros(2)), 0)

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
            ad.concat([a, b])
