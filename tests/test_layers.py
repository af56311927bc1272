"""Layer contracts: hand values, shape algebra, train/eval batchnorm behavior."""

from collections import Counter

import numpy as np
import pytest

from conftest import graph_nodes, max_grad_rel_err, training_loss
from ecgvae import autodiff as ad
from ecgvae.autodiff import Tensor
from ecgvae.errors import DimensionError, NumericsError
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
from ecgvae.model import VaeModel
from ecgvae.training import TrainConfig, train

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
            return ad.reduce_sum(ad.square(layer(x)))

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
            return ad.reduce_sum(ad.square(layer(x)))

        assert max_grad_rel_err(loss, [x, layer.weight, layer.bias]) < TOL


class TestBatchNorm:
    def test_hand_value_population_variance(self, rng):
        # batch [[1],[3]]: mean 2, population var 1 -> normalized [[-1],[1]]
        bn = BatchNorm1d(1)
        out = bn(Tensor(np.array([[1.0], [3.0]], dtype=np.float32)), train=True)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-2)

    def test_running_stats_updated_with_momentum(self):
        bn = BatchNorm1d(1)
        assert bn.momentum == 0.1
        bn(Tensor(np.array([[1.0], [3.0]], dtype=np.float32)), train=True)
        # start (0,1); batch mean 2, var 1 -> mean 0.9*0+0.1*2, var 0.9*1+0.1*1
        np.testing.assert_allclose(bn.running_mean, [0.2], rtol=1e-6)
        np.testing.assert_allclose(bn.running_var, [1.0], rtol=1e-6)

    def test_running_variance_weighs_the_batch_by_momentum(self):
        # batch [1, 5]: mean 3, population var 4 -> mean 0.1*3, var 0.9*1 + 0.1*4;
        # swapped weights would give 2.7 and 3.7
        bn = BatchNorm1d(1)
        bn(Tensor(np.array([[1.0], [5.0]], dtype=np.float32)), train=True)
        np.testing.assert_allclose(bn.running_mean, [0.3], rtol=1e-6)
        np.testing.assert_allclose(bn.running_var, [1.3], rtol=1e-6)

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
            return ad.reduce_sum(ad.square(bn(x, train=True) * c))

        assert max_grad_rel_err(loss, [x, bn.gamma, bn.beta]) < TOL

    def test_gradients_eval_mode(self, rng):
        bn = BatchNorm1d(4, dtype=np.float64)
        bn.running_mean = rng.standard_normal(4).astype(np.float32)
        bn.running_var = rng.uniform(0.5, 2.0, 4).astype(np.float32)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)

        def loss():
            return ad.reduce_sum(ad.square(bn(x, train=False)))

        assert max_grad_rel_err(loss, [x, bn.gamma, bn.beta]) < TOL


class TestPoolAndUpsample:
    def test_pool_layer_hand_value(self):
        out = MaxPool1d()(Tensor(np.array([[[1.0, 3.0, 5.0, 2.0]]], dtype=np.float32)))
        np.testing.assert_array_equal(out.data, [[[3.0, 5.0]]])

    def test_upsample_repeats_each_sample(self):
        out = UpsampleNearest1d()(Tensor(np.array([[[1.0, 2.0]]], dtype=np.float32)))
        np.testing.assert_array_equal(out.data, [[[1.0, 1.0, 2.0, 2.0]]])

    def test_pool_then_upsample_preserves_length(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 16)).astype(np.float32))
        y = UpsampleNearest1d()(MaxPool1d()(x))
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
        conv, bn = Conv1d(2, 3, 3, rng=rng), BatchNorm1d(3)
        seq = Sequential([conv, bn, ReLU()])
        x = Tensor(rng.standard_normal((4, 2, 10)).astype(np.float32))
        for train in (True, False):
            out = seq(x, train=train)
            h = out._parents[0]
            assert out.op == "batch_norm" and h.op == "conv1d" and h._parents[0] is x
            np.testing.assert_array_equal(out.data, ad.relu(bn(conv(x), train=train)).data)

    def test_encoder_shape_algebra_400_to_25(self, rng):
        # four conv/pool halvings then a width-1 collapse: 400 -> 25 x 1 channel
        layers = []
        c_in = 1
        for c_out in (16, 32, 64, 128):
            layers += [Conv1d(c_in, c_out, 5, rng=rng), BatchNorm1d(c_out), ReLU(),
                       MaxPool1d()]
            c_in = c_out
        layers.append(Conv1d(c_in, 1, 1, rng=rng))
        seq = Sequential(layers)
        out = seq(Tensor(rng.standard_normal((2, 1, 400)).astype(np.float32)), train=True)
        assert out.data.shape == (2, 1, 25)


def _other_chain(seed: int) -> list:
    """A chain that is not the model's: 3 input channels, an odd length, k=3 and k=1 convs."""
    rng = np.random.default_rng(seed)
    return [Conv1d(3, 8, 5, rng=rng), BatchNorm1d(8), ReLU(), MaxPool1d(),
            Conv1d(8, 4, 3, rng=rng), BatchNorm1d(4), ReLU(),
            UpsampleNearest1d(), Conv1d(4, 2, 1, rng=rng)]


def _model_chain(name: str, seed: int) -> list:
    return getattr(VaeModel.build(seed=seed), name).layers


def _c_order_nodes(monkeypatch) -> None:
    """Make every op output, and every gradient a backward closure gets, a C-order copy."""
    node = ad._node

    def c_order_node(data, parents, bwd, op):
        c_bwd = None if bwd is None else (lambda g: bwd(np.ascontiguousarray(g)))
        return node(np.ascontiguousarray(data), parents, c_bwd, op)

    monkeypatch.setattr(ad, "_node", c_order_node)


def _tape(out: Tensor) -> list[Tensor]:
    """Every op output recorded on the tape behind `out`, `out` included."""
    return [t for t in graph_nodes(out) if t.op != "leaf"]


class TestChannelMajorChains:
    """Conv chains run channel-major in memory; [B,C,L] is the only layout in shape."""

    @pytest.mark.parametrize("chain,in_shape", [
        ("enc_conv", (6, 1, 400)), ("dec_conv", (6, 1, 25)), ("other", (5, 3, 37)),
    ])
    @pytest.mark.parametrize("train", [True, False])
    def test_sequential_matches_layer_by_layer_bitwise(self, chain, in_shape, train,
                                                       monkeypatch):
        # oracle: the layers one by one, with every array forced to C order; only an
        # upsampling and the conv after it run as their one op (its own oracle is in
        # test_kernels), and batch norm and ReLU stay apart
        build = _other_chain if chain == "other" else (lambda s: _model_chain(chain, s))
        rng = np.random.default_rng(5)
        x = rng.standard_normal(in_shape).astype(np.float32)

        def run(forward, layers):
            xt = Tensor(x, requires_grad=True)
            out = forward(xt)
            g = np.random.default_rng(6).standard_normal(out.data.shape).astype(np.float32)
            ad.reduce_sum(out * Tensor(g)).backward()
            params = [p.grad for layer in layers for _, p in layer.named_parameters()]
            state = [a for layer in layers for _, a in layer.named_state()]
            return [out.data, xt.grad] + params + state

        def one_by_one(layers):
            def forward(xt):
                i = 0
                while i < len(layers):
                    layer, nxt = layers[i], (layers + [None])[i + 1]
                    if isinstance(layer, UpsampleNearest1d) and isinstance(nxt, Conv1d):
                        xt = ad.conv1d(xt, nxt.weight, nxt.bias, layer.factor)
                        i += 2
                    else:
                        xt = layer(xt, train=train)
                        i += 1
                return xt
            return forward

        seq_layers, ref_layers, c_layers = build(11), build(11), build(11)
        seq = Sequential(seq_layers)
        got = run(lambda xt: seq(xt, train=train), seq_layers)
        want = run(one_by_one(ref_layers), ref_layers)
        with monkeypatch.context() as m:
            _c_order_nodes(m)
            c_order = run(one_by_one(c_layers), c_layers)
        assert len(got) == len(want) == len(c_order)
        for a, b, c in zip(got, want, c_order):
            assert a.shape == b.shape == c.shape
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("chain,in_shape", [("enc_conv", (4, 1, 400)),
                                                ("dec_conv", (4, 1, 25))])
    def test_rank3_op_outputs_stay_channel_major(self, chain, in_shape):
        seq = getattr(VaeModel.build(seed=3), chain)
        x = np.random.default_rng(7).standard_normal(in_shape).astype(np.float32)
        for train in (True, False):
            out = seq(Tensor(x, requires_grad=True), train=train)
            nodes = [t for t in _tape(out) if t.data.ndim == 3 and t.data.shape[1] >= 2]
            # backward() drops interior grads, so record each gradient as its closure gets it
            grads = {}
            if train:
                for t in nodes:
                    def record(g, t=t, bwd=t._backward):
                        grads[id(t)] = g
                        bwd(g)
                    t._backward = record
                ad.reduce_sum(out).backward()
            checked = 0
            for t in nodes:
                arrays = {"data": t.data, "grad": grads.get(id(t))} if train else {"data": t.data}
                for what, a in arrays.items():
                    assert a is not None, f"{t.op} {t.data.shape} has no {what}"
                    assert a.swapaxes(0, 1).flags.c_contiguous, \
                        f"{t.op} {t.data.shape} {what} fell back from channel-major"
                checked += 1
            assert checked >= 6

    def test_train_tape_runs_each_upsample_conv_pair_as_one_op(self):
        seq = VaeModel.build(seed=3).dec_conv
        x = np.random.default_rng(8).standard_normal((4, 1, 25)).astype(np.float32)
        nodes = _tape(seq(Tensor(x, requires_grad=True), train=True))
        ops = [t.op for t in nodes]
        convs = [t for t in nodes if t.op == "conv1d"]
        # the first conv reads the 25-wide code; each of the other three doubles its input
        assert [t.data.shape[2] // t._parents[0].data.shape[2] for t in convs].count(2) == 3
        assert len(convs) == 4
        # the chain's last upsampling has no conv after it and stays its own op
        assert ops.count("upsample1d") == 1 and nodes[0].op == "upsample1d"
        fed = {id(p) for t in convs for p in t._parents}
        assert not any(t.op == "upsample1d" and id(t) in fed for t in nodes)


@pytest.fixture(scope="module")
def trained() -> VaeModel:
    """The default model after 2 epochs on Gaussian bumps: running statistics moved off 0 and 1."""
    rng = np.random.default_rng(21)
    t = np.arange(400, dtype=np.float64)
    centers = rng.uniform(120, 280, size=(160, 1))
    cycles = rng.uniform(0.5, 1.5, size=(160, 1)) * np.exp(-0.5 * ((t - centers) / 12.0) ** 2)
    model, _ = train(cycles.astype(np.float32), TrainConfig(seed=4, epochs=2, batch_size=32))
    return model


def _one_by_one(layers: list, x: np.ndarray) -> np.ndarray:
    """The eval chain as each layer's own op, with the tape off."""
    t = Tensor(x)
    with ad.recording(False):
        for layer in layers:
            t = layer(t)
    return t.data


def _fused(seq: Sequential, x: np.ndarray) -> np.ndarray:
    with ad.recording(False):
        out = seq(Tensor(x))
    assert out.op == "sequential", "the fused pass did not run"
    return out.data


def _assert_close(got: np.ndarray, want: np.ndarray, rel: float = 1e-5) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestFusedEval:
    """With the tape off, an eval-mode chain runs as one numpy pass: batch norms folded
    into the conv or dense before them, an upsampling folded into the conv after it."""

    @pytest.mark.parametrize("chain,width", [("enc_conv", (1, 400)), ("enc_dense", (400,)),
                                             ("dec_dense", (25,)), ("dec_conv", (1, 25))])
    @pytest.mark.parametrize("batch", [1, 10, 256])
    def test_matches_the_layers_one_by_one(self, trained, chain, width, batch):
        seq = getattr(trained, chain)
        norms = [layer for layer in seq.layers if isinstance(layer, BatchNorm1d)]
        assert norms and all((n.running_var != 1).any() and (n.running_mean != 0).any()
                             for n in norms)
        x = np.random.default_rng(batch).standard_normal((batch,) + width).astype(np.float32)
        _assert_close(_fused(seq, x), _one_by_one(seq.layers, x))

    @pytest.mark.parametrize("batch", [1, 10, 256])
    def test_other_chain_matches_the_layers_one_by_one(self, batch):
        layers = _other_chain(8)
        rng = np.random.default_rng(9)
        for _ in range(3):  # move the running statistics off 0 and 1
            Sequential(layers)(Tensor(2.0 * rng.standard_normal((16, 3, 37)).astype(np.float32)
                                      + 0.5), train=True)
        assert all((n.running_var != 1).all() for n in layers if isinstance(n, BatchNorm1d))
        x = rng.standard_normal((batch, 3, 37)).astype(np.float32)
        _assert_close(_fused(Sequential(layers), x), _one_by_one(layers, x))

    def test_runs_only_in_eval_with_the_tape_off(self, trained):
        x = Tensor(np.random.default_rng(2).standard_normal((3, 1, 25)).astype(np.float32))
        assert trained.dec_conv(x).op == "upsample1d"  # tape on: the per-op path
        with ad.recording(False):
            assert trained.dec_conv(x).op == "sequential"
            assert trained.dec_conv(x, train=True).op == "upsample1d"

    def test_non_finite_fold_falls_back_to_the_per_op_result(self):
        # w' = w * s overflows float32 where w @ x and the normalization after it do not
        dense = Dense(1, 1, rng=np.random.default_rng(0))
        dense.weight.data[...] = 1e38
        norm = BatchNorm1d(1)
        norm.gamma.data[...] = 10.0
        layers = [dense, norm, ReLU()]
        x = np.full((2, 1), 1e-30, dtype=np.float32)
        with ad.recording(False):
            out = Sequential(layers)(Tensor(x))
        assert out.op == "batch_norm"
        np.testing.assert_array_equal(out.data, _one_by_one(layers, x))
        assert np.isfinite(out.data).all()

    def test_minus_inf_before_a_relu_is_not_zeroed_away(self):
        dense = Dense(2, 2, rng=np.random.default_rng(0))
        dense.weight.data[0, 0] = -np.inf
        with ad.recording(False), pytest.raises(NumericsError, match="'dense'"):
            Sequential([dense, BatchNorm1d(2), ReLU()])(Tensor(np.ones((3, 2), dtype=np.float32)))

    def test_input_a_layer_refuses_still_raises_its_error(self, trained):
        with ad.recording(False):
            with pytest.raises(DimensionError, match="conv1d: input has 2 channels"):
                trained.dec_conv(Tensor(np.zeros((2, 2, 25), dtype=np.float32)))
            with pytest.raises(DimensionError, match="pool width 2 exceeds input length 1"):
                Sequential([MaxPool1d()])(Tensor(np.zeros((2, 3, 1), dtype=np.float32)))


def _kinds(seq: Sequential) -> list[tuple]:
    return [tuple(None if layer is None else type(layer).__name__ for layer in step)
            for step in seq.steps]


class TestStepList:
    """Sequential groups its layers into (up, layer, norm, relu) steps once, and both the
    per-op path and the fused pass run them."""

    def test_default_chains(self):
        model = VaeModel.build(seed=0)
        conv, dense = ((None, kind, "BatchNorm1d", "ReLU") for kind in ("Conv1d", "Dense"))
        up_conv = ("UpsampleNearest1d", "Conv1d", "BatchNorm1d", "ReLU")
        alone = {kind: (None, kind, None, None)
                 for kind in ("Conv1d", "MaxPool1d", "UpsampleNearest1d")}
        assert _kinds(model.enc_conv) == [conv, alone["MaxPool1d"]] * 4 + [alone["Conv1d"]]
        assert _kinds(model.enc_dense) == [dense] * 3
        assert _kinds(model.dec_dense) == [dense] * 4
        assert _kinds(model.dec_conv) == [conv] + [up_conv] * 3 + [alone["UpsampleNearest1d"]]
        for chain in ("enc_conv", "enc_dense", "dec_dense", "dec_conv"):
            seq = getattr(model, chain)
            assert [layer for step in seq.steps for layer in step if layer is not None] \
                == seq.layers

    @pytest.mark.parametrize("layers,at,kind", [
        (lambda rng: [BatchNorm1d(3)], 0, "BatchNorm1d"),
        (lambda rng: [ReLU()], 0, "ReLU"),
        (lambda rng: [Conv1d(3, 4, 3, rng=rng), BatchNorm1d(5)], 1, "BatchNorm1d"),
        (lambda rng: [Dense(3, 4, rng=rng), ReLU()], 1, "ReLU"),
        (lambda rng: [Dense(3, 4, rng=rng), BatchNorm1d(4), ReLU(), ReLU()], 3, "ReLU"),
        (lambda rng: [Conv1d(3, 4, 3, rng=rng), MaxPool1d(), BatchNorm1d(4)], 2, "BatchNorm1d"),
        (lambda rng: [UpsampleNearest1d(), BatchNorm1d(3), ReLU()], 1, "BatchNorm1d"),
    ])
    def test_norms_and_relus_out_of_place_are_refused(self, layers, at, kind):
        # the layer table puts each norm after the conv or dense of its width, each ReLU
        # after such a norm; any other place is refused before anything runs
        with pytest.raises(ValueError, match=rf"^layer {at} \({kind}\) is misplaced: "):
            Sequential(layers(np.random.default_rng(0)))

    def test_training_loss_records_the_grouped_ops(self):
        loss = training_loss(VaeModel.build(seed=0))
        assert Counter(t.op for t in _tape(loss)) == {
            "batch_norm": 15, "dense": 10, "conv1d": 9, "maxpool1d": 4, "reshape": 4,
            "mul": 4, "add": 3, "sub": 3, "concat": 2, "exp": 2, "square": 2,
            "upsample1d": 1, "mean": 1, "sum": 1}
        assert len(graph_nodes(loss)) == 135  # perfbench's autodiff.tape_nodes

    def test_refused_input_raises_from_the_fused_pass(self, trained, monkeypatch):
        fused = Sequential._fused_eval

        def no_rerun(seq, x):
            y = fused(seq, x)
            assert y is not None, "the chain reran op by op"
            return y

        monkeypatch.setattr(Sequential, "_fused_eval", no_rerun)
        with ad.recording(False):
            with pytest.raises(DimensionError, match="conv1d: input has 2 channels"):
                trained.dec_conv(Tensor(np.zeros((2, 2, 25), dtype=np.float32)))
            with pytest.raises(DimensionError, match="pool width 2 exceeds input length 1"):
                Sequential([MaxPool1d()])(Tensor(np.zeros((2, 3, 1), dtype=np.float32)))


def test_he_uniform_respects_fan_in():
    rng = np.random.default_rng(0)
    w = he_uniform(rng, (1000,), fan_in=6, dtype=np.float32)
    assert np.abs(w).max() <= 1.0
    assert np.abs(w).max() > 0.9  # should fill the [-1, 1] range for fan_in 6
