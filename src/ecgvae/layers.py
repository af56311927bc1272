"""Network building blocks on top of the autodiff ops.

Layers own Parameter tensors (He-uniform initialized from a caller-supplied
Generator); the model's layer table (model.layer_table) names each layer by
its class and constructor arguments. The fixed settings are class
constants: BatchNorm1d's momentum 0.1 and eps 1e-5, MaxPool1d's width 2 and
UpsampleNearest1d's factor 2. Conv1d runs with stride 1.
BatchNorm1d is one autodiff op; it normalizes with the population variance
(divide by N) and keeps float32 running statistics updated only on
train-mode calls.

Every layer takes and gives [B, C, L] (or [B, F]). A conv chain runs
channel-major in memory: Conv1d's output is a [B, C, L] view of [C, B, L]
memory, and the layers after it keep that memory order.

Sequential reads its layer list once, at construction, into steps (up,
layer, norm, relu): a Conv1d or Dense with the BatchNorm1d of its width
after it and a ReLU after that, and an UpsampleNearest1d right before a
Conv1d as that conv's up. Any other layer is a step of its own. That is the
only order the layer table writes, so a misplaced norm or ReLU is refused at
construction: a BatchNorm1d that does not follow a Conv1d or Dense of its
width, or a ReLU that does not follow such a norm, raises ValueError naming
its index and kind. The layer list, and with it the checkpoint layout, stays
as written. Each conv step is one conv call with its up's factor, or factor
1 with no up: a plain conv is the factor-1 polyphase convolution, and above
1 the upsampled activation is never formed. Op by op (training, or the tape
on) that call is ad.conv1d, and a norm runs as one batch_norm op with its
ReLU fused in. In eval mode with the tape off (model.encode/decode), the
steps run as one numpy pass, where the call is kernels.conv1d_fwd: each norm
folds into its conv or dense, w' = w * s and b' = (b - mean) * s + beta with
s = gamma / sqrt(var + eps) as batch_norm computes it (refolded on every
call, so no weight is cached), the ReLU runs in place, and each layer checks
its input by its op's own rule (ad.check_*), so a refused input raises the
op's error. Only the chain's output is checked for NaN/Inf. The fused pass
falls back for two reasons, a non-finite output or a parameter dtype other
than the input's: then the chain runs op by op, which returns its result or
raises the error that names the op. The fused result matches the per-op one
to about 1e-6 relative.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor


class Parameter(Tensor):
    """Trainable tensor; always requires grad."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Layer:
    """Minimal layer interface; stateless layers override only forward."""

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor, train: bool = False) -> Tensor:
        return self.forward(x, train=train)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return []

    def named_state(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return []


class Dense(Layer):
    """Affine layer y = x W^T + b for rank-2 inputs."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator,
                 dtype=np.float32):
        if in_features < 1 or out_features < 1:
            raise ValueError("Dense sizes must be positive")
        self.weight = Parameter(he_uniform(rng, (out_features, in_features), in_features, dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return ad.dense(x, self.weight, self.bias)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return [(f"{prefix}weight", self.weight), (f"{prefix}bias", self.bias)]


class Conv1d(Layer):
    """Same-padded 1-d convolution (cross-correlation) with bias."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 rng: np.random.Generator, dtype=np.float32):
        if kernel_size % 2 != 1:
            raise ValueError(f"kernel_size must be odd, got {kernel_size}")
        if in_channels < 1 or out_channels < 1:
            raise ValueError("channel counts must be positive")
        fan_in = in_channels * kernel_size
        self.weight = Parameter(
            he_uniform(rng, (out_channels, in_channels, kernel_size), fan_in, dtype)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return ad.conv1d(x, self.weight, self.bias)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return [(f"{prefix}weight", self.weight), (f"{prefix}bias", self.bias)]


class BatchNorm1d(Layer):
    """Batch normalization for [B,F] or [B,C,L] inputs.

    Train mode normalizes with the current batch's mean and population
    variance and folds them into the running statistics; eval mode uses the
    running statistics as constants. gamma and beta stay in the graph in both
    modes so their gradients always flow.
    """

    momentum = 0.1  # weight of the current batch in the running statistics
    eps = 1e-5

    def __init__(self, num_features: int, *, dtype=np.float32):
        if num_features < 1:
            raise ValueError("num_features must be positive")
        self.gamma = Parameter(np.ones(num_features, dtype=dtype))
        self.beta = Parameter(np.zeros(num_features, dtype=dtype))
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)

    def forward(self, x: Tensor, train: bool = False, relu: bool = False) -> Tensor:
        running = None if train else (self.running_mean, self.running_var)
        out, mean, var = ad.batch_norm(x, self.gamma, self.beta, self.eps, running, relu=relu)
        if train:
            m = self.momentum
            self.running_mean = (
                (1.0 - m) * self.running_mean + m * mean.astype(np.float32)
            ).astype(np.float32)
            self.running_var = (
                (1.0 - m) * self.running_var + m * var.astype(np.float32)
            ).astype(np.float32)
        return out

    def eval_scale(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        """(scale, mean) of the eval map y = (x - mean) * scale + beta, in batch_norm's order."""
        mean, var = (np.asarray(s, dtype=dtype) for s in (self.running_mean, self.running_var))
        return self.gamma.data * (var + self.eps) ** -0.5, mean

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return [(f"{prefix}gamma", self.gamma), (f"{prefix}beta", self.beta)]

    def named_state(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return [(f"{prefix}running_mean", self.running_mean),
                (f"{prefix}running_var", self.running_var)]

class ReLU(Layer):
    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return ad.relu(x)


class MaxPool1d(Layer):
    width = 2

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return ad.maxpool1d(x, self.width)


class UpsampleNearest1d(Layer):
    factor = 2

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return ad.upsample1d(x, self.factor)


class Sequential(Layer):
    """Applies layers in order, threading the train flag through.

    In eval mode with the tape off the chain runs as one fused numpy pass
    (see the module docstring); otherwise each step runs as its ops.
    """

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)
        self.steps = _steps(self.layers)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        if not train and not ad.is_recording():
            y = self._fused_eval(x.data)
            if y is not None:
                return Tensor(y, op="sequential")
        for up, layer, norm, relu in self.steps:
            if isinstance(layer, Conv1d):
                x = ad.conv1d(x, layer.weight, layer.bias, 1 if up is None else up.factor)
            else:
                x = layer(x, train=train)
            if norm is not None:
                x = norm.forward(x, train=train, relu=relu is not None)
        return x

    def _fused_eval(self, x: np.ndarray) -> Optional[np.ndarray]:
        """The eval-mode chain on x as one numpy pass; None where the per-op path must run.

        That is a parameter dtype that differs from x's (the per-op path
        mixes dtypes as its ops do), or a non-finite output
        (the per-op path raises the NumericsError naming the op, or returns a
        finite result).
        """
        if any(p.data.dtype != x.dtype for _, p in self.named_parameters()):
            return None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for up, layer, norm, relu in self.steps:
                if isinstance(layer, MaxPool1d):
                    ad.check_pool(x, layer.width)
                    x = kernels.maxpool1d(x, layer.width)
                elif isinstance(layer, UpsampleNearest1d):
                    ad.check_upsample(x, layer.factor)
                    x = kernels.upsample1d(x, layer.factor)
                else:
                    w, b = layer.weight.data, layer.bias.data
                    if norm is not None:
                        scale, mean = norm.eval_scale(x.dtype)
                        w = w * scale.reshape((-1,) + (1,) * (w.ndim - 1))
                        b = (b - mean) * scale + norm.beta.data
                    if isinstance(layer, Dense):
                        ad.check_dense(x, w)
                        x = x @ w.T + b
                    else:
                        factor = 1 if up is None else up.factor
                        ad.check_conv(x, w, factor)
                        x = kernels.conv1d_fwd(x, w, bias=b, factor=factor)
                    if relu is not None:
                        x *= x > 0  # like batch_norm's fused ReLU: -inf becomes NaN, not 0
            if not np.isfinite(x).all():
                return None
        return x

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        out: list[tuple[str, Parameter]] = []
        for i, layer in enumerate(self.layers):
            out.extend(layer.named_parameters(f"{prefix}{i:02d}."))
        return out

    def named_state(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        out: list[tuple[str, np.ndarray]] = []
        for i, layer in enumerate(self.layers):
            out.extend(layer.named_state(f"{prefix}{i:02d}."))
        return out


def _steps(layers: list[Layer]) -> list[tuple]:
    """The chain's (up, layer, norm, relu) steps, as the module docstring describes them.

    ValueError, naming the layer's index and kind, for a BatchNorm1d that does not
    follow a Conv1d or Dense of its width, or a ReLU that does not follow such a norm.
    """
    steps, rest = [], list(layers)

    def take(kind, fits=lambda _: True) -> Optional[Layer]:
        return rest.pop(0) if rest and isinstance(rest[0], kind) and fits(rest[0]) else None

    while rest:
        up = take(UpsampleNearest1d, lambda _: len(rest) > 1 and isinstance(rest[1], Conv1d))
        at, layer = len(layers) - len(rest), rest.pop(0)
        if isinstance(layer, (BatchNorm1d, ReLU)):
            raise ValueError(f"layer {at} ({type(layer).__name__}) is misplaced: a BatchNorm1d "
                             "follows a Conv1d or Dense of its width, and a ReLU such a norm")
        norm = relu = None
        if isinstance(layer, (Conv1d, Dense)):
            norm = take(BatchNorm1d, lambda bn: bn.gamma.shape == layer.bias.shape)
            relu = take(ReLU) if norm is not None else None
        steps.append((up, layer, norm, relu))
    return steps
