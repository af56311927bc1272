"""Network building blocks on top of the autodiff ops.

Layers own Parameter tensors (He-uniform initialized from a caller-supplied
Generator); the model's layer table (model.layer_table) names each layer by
its class and constructor arguments. The fixed settings are class
constants: BatchNorm1d's momentum 0.1 and eps 1e-5, MaxPool1d's width 2 and
UpsampleNearest1d's factor 2. Conv1d runs with stride 1.
BatchNorm1d is one autodiff op; it normalizes with the population variance
(divide by N) and keeps float32 running statistics updated only on
train-mode calls. Sequential runs a BatchNorm1d directly followed by a ReLU
as that one op with the ReLU fused in, and an UpsampleNearest1d directly
followed by a Conv1d as one polyphase convolution (ad.upsample_conv1d), so
training never forms the upsampled activation; an upsampling with no conv
after it stays ad.upsample1d. The layer list, and with it the checkpoint
layout, stays as written.

Every layer takes and gives [B, C, L] (or [B, F]). A conv chain runs
channel-major in memory: Conv1d's output is a [B, C, L] view of [C, B, L]
memory, and the layers after it keep that memory order.

In eval mode with the tape off (model.encode/decode), Sequential runs its
chain as one numpy pass instead of op by op. Each Conv1d or Dense with a
BatchNorm1d after it is one affine map, w' = w * s and b' = (b - mean) * s +
beta with s = gamma / sqrt(var + eps) computed as batch_norm computes it;
the fold is redone on every call, so no weight is cached. A ReLU after it
runs in place. An UpsampleNearest1d before a Conv1d runs with it as
one polyphase convolution (kernels.upsample_conv1d_fwd), paired by the same
rule (_upsample_conv) as on the per-op path. Only the chain's
output is checked for NaN/Inf. If it is not finite, or if an input does not
fit a layer, the chain runs again op by op, which returns its result or
raises the error that names the op. The fused result matches the per-op one
to about 1e-6 relative; the parameters and the tape-on path do not change.
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
    (see the module docstring); otherwise each layer runs as its op.
    """

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        if not train and not ad.is_recording():
            y = self._fused_eval(x.data)
            if y is not None:
                return Tensor(y, op="sequential")
        layers, i = self.layers + [None], 0  # None: no layer after the last
        while i < len(self.layers):
            layer, nxt = layers[i], layers[i + 1]
            i += 1
            if _upsample_conv(layer, nxt):
                x = ad.upsample_conv1d(x, nxt.weight, nxt.bias, layer.factor)
                i += 1
            elif isinstance(layer, BatchNorm1d):
                relu = isinstance(nxt, ReLU)  # that ReLU runs inside the batch norm
                x = layer.forward(x, train=train, relu=relu)
                i += relu
            else:
                x = layer(x, train=train)
        return x

    def _fused_eval(self, x: np.ndarray) -> Optional[np.ndarray]:
        """The eval-mode chain on x as one numpy pass; None where the per-op path must run.

        That is a chain with a batch norm or ReLU that no conv or dense comes
        before, an input some layer would refuse or a dtype that differs from
        a parameter's (the per-op path raises the DimensionError, or mixes
        dtypes as its ops do), or a non-finite output (it raises the
        NumericsError naming the op, or returns a finite result).
        """
        if any(p.data.dtype != x.dtype for _, p in self.named_parameters()):
            return None
        layers, i = self.layers + [None], 0  # None: no layer after the last
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while i < len(self.layers):
                layer, i = layers[i], i + 1
                upsample = _upsample_conv(layer, layers[i])
                if upsample:
                    layer, i = layers[i], i + 1
                if not _takes(layer, x):
                    return None
                if isinstance(layer, (Dense, Conv1d)):
                    w, b = layer.weight.data, layer.bias.data
                    norm = layers[i]
                    if isinstance(norm, BatchNorm1d):
                        if norm.gamma.data.shape[0] != w.shape[0]:
                            return None
                        scale, mean = norm.eval_scale(x.dtype)
                        w = w * scale.reshape((-1,) + (1,) * (w.ndim - 1))
                        b = (b - mean) * scale + norm.beta.data
                        i += 1
                    if isinstance(layer, Dense):
                        x = x @ w.T + b
                    elif upsample:
                        x = kernels.upsample_conv1d_fwd(x, w, UpsampleNearest1d.factor, b)
                    else:
                        x = kernels.conv1d_fwd(x, w, bias=b)
                    if isinstance(layers[i], ReLU):
                        x *= x > 0  # like batch_norm's fused ReLU: -inf becomes NaN, not 0
                        i += 1
                elif isinstance(layer, MaxPool1d):
                    x = kernels.maxpool1d(x, layer.width)
                elif isinstance(layer, UpsampleNearest1d):
                    x = kernels.upsample1d(x, layer.factor)
                else:  # a batch norm or ReLU with no conv or dense before it
                    return None
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


def _upsample_conv(layer: Layer, nxt: Optional[Layer]) -> bool:
    """Whether `layer` and the one after it run as one polyphase upsample->conv op."""
    return isinstance(layer, UpsampleNearest1d) and isinstance(nxt, Conv1d)


def _takes(layer: Layer, x: np.ndarray) -> bool:
    """Whether `layer`'s op accepts x's rank and width, as its per-op checks would."""
    if isinstance(layer, Dense):
        return x.ndim == 2 and x.shape[1] == layer.weight.data.shape[1]
    if isinstance(layer, Conv1d):
        return x.ndim == 3 and x.shape[1] == layer.weight.data.shape[1]
    if isinstance(layer, MaxPool1d):
        return x.ndim == 3 and layer.width <= x.shape[2]
    if isinstance(layer, UpsampleNearest1d):
        return x.ndim == 3
    return True
