"""Network building blocks on top of the autodiff ops.

Layers own Parameter tensors (He-uniform initialized from a caller-supplied
Generator); the model's layer table (model.layer_table) names each layer by
its class and constructor arguments.
BatchNorm1d is one autodiff op; it normalizes with the population variance
(divide by N) and keeps float32 running statistics updated only on
train-mode calls. Sequential runs a BatchNorm1d directly followed by a ReLU
as that one op with the ReLU fused in; the layer list, and with it the
checkpoint layout, stays as written.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
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

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 5,
                 stride: int = 1, *, rng: np.random.Generator, dtype=np.float32):
        if kernel_size % 2 != 1:
            raise ValueError(f"kernel_size must be odd, got {kernel_size}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if in_channels < 1 or out_channels < 1:
            raise ValueError("channel counts must be positive")
        self.stride = stride
        fan_in = in_channels * kernel_size
        self.weight = Parameter(
            he_uniform(rng, (out_channels, in_channels, kernel_size), fan_in, dtype)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return ad.conv1d(x, self.weight, self.bias, stride=self.stride)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return [(f"{prefix}weight", self.weight), (f"{prefix}bias", self.bias)]


class BatchNorm1d(Layer):
    """Batch normalization for [B,F] or [B,C,L] inputs.

    Train mode normalizes with the current batch's mean and population
    variance and folds them into the running statistics; eval mode uses the
    running statistics as constants. gamma and beta stay in the graph in both
    modes so their gradients always flow.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5,
                 *, dtype=np.float32):
        if num_features < 1:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum < 1.0:
            raise ValueError(f"momentum must be in (0, 1), got {momentum}")
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.momentum = momentum
        self.eps = eps
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

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return [(f"{prefix}gamma", self.gamma), (f"{prefix}beta", self.beta)]

    def named_state(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return [(f"{prefix}running_mean", self.running_mean),
                (f"{prefix}running_var", self.running_var)]

class ReLU(Layer):
    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return ad.relu(x)


class MaxPool1d(Layer):
    def __init__(self, width: int = 2):
        if width < 1:
            raise ValueError(f"pool width must be >= 1, got {width}")
        self.width = width

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return ad.maxpool1d(x, self.width)


class UpsampleNearest1d(Layer):
    def __init__(self, factor: int = 2):
        if factor < 1:
            raise ValueError(f"upsample factor must be >= 1, got {factor}")
        self.factor = factor

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return ad.upsample1d(x, self.factor)


class Sequential(Layer):
    """Applies layers in order, threading the train flag through."""

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        fused = False
        for layer, nxt in zip(self.layers, self.layers[1:] + [None]):
            if fused:  # this ReLU already ran inside the preceding batch norm
                fused = False
                continue
            fused = isinstance(layer, BatchNorm1d) and isinstance(nxt, ReLU)
            x = layer.forward(x, train=train, relu=True) if fused else layer(x, train=train)
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
