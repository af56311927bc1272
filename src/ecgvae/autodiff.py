"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus a backward closure and its parents; calling
backward() on a scalar loss walks the recorded graph in reverse topological
order and accumulates gradients into every tensor that requires them.
Gradient accumulation is additive on purpose: a tensor consumed by two ops
receives the sum of both contributions.

The op set is exactly what the encoder/decoder stack needs, nothing more.
Layers that would take many primitive nodes are single ops with a closed-form
backward: batch_norm (with an optional fused ReLU) is one node, and conv1d
keeps its im2col columns from the forward pass for the backward pass.
Each op checks its own output for NaN/Inf once and raises NumericsError
immediately, which keeps a diverging training run from silently poisoning
later epochs; overflow inside an op is silenced and surfaces through that
check. Arrays are float32 or float64; reductions accumulate in float64 and
cast back.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .errors import DimensionError, NumericsError, StateError

_ALLOWED_DTYPES = (np.float32, np.float64)


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced by op '{op}'")
    return arr


class Tensor:
    """Node in the computation graph: value, optional grad, backward hook."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        *,
        _parents: tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        op: str = "leaf",
    ):
        arr = np.asarray(data)
        if arr.dtype not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = _parents
        self._backward = _backward

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, dtype={self.data.dtype})"

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    # -- graph --------------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise StateError("backward() requires a scalar loss tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def exp(self):
        return exp(self)

    def square(self):
        return square(self)

    def relu(self):
        return relu(self)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)


def _coerce(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _match_dtypes(a: Tensor, b: Tensor, op: str) -> None:
    if a.dtype != b.dtype:
        raise ValueError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _channel_sum(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Float64 sum of a (or of a * b) over every axis but the channel axis 1."""
    if a.ndim == 3:
        # einsum sums each length-L row in float32 SIMD lanes; rows add in float64
        rows = np.einsum("bcl->bc", a) if b is None else np.einsum("bcl,bcl->bc", a, b)
    else:
        rows = a if b is None else a * b
    return rows.sum(axis=0, dtype=np.float64)


def _node(data: np.ndarray, parents: Sequence[Tensor], bwd, op: str) -> Tensor:
    _check_finite(data, op)
    req = any(p.requires_grad for p in parents)
    return Tensor(
        data,
        requires_grad=req,
        _parents=tuple(parents),
        _backward=bwd if req else None,
        op=op,
    )


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a, b = b, a
    b = _coerce(b, a.dtype)
    _match_dtypes(a, b, "add")
    out_data = a.data + b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), bwd, "add")


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b, a.dtype)
    _match_dtypes(a, b, "sub")

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _node(a.data - b.data, (a, b), bwd, "sub")


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a.dtype)
    _match_dtypes(a, b, "mul")

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bwd, "mul")


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow becomes a NumericsError below
        out_data = np.exp(x.data)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * out_data)

    return _node(out_data, (x,), bwd, "exp")


def square(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow becomes a NumericsError below
        out_data = x.data * x.data

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * (2.0 * x.data))

    return _node(out_data, (x,), bwd, "square")


def powf(x: Tensor, p: float) -> Tensor:
    """x ** p for strictly positive x."""
    out_data = np.power(x.data, p)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * (p * np.power(x.data, p - 1.0)))

    return _node(out_data, (x,), bwd, "powf")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * mask)

    # a multiply, not np.where: an unpredictable mask makes where several times slower
    return _node(x.data * mask, (x,), bwd, "relu")


# ---------------------------------------------------------------------------
# reductions and shape ops


def _norm_axes(axis, ndim: int):
    if axis is None:
        return None
    if not isinstance(axis, tuple):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(x.dtype)
    axes = _norm_axes(axis, x.data.ndim)

    def bwd(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gg = g
        if axes is not None and not keepdims:
            gg = np.expand_dims(gg, axes)
        x._accumulate(np.broadcast_to(gg, x.data.shape))

    return _node(out_data, (x,), bwd, "sum")


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = x.data.mean(axis=axis, keepdims=keepdims, dtype=np.float64).astype(x.dtype)
    axes = _norm_axes(axis, x.data.ndim)
    count = x.data.size if axes is None else int(np.prod([x.data.shape[a] for a in axes]))
    inv = 1.0 / count

    def bwd(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gg = g * g.dtype.type(inv)
        if axes is not None and not keepdims:
            gg = np.expand_dims(gg, axes)
        x._accumulate(np.broadcast_to(gg, x.data.shape))

    return _node(out_data, (x,), bwd, "mean")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out_data = x.data.reshape(shape)
    except ValueError as e:
        raise DimensionError(f"reshape: cannot view {x.data.shape} as {shape}") from e

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g.reshape(x.data.shape))

    return _node(out_data, (x,), bwd, "reshape")


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    if not parts:
        raise DimensionError("concat needs at least one tensor")
    ref = parts[0]
    for p in parts[1:]:
        _match_dtypes(ref, p, "concat")
        if len(p.data.shape) != len(ref.data.shape):
            raise DimensionError("concat: rank mismatch")
    try:
        out_data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as e:
        raise DimensionError(f"concat: incompatible shapes {[p.data.shape for p in parts]}") from e
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum([0] + sizes)

    def bwd(g: np.ndarray) -> None:
        sl = [slice(None)] * g.ndim
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            if p.requires_grad:
                sl[axis] = slice(int(lo), int(hi))
                p._accumulate(g[tuple(sl)])

    return _node(out_data, tuple(parts), bwd, "concat")


# ---------------------------------------------------------------------------
# linear / convolutional ops


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map y = x @ w.T + b with x [B,n], w [m,n], b [m]."""
    if x.data.ndim != 2:
        raise DimensionError(f"dense expects rank-2 input, got shape {x.data.shape}")
    if w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise DimensionError(
            f"dense: input width {x.data.shape} does not match weight {w.data.shape}"
        )

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g @ w.data)
        if w.requires_grad:
            w._accumulate(g.T @ x.data)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _node(x.data @ w.data.T + b.data, (x, w, b), bwd, "dense")


def conv1d(x: Tensor, w: Tensor, b: Optional[Tensor] = None, stride: int = 1) -> Tensor:
    """Zero-padded 1-d cross-correlation over [B,C,L] with optional bias."""
    if x.data.ndim != 3:
        raise DimensionError(f"conv1d expects rank-3 input, got shape {x.data.shape}")
    if w.data.ndim != 3:
        raise DimensionError(f"conv1d weight must be rank-3, got {w.data.shape}")
    if w.data.shape[2] % 2 != 1:
        raise ValueError(f"conv1d kernel width must be odd, got {w.data.shape[2]}")
    if stride < 1:
        raise ValueError(f"conv1d stride must be >= 1, got {stride}")
    if x.data.shape[1] != w.data.shape[1]:
        raise DimensionError(
            f"conv1d: input has {x.data.shape[1]} channels, weight expects {w.data.shape[1]}"
        )
    cols = kernels.im2col(x.data, w.data.shape[2], stride)
    y = kernels.conv1d_cols(cols, w.data, x.data.shape[0], None if b is None else b.data)
    parents = (x, w) if b is None else (x, w, b)

    def bwd(g: np.ndarray) -> None:
        dx, dw = kernels.conv1d_cols_bwd(cols, w.data, g, x.data.shape[2], stride,
                                         need_dx=x.requires_grad)
        if x.requires_grad:
            x._accumulate(dx)
        if w.requires_grad:
            w._accumulate(dw)
        if b is not None and b.requires_grad:
            b._accumulate(_channel_sum(g).astype(g.dtype))

    return _node(y, parents, bwd, "conv1d")


def maxpool1d(x: Tensor, width: int = 2) -> Tensor:
    """Non-overlapping max pool along the last axis of [B,C,L]."""
    if x.data.ndim != 3:
        raise DimensionError(f"maxpool1d expects rank-3 input, got shape {x.data.shape}")
    if width < 1:
        raise ValueError(f"pool width must be >= 1, got {width}")
    if width > x.data.shape[2]:
        raise DimensionError(
            f"pool width {width} exceeds input length {x.data.shape[2]}"
        )
    y, route = kernels.maxpool1d_fwd(x.data, width)
    length = x.data.shape[2]

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(kernels.maxpool1d_bwd(g, route, length))

    return _node(y, (x,), bwd, "maxpool1d")


def upsample1d(x: Tensor, factor: int = 2) -> Tensor:
    """Nearest-neighbor repeat along the last axis of [B,C,L]."""
    if x.data.ndim != 3:
        raise DimensionError(f"upsample1d expects rank-3 input, got shape {x.data.shape}")
    if factor < 1:
        raise ValueError(f"upsample factor must be >= 1, got {factor}")

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            # adding strided slices beats a sum over a short trailing axis ~20x
            gx = g[:, :, 0::factor].copy()
            for j in range(1, factor):
                gx += g[:, :, j::factor]
            x._accumulate(gx)

    return _node(np.repeat(x.data, factor, axis=2), (x,), bwd, "upsample1d")


# ---------------------------------------------------------------------------
# normalization


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    eps: float,
    running: Optional[tuple[np.ndarray, np.ndarray]] = None,
    relu: bool = False,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Per-channel normalization of [B,C] or [B,C,L], scaled by gamma [C], shifted by beta [C].

    With `running` None, x is normalized by its own batch mean and population
    variance over every axis but 1, and the gradient flows through both in
    closed form (Ioffe & Szegedy 2015). With running = (mean, var) those are
    constants. `relu` applies max(., 0) to the output inside the same op.
    Returns the output and the mean and variance used, in x's dtype.
    """
    xd = x.data
    if xd.ndim not in (2, 3):
        raise DimensionError(f"batch_norm needs rank 2 or 3 input, got shape {xd.shape}")
    c = gamma.data.shape[0]
    if xd.shape[1] != c:
        raise DimensionError(f"batch_norm: expected {c} channels, got shape {xd.shape}")
    _match_dtypes(x, gamma, "batch_norm")
    shape = (1, c) + (1,) * (xd.ndim - 2)
    n = xd.size // c
    with np.errstate(over="ignore", invalid="ignore"):  # overflow becomes a NumericsError
        if running is None:
            if xd.shape[0] < 2:
                raise DimensionError(
                    "train-mode batch_norm needs batch size >= 2 to estimate variance"
                )
            mean = (_channel_sum(xd) / n).astype(xd.dtype)
            xc = xd - mean.reshape(shape)
            var = (_channel_sum(xc, xc) / n).astype(xd.dtype)
            # an infinite variance would scale every output to beta, past the output check
            _check_finite(var, "batch_norm")
        else:
            mean, var = (np.asarray(s, dtype=xd.dtype) for s in running)
            xc = xd - mean.reshape(shape)
        inv_std = (var + eps) ** -0.5
        scale = gamma.data * inv_std
        y = xc * scale.reshape(shape)
        y += beta.data.reshape(shape)
        if relu:
            mask = y > 0
            y *= mask  # unlike np.maximum this turns -inf into NaN, which the check sees

    def bwd(g: np.ndarray) -> None:
        if relu:
            g = g * mask
        gsum = _channel_sum(g)
        gxc = _channel_sum(g, xc) if gamma.requires_grad or running is None else None
        if beta.requires_grad:
            beta._accumulate(gsum.astype(xd.dtype))
        if gamma.requires_grad:
            gamma._accumulate((gxc * inv_std).astype(xd.dtype))
        if not x.requires_grad:
            return
        dx = g * scale.reshape(shape)
        if running is None:
            # dx = scale * (g - mean(g) - xhat * mean(g * xhat)), xhat = xc * inv_std
            dx -= (scale * gsum / n).astype(xd.dtype).reshape(shape)
            dx -= xc * (scale * inv_std * inv_std * gxc / n).astype(xd.dtype).reshape(shape)
        x._accumulate(dx)

    return _node(y, (x, gamma, beta), bwd, "batch_norm"), mean, var
