"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus a backward closure and its parents; calling
backward() on a scalar loss walks the recorded graph in reverse topological
order and accumulates gradients into every tensor that requires them.
A graph is backpropagated once. As the walk leaves an op node it drops the
node's closure, and with it what the closure held (im2col columns, masks,
pooling routes), and the node's gradient; so after backward() only leaves
hold gradients, and a second backward() through the node raises StateError.
Nodes keep their data and parents, so the graph can still be walked.
An op records itself on this tape only when one of its inputs requires grad
and recording is on; otherwise its output is a plain constant with no
parents. `recording(False)` turns the tape off for a block, and
`is_recording()` tells whether it is on. Eval-mode inference runs inside such
a block, so nothing of its graph stays alive; there the layer chains run as
one fused numpy pass (layers.Sequential), and only the joins and heads run
as ops.
Gradient accumulation is additive on purpose: a tensor consumed by two ops
receives the sum of both contributions.

The op set is exactly what the encoder/decoder stack and its losses need,
nothing more: reductions are over the full tensor, concat joins along axis 1,
conv1d always takes a bias, and a Tensor's only operators are +, - and *
with the Tensor on the left.
Layers that would take many primitive nodes are single ops with a closed-form
backward: batch_norm (with an optional fused ReLU) is one node, and conv1d
keeps its im2col columns from the forward pass for the backward pass.
conv1d takes an upsampling factor, 1 by default: above 1 it is a nearest
upsampling and the conv after it as one node, a polyphase convolution that
keeps the columns of the short input, so the upsampled activation is never
formed. Every conv is stride 1 and same-padded: its output is factor * L long.
Rank-3 tensors have one layout, [B,C,L], in shape; in memory the conv chains
run channel-major. conv1d returns a [B,C,L] view of the kernels' [C,B,L]
result, and every downstream op allocates like its input (numpy's
order="K"), so that memory order carries through batch norm, pooling and
upsampling and back through their gradients.
Each op checks its own output for NaN/Inf once and raises NumericsError
immediately, which keeps a diverging training run from silently poisoning
later epochs; overflow inside an op is silenced and surfaces through that
check. reshape alone skips it: its output is a view of its input's values,
which an earlier op has checked or, for a leaf, the next op's check sees (in
the model, the conv or dense op after it). Arrays are float32 or float64;
reductions accumulate in float64 and cast back.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
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
        """Backpropagate from this scalar through the recorded graph, and release it."""
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
            if node._backward is _released:
                raise StateError(f"backward() already ran through op '{node.op}'; "
                                 "build the graph again")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            # the closure held what only this walk needed (columns, masks, pool routes)
            node._backward = _released
            node.grad = None

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)


def _released(g: np.ndarray) -> None:
    """Stands in for the backward closure of a node that backward() has walked."""
    raise StateError("backward() already ran through this op; build the graph again")


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
        # einsum sums each length-L row in float32 SIMD lanes; the [B,C] rows add in
        # float64 one batch row at a time, in the same order for either memory order
        rows = np.einsum("bcl->bc", a) if b is None else np.einsum("bcl,bcl->bc", a, b)
    else:
        rows = a if b is None else a * b
    return rows.sum(axis=0, dtype=np.float64)


_recording: ContextVar[bool] = ContextVar("recording", default=True)  # per thread


def is_recording() -> bool:
    """Whether ops record the tape here (an enclosing `recording(False)` turns it off)."""
    return _recording.get()


@contextmanager
def recording(on: bool):
    """Record the tape inside the block only if `on`; an outer off still wins.

    Off, each op's backward closure and what it holds (im2col columns, ReLU
    masks, max pooling's route) are dropped as soon as the op returns.
    """
    token = _recording.set(is_recording() and on)
    try:
        yield
    finally:
        _recording.reset(token)


def _node(data: np.ndarray, parents: Sequence[Tensor], bwd, op: str,
          check: bool = True) -> Tensor:
    if check:
        _check_finite(data, op)
    if is_recording() and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=bwd, op=op)
    return Tensor(data, op=op)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b) -> Tensor:
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


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * mask)

    # a multiply, not np.where: an unpredictable mask makes where several times slower
    return _node(x.data * mask, (x,), bwd, "relu")


# ---------------------------------------------------------------------------
# reductions and shape ops


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of every element of x, as a 0-d tensor."""
    out_data = x.data.sum(dtype=np.float64).astype(x.dtype)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g, x.data.shape))

    return _node(out_data, (x,), bwd, "sum")


def reduce_mean(x: Tensor) -> Tensor:
    """Mean of every element of x, as a 0-d tensor."""
    out_data = x.data.mean(dtype=np.float64).astype(x.dtype)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g * g.dtype.type(1.0 / x.data.size), x.data.shape))

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

    # a view of x's values: checked already, or by the next op if x is a leaf
    return _node(out_data, (x,), bwd, "reshape", check=False)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors along axis 1 (features of [B,F], channels of [B,C,L])."""
    if not parts:
        raise DimensionError("concat needs at least one tensor")
    ref = parts[0]
    for p in parts[1:]:
        _match_dtypes(ref, p, "concat")
        if len(p.data.shape) != len(ref.data.shape):
            raise DimensionError("concat: rank mismatch")
    try:
        out_data = np.concatenate([p.data for p in parts], axis=1)
    except ValueError as e:
        raise DimensionError(f"concat: incompatible shapes {[p.data.shape for p in parts]}") from e
    bounds = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def bwd(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            if p.requires_grad:
                p._accumulate(g[:, lo:hi])

    return _node(out_data, tuple(parts), bwd, "concat")


# ---------------------------------------------------------------------------
# linear / convolutional ops. Each layer op's input rule is one function on
# arrays, which the op and the fused eval pass (layers.Sequential) both call.


def check_dense(x: np.ndarray, w: np.ndarray) -> None:
    if x.ndim != 2:
        raise DimensionError(f"dense expects rank-2 input, got shape {x.shape}")
    if w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise DimensionError(f"dense: input width {x.shape} does not match weight {w.shape}")


def check_conv(x: np.ndarray, w: np.ndarray, factor: int = 1) -> None:
    if x.ndim != 3:
        raise DimensionError(f"conv1d expects rank-3 input, got shape {x.shape}")
    if w.ndim != 3:
        raise DimensionError(f"conv1d weight must be rank-3, got {w.shape}")
    if w.shape[2] % 2 != 1:
        raise ValueError(f"conv1d kernel width must be odd, got {w.shape[2]}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(f"conv1d: input has {x.shape[1]} channels, "
                             f"weight expects {w.shape[1]}")
    if factor < 1:
        raise ValueError(f"conv1d upsampling factor must be >= 1, got {factor}")


def check_pool(x: np.ndarray, width: int) -> None:
    if x.ndim != 3:
        raise DimensionError(f"maxpool1d expects rank-3 input, got shape {x.shape}")
    if width < 1:
        raise ValueError(f"pool width must be >= 1, got {width}")
    if width > x.shape[2]:
        raise DimensionError(f"pool width {width} exceeds input length {x.shape[2]}")


def check_upsample(x: np.ndarray, factor: int) -> None:
    if x.ndim != 3:
        raise DimensionError(f"upsample1d expects rank-3 input, got shape {x.shape}")
    if factor < 1:
        raise ValueError(f"upsample factor must be >= 1, got {factor}")


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map y = x @ w.T + b with x [B,n], w [m,n], b [m]."""
    check_dense(x.data, w.data)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g @ w.data)
        if w.requires_grad:
            w._accumulate(g.T @ x.data)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _node(x.data @ w.data.T + b.data, (x, w, b), bwd, "dense")


def conv1d(x: Tensor, w: Tensor, b: Tensor, factor: int = 1) -> Tensor:
    """Zero-padded 1-d cross-correlation over [B,C,L] of x upsampled (nearest) by `factor`,
    plus a per-channel bias b [Co].

    Above factor 1 this is a polyphase convolution of x (see kernels): the
    upsampled input is never formed, and the columns kept for the backward
    pass are those of x. The output is a [B,C,factor*L] view of channel-major
    [C,B,factor*L] memory.
    """
    check_conv(x.data, w.data, factor)
    # the kernels take [C,B,L]; swapping axes 0 and 1 (a view) maps [B,C,L] there and back
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite becomes a NumericsError
        y, cols = kernels.conv1d_cols(x.data.swapaxes(0, 1), w.data, b.data, factor)

    def bwd(g: np.ndarray) -> None:
        dx, dw = kernels.conv1d_cols_bwd(cols, w.data, g.swapaxes(0, 1), factor,
                                         need_dx=x.requires_grad)
        if x.requires_grad:
            x._accumulate(dx.swapaxes(0, 1))
        if w.requires_grad:
            w._accumulate(dw)
        if b.requires_grad:
            b._accumulate(_channel_sum(g).astype(g.dtype))

    return _node(y.swapaxes(0, 1), (x, w, b), bwd, "conv1d")


def maxpool1d(x: Tensor, width: int = 2) -> Tensor:
    """Non-overlapping max pool along the last axis of [B,C,L]."""
    check_pool(x.data, width)
    y, route = kernels.maxpool1d_fwd(x.data, width)
    length = x.data.shape[2]

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(kernels.maxpool1d_bwd(g, route, length))

    return _node(y, (x,), bwd, "maxpool1d")


def upsample1d(x: Tensor, factor: int = 2) -> Tensor:
    """Nearest-neighbor repeat along the last axis of [B,C,L], in x's memory order."""
    check_upsample(x.data, factor)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            # adding strided slices beats a sum over a short trailing axis ~20x
            gx = g[:, :, 0::factor].copy(order="K")
            for j in range(1, factor):
                gx += g[:, :, j::factor]
            x._accumulate(gx)

    return _node(kernels.upsample1d(x.data, factor), (x,), bwd, "upsample1d")


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

    With `running` None, x is normalized by its own batch mean and
    population variance over every axis but the channel axis 1, and the
    gradient flows through both in closed form (Ioffe & Szegedy 2015). With running = (mean, var) those are
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
