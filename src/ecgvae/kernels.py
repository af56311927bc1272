"""Hot numeric kernels: 1-d convolution and max pooling, in numpy.

Convolution goes through im2col (Chellapilla et al. 2006): the padded input
is unfolded once into a column matrix [Ci*K, B*Lout], after which the forward
pass is one matmul, and the backward pass is one matmul for dw plus one
matmul and a col2im fold for dx. The columns are channel-major with batch and
position last, so each transpose around the matmuls permutes outer axes only
and copies whole contiguous rows. autodiff keeps the forward columns for the
backward pass; conv1d_fwd/conv1d_bwd compose the same helpers for callers
that hold no columns.

Max pooling takes a running max over the `width` strided slices of each
window and records which slice won as a boolean route mask, so the backward
pass is `width` strided multiplies with no index arithmetic.

All kernels take rank-3 arrays [batch, channels, length] and are shape-blind
beyond that: validation lives in the calling layer code. Convolution is
cross-correlation (no kernel flip) with zero padding of (K - 1) // 2 on each
side, so an odd K at stride 1 preserves length and the output length is
ceil(L / stride) in general. Pooling is non-overlapping with a trailing
partial window dropped.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, recorded by the benchmarks."""
    return "numpy"


def conv_out_len(length: int, stride: int) -> int:
    return -(-length // stride)


# ---------------------------------------------------------------------------
# convolution


def im2col(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Unfold x [B,Ci,L] into columns [Ci*K, B*Lout] of its zero-padded copy.

    cols[i*K + kk, b*Lout + t] = xpad[b, i, t*stride + kk].
    """
    b, ci, length = x.shape
    lout = conv_out_len(length, stride)
    pad = (k - 1) // 2
    xp = np.zeros((b, ci, length + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + length] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)[:, :, ::stride][:, :, :lout]
    return np.ascontiguousarray(win.transpose(1, 3, 0, 2)).reshape(ci * k, b * lout)


def col2im(dcols: np.ndarray, shape: tuple[int, int, int], k: int, stride: int) -> np.ndarray:
    """Sum column gradients [Ci*K, B*Lout] back onto an input of `shape` [B,Ci,L]."""
    b, ci, length = shape
    lout = conv_out_len(length, stride)
    pad = (k - 1) // 2
    taps = dcols.reshape(ci, k, b, lout)
    dx = np.zeros(shape, dtype=dcols.dtype)
    dxt = dx.transpose(1, 0, 2)  # view in the columns' [Ci, B, L] order
    for kk in range(k):
        # output t reads input position t*stride + shift; skip the padding
        shift = kk - pad
        t0 = max(0, -(shift // stride))
        t1 = min(lout, (length - 1 - shift) // stride + 1)
        if t1 > t0:
            lo = t0 * stride + shift
            dxt[:, :, lo:lo + (t1 - t0 - 1) * stride + 1:stride] += taps[:, kk, :, t0:t1]
    return dx


def conv1d_cols(cols: np.ndarray, w: np.ndarray, batch: int,
                bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Convolution output [B,Co,Lout] from im2col columns, plus an optional bias [Co]."""
    co = w.shape[0]
    y = (w.reshape(co, -1) @ cols).reshape(co, batch, -1).transpose(1, 0, 2)
    out = np.empty(y.shape, dtype=y.dtype)
    if bias is None:
        np.copyto(out, y)
    else:
        np.add(y, bias[:, None], out=out)
    return out


def conv1d_cols_bwd(cols: np.ndarray, w: np.ndarray, dy: np.ndarray, length: int,
                    stride: int, need_dx: bool = True) -> tuple[Optional[np.ndarray], np.ndarray]:
    """(dx or None, dw) of conv1d_cols given its columns and upstream dy [B,Co,Lout]."""
    co, ci, k = w.shape
    b = dy.shape[0]
    dyc = np.ascontiguousarray(dy.transpose(1, 0, 2)).reshape(co, -1)
    dw = (dyc @ cols.T).reshape(w.shape)
    if not need_dx:
        return None, dw
    wm = w.reshape(co, ci * k)
    # OpenBLAS runs the rank-1 product of a single output channel ~10x slower
    # than the equivalent broadcast multiply
    dcols = wm.T * dyc if co == 1 else wm.T @ dyc
    return col2im(dcols, (b, ci, length), k, stride), dw


def conv1d_fwd(x: np.ndarray, w: np.ndarray, stride: int = 1) -> np.ndarray:
    """Zero-padded cross-correlation, x [B,Ci,L] * w [Co,Ci,K] -> [B,Co,ceil(L/s)]."""
    return conv1d_cols(im2col(x, w.shape[2], stride), w, x.shape[0])


def conv1d_bwd(
    x: np.ndarray, w: np.ndarray, stride: int, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (dx, dw) of conv1d_fwd given upstream dy [B,Co,Lout]."""
    return conv1d_cols_bwd(im2col(x, w.shape[2], stride), w, dy, x.shape[2], stride)


# ---------------------------------------------------------------------------
# max pooling


def maxpool1d_fwd(x: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping max over windows of `width`; trailing remainder dropped.

    Returns the pooled values [B,C,Lout] and a route mask [B,C,width,Lout]
    that is True at exactly one offset per window: the first maximum.
    """
    b, c, length = x.shape
    lout = length // width
    n = lout * width
    y = x[:, :, 0:n:width]
    # first mark each offset that beats every earlier one; strictly, so a tie
    # keeps the earlier offset. The last offset so marked holds the maximum.
    route = np.empty((b, c, width, lout), dtype=bool)
    route[:, :, 0] = True
    for j in range(1, width):
        s = x[:, :, j:n:width]
        np.greater(s, y, out=route[:, :, j])
        y = np.maximum(y, s)
    for j in range(width - 1, 0, -1):
        route[:, :, :j] &= ~route[:, :, j:j + 1]
    return (y if width > 1 else y.copy()), route  # width 1 would return a view of x


def maxpool1d_bwd(dy: np.ndarray, route: np.ndarray, length: int) -> np.ndarray:
    """Send upstream dy [B,C,Lout] back to the window maxima named by `route`."""
    b, c, width, lout = route.shape
    n = lout * width
    dx = np.empty((b, c, length), dtype=dy.dtype)
    dx[:, :, n:] = 0
    for j in range(width):
        np.multiply(dy, route[:, :, j], out=dx[:, :, j:n:width])
    return dx
