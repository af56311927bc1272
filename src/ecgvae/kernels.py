"""Hot numeric kernels: 1-d convolution, max pooling and nearest upsampling, in numpy.

Convolution runs channel-outermost, on [C, B, L], through im2col (Chellapilla
et al. 2006): one shifted row copy per tap unfolds x into columns [Ci*K, B*L],
zero where a tap reads the padding. The forward matmul's [Co, B*L] already is
the output [Co, B, L]; backward views dy as [Co, B*L] for the dw and dcols
matmuls and folds dcols straight into [Ci, B, L]. conv1d_cols returns the
columns with the output, and autodiff keeps them for the backward pass.
conv1d_fwd/conv1d_bwd take and give [B, C, L] by swapping axes 0 and 1 (a
view) around that one path, so their output is channel-major in memory.

There is one convolution, of x upsampled (nearest) by a factor f. It is a
polyphase convolution of the short input, which is never upsampled. With
p = (K - 1) // 2, output y[f*t + r] = sum_k w[k] * x[t + (r + k - p) // f],
so phase r is a same-padded convolution of x whose K' = 2*ceil(p/f) + 1 taps
are the sums of the w[k] that share an offset (r + k - p) // f. The f phases
stack into one [f*Co, Ci, K'] weight: one im2col, one matmul, then an
interleave into y[..., r::f]. The padding is exact, since i lies in [0, f*L)
if and only if i // f lies in [0, L). For f = 2 and K = 5 that is K' = 3:
60% of the multiplies and 30% of the column bytes of upsampling first. The
backward pass gathers dy[..., r::f] into the same [f*Co, B, L] phase stack,
runs the matmuls with the phase weights, and folds the phase-weight gradient
back onto w with the transpose of polyphase_weight. The interleave and the
gather are one view, _phases, and the tap map one list, _phase_taps, shared
by both directions. At f = 1, K' = K and the phase map is the identity, so
the kernels use w as it is (polyphase_weight would turn a -0.0 tap into
+0.0) and skip the interleave and the gather: that is the plain convolution.

Max pooling is a running max over the `width` strided slices of each window;
maxpool1d_fwd then marks, for each window, the first slice equal to that max
in a route of `width` boolean masks, each shaped and laid out like the
output, so the backward pass is `width` strided multiplies. Pooling reads
only the last axis and allocates like its input, so channel-major memory
stays channel-major.

Kernels do no validation: the calling layer code does. The one exception is
the stride slot that conv1d_fwd/conv1d_bwd keep for positional callers: every
convolution has stride 1, and any other stride raises ValueError. Convolution
is cross-correlation (no kernel flip) with zero padding of (K - 1) // 2 on
each side, so the output is f*L long. Pooling is non-overlapping with a
trailing partial window dropped.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, recorded by the benchmarks."""
    return "numpy"


# ---------------------------------------------------------------------------
# convolution


def _taps(k: int, length: int):
    """Per tap kk: outputs t0 <= t < t1 read x[..., src]; the others read padding."""
    pad = (k - 1) // 2
    for kk in range(k):
        shift = kk - pad
        t0 = max(0, -shift)
        t1 = max(t0, min(length, length - shift))
        yield kk, t0, t1, slice(t0 + shift, t1 + shift)


def im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Unfold x [Ci,B,L] into columns [Ci*K, B*L] of its zero-padded copy xpad:
    cols[i*K + kk, b*L + t] = xpad[i, b, t + kk]."""
    ci, b, length = x.shape
    cols = np.empty((ci, k, b, length), dtype=x.dtype)
    for kk, t0, t1, src in _taps(k, length):
        cols[:, kk, :, :t0] = 0
        cols[:, kk, :, t1:] = 0
        cols[:, kk, :, t0:t1] = x[:, :, src]
    return cols.reshape(ci * k, b * length)


def col2im(dcols: np.ndarray, shape: tuple[int, int, int], k: int) -> np.ndarray:
    """Sum column gradients [Ci*K, B*L] back onto an input of `shape` [Ci,B,L]."""
    taps = dcols.reshape(shape[0], k, shape[1], -1)
    dx = np.zeros(shape, dtype=dcols.dtype)
    for kk, t0, t1, dst in _taps(k, shape[2]):
        dx[:, :, dst] += taps[:, kk, :, t0:t1]
    return dx


def phase_width(k: int, factor: int) -> int:
    """Taps K' = 2*ceil(p/factor) + 1 of each phase, p = (k - 1) // 2: k itself at factor 1."""
    return 2 * -(-((k - 1) // 2) // factor) + 1


def _phase_taps(k: int, factor: int) -> list[tuple[int, int, int]]:
    """The (phase r, tap k, phase tap) triples of polyphase_weight, in its summing order."""
    pad = (k - 1) // 2
    q = -(-pad // factor)
    return [(r, kk, (r + kk - pad) // factor + q) for r in range(factor) for kk in range(k)]


def polyphase_weight(w: np.ndarray, factor: int) -> np.ndarray:
    """The [factor*Co, Ci, K'] phase weights of w [Co,Ci,K] behind an upsampling by `factor`.

    Row block r holds phase r: tap d + q sums the w[..., k] with (r + k - p) // factor == d,
    in increasing k, where p = (K - 1) // 2 and q = ceil(p / factor).
    """
    co, ci, k = w.shape
    wp = np.zeros((factor, co, ci, phase_width(k, factor)), dtype=w.dtype)
    for r, kk, d in _phase_taps(k, factor):
        wp[r, :, :, d] += w[:, :, kk]
    return wp.reshape(factor * co, ci, -1)


def polyphase_weight_bwd(dwp: np.ndarray, factor: int, k: int) -> np.ndarray:
    """Gradient [Co,Ci,K] of w from that of its phase weights dwp [factor*Co,Ci,K']: the
    transpose of polyphase_weight, tap k summing the phase taps it fed, in increasing r."""
    fco, ci, taps = dwp.shape
    parts = dwp.reshape(factor, fco // factor, ci, taps)
    dw = np.zeros((fco // factor, ci, k), dtype=dwp.dtype)
    for r, kk, d in _phase_taps(k, factor):
        dw[:, :, kk] += parts[r, :, :, d]
    return dw


def _phases(a: np.ndarray, factor: int) -> np.ndarray:
    """a [N0,N1,factor*L] as the [factor,N0,N1,L] view whose entry r is a[:, :, r::factor]."""
    n0, n1, n = a.shape
    return a.reshape(n0, n1, n // factor, factor).transpose(3, 0, 1, 2)


def conv1d_cols(x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray] = None,
                factor: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(y [Co,B,factor*L], cols): w [Co,Ci,K] (+ bias [Co]) over x [Ci,B,L] upsampled by
    `factor`, and the im2col columns of x, with phase_width(K, factor) taps, that
    conv1d_cols_bwd takes."""
    co, _, k = w.shape
    batch = x.shape[1]
    cols = im2col(x, phase_width(k, factor))
    if factor > 1:
        w = polyphase_weight(w, factor)
        bias = None if bias is None else np.tile(bias, factor)
    y = (w.reshape(factor * co, -1) @ cols).reshape(factor * co, batch, -1)
    if bias is not None:
        y += bias[:, None, None]
    if factor == 1:
        return y, cols
    out = np.empty((co, batch, factor * y.shape[2]), dtype=y.dtype)
    # one strided copy per phase: assigning through the whole [f,Co,B,L] view is ~7x slower
    for part, phase in zip(_phases(out, factor), y.reshape(factor, co, batch, -1)):
        part[...] = phase
    return out, cols


def conv1d_cols_bwd(cols: np.ndarray, w: np.ndarray, dy: np.ndarray, factor: int = 1,
                    need_dx: bool = True) -> tuple[Optional[np.ndarray], np.ndarray]:
    """(dx [Ci,B,L] or None, dw [Co,Ci,K]) of conv1d_cols given its columns and upstream dy
    [Co,B,factor*L]."""
    co, ci, k = w.shape
    if factor > 1:
        w = polyphase_weight(w, factor)
        dy = np.ascontiguousarray(_phases(dy, factor)).reshape(factor * co, dy.shape[1], -1)
    dyc = dy.reshape(factor * co, -1)
    dw = (dyc @ cols.T).reshape(w.shape)
    if factor > 1:
        dw = polyphase_weight_bwd(dw, factor, k)
    if not need_dx:
        return None, dw
    wm = w.reshape(factor * co, -1)
    # OpenBLAS runs the rank-1 product of a single output channel ~10x slower
    # than the equivalent broadcast multiply
    dcols = wm.T * dyc if factor * co == 1 else wm.T @ dyc
    return col2im(dcols, (ci, *dy.shape[1:]), w.shape[2]), dw


def _stride_one(stride: int) -> None:
    if stride != 1:
        raise ValueError(f"conv1d: stride 1 only, got {stride}")


def conv1d_fwd(x: np.ndarray, w: np.ndarray, stride: int = 1,
               bias: Optional[np.ndarray] = None, factor: int = 1) -> np.ndarray:
    """Zero-padded cross-correlation of x [B,Ci,L] upsampled by `factor` with w [Co,Ci,K]
    (+ bias [Co]) -> [B,Co,factor*L]. `stride` must be 1."""
    _stride_one(stride)
    return conv1d_cols(x.swapaxes(0, 1), w, bias, factor)[0].swapaxes(0, 1)


def conv1d_bwd(x: np.ndarray, w: np.ndarray, stride: int, dy: np.ndarray,
               factor: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (dx, dw) of conv1d_fwd given upstream dy [B,Co,factor*L]. `stride` must be 1."""
    _stride_one(stride)
    cols = im2col(x.swapaxes(0, 1), phase_width(w.shape[2], factor))
    dx, dw = conv1d_cols_bwd(cols, w, dy.swapaxes(0, 1), factor)
    return dx.swapaxes(0, 1), dw


# ---------------------------------------------------------------------------
# max pooling and upsampling


def maxpool1d(x: np.ndarray, width: int) -> np.ndarray:
    """Non-overlapping max over windows of `width` along the last axis; no route."""
    n = x.shape[2] // width * width
    y = x[:, :, 0:n:width]
    for j in range(1, width):
        y = np.maximum(y, x[:, :, j:n:width])
    return y if width > 1 else y.copy(order="K")  # width 1 would return a view of x


def maxpool1d_fwd(x: np.ndarray, width: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """maxpool1d and its route: `width` masks [N0,N1,Lout], True at each window's first maximum."""
    y = maxpool1d(x, width)
    n = y.shape[2] * width
    # a tie (including -0.0 against 0.0) goes to the earliest offset equal to y
    taken = x[:, :, 0:n:width] == y
    route = [taken]
    for j in range(1, width - 1):
        route.append((x[:, :, j:n:width] == y) & ~taken)
        taken = taken | route[-1]
    if width > 1:
        route.append(~taken)
    return y, route


def maxpool1d_bwd(dy: np.ndarray, route: list[np.ndarray], length: int) -> np.ndarray:
    """Send upstream dy [N0,N1,Lout] back to the window maxima named by `route`."""
    width = len(route)
    n = dy.shape[2] * width
    dx = np.empty_like(dy, shape=dy.shape[:2] + (length,))
    dx[:, :, n:] = 0
    for j, mask in enumerate(route):
        np.multiply(dy, mask, out=dx[:, :, j:n:width])
    return dx


def upsample1d(x: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor repeat by `factor` along the last axis, allocated like x."""
    n0, n1, length = x.shape
    y = np.empty_like(x, shape=(n0, n1, length * factor))  # np.repeat would give C order
    for j in range(factor):
        y[:, :, j::factor] = x
    return y
