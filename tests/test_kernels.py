"""Kernel-level checks: hand and naive-loop oracles, pooling semantics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecgvae import kernels

ROOT = Path(__file__).resolve().parents[1]


class TestConvForward:
    def test_hand_expanded_same_padding(self):
        # [1,2,3,4] correlated with [1,0,-1], zero-padded by 1:
        # y[0]=0*1+1*0+2*(-1)=-2, y[1]=1-3=-2, y[2]=2-4=-2, y[3]=3-0=3
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]], dtype=np.float32)
        w = np.array([[[1.0, 0.0, -1.0]]], dtype=np.float32)
        y = kernels.conv1d_fwd(x, w, 1)
        np.testing.assert_allclose(y, [[[-2.0, -2.0, -2.0, 3.0]]], atol=0)

    def test_identity_kernel_preserves_signal(self, rng):
        x = rng.standard_normal((2, 1, 50)).astype(np.float32)
        w = np.zeros((1, 1, 5), dtype=np.float32)
        w[0, 0, 2] = 1.0  # delta at the center tap
        np.testing.assert_array_equal(kernels.conv1d_fwd(x, w, 1), x)

    @pytest.mark.parametrize("stride", [0, 2, 3])
    def test_stride_other_than_one_is_refused(self, stride):
        x = np.zeros((1, 1, 8), dtype=np.float32)
        w = np.zeros((1, 1, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="stride 1 only"):
            kernels.conv1d_fwd(x, w, stride)
        with pytest.raises(ValueError, match="stride 1 only"):
            kernels.conv1d_bwd(x, w, stride, x)

    @pytest.mark.parametrize("length,factor", [(400, 1), (400, 2), (401, 2), (7, 3), (1, 1)])
    def test_output_length_is_factor_times_input(self, length, factor, rng):
        # no kernel takes a length: each reads it from x, and the backward pass from dy
        x = rng.standard_normal((2, 3, length)).astype(np.float32)
        w = rng.standard_normal((4, 3, 5)).astype(np.float32)
        y = kernels.conv1d_fwd(x, w, 1, None, factor)
        assert y.shape == (2, 4, factor * length)
        dx, dw = kernels.conv1d_bwd(x, w, 1, y, factor)
        assert dx.shape == x.shape and dw.shape == w.shape
        yc, cols = kernels.conv1d_cols(x.swapaxes(0, 1), w, None, factor)
        assert yc.shape == (4, 2, factor * length)
        assert cols.shape == (3 * kernels.phase_width(5, factor), 2 * length)
        dxc, _ = kernels.conv1d_cols_bwd(cols, w, yc, factor)
        assert dxc.shape == (3, 2, length)

    def test_width_one_kernel_is_channel_mix(self, rng):
        x = rng.standard_normal((2, 3, 10)).astype(np.float64)
        w = rng.standard_normal((4, 3, 1)).astype(np.float64)
        y = kernels.conv1d_fwd(x, w, 1)
        expect = np.einsum("bil,oik->bol", x, w)
        np.testing.assert_allclose(y, expect, atol=1e-12)


def naive_conv(x, w):
    """Loop oracle for conv1d_fwd: zero-padded cross-correlation."""
    b, ci, length = x.shape
    co, _, k = w.shape
    pad = (k - 1) // 2
    y = np.zeros((b, co, length))
    for bb in range(b):
        for o in range(co):
            for t in range(length):
                for i in range(ci):
                    for kk in range(k):
                        pos = t + kk - pad
                        if 0 <= pos < length:
                            y[bb, o, t] += w[o, i, kk] * x[bb, i, pos]
    return y


def naive_conv_bwd(x, w, dy):
    """Loop oracle for conv1d_bwd: every tap sends dy back to its input and weight."""
    b, ci, length = x.shape
    co, _, k = w.shape
    pad = (k - 1) // 2
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for bb in range(b):
        for o in range(co):
            for t in range(dy.shape[2]):
                for i in range(ci):
                    for kk in range(k):
                        pos = t + kk - pad
                        if 0 <= pos < length:
                            dx[bb, i, pos] += w[o, i, kk] * dy[bb, o, t]
                            dw[o, i, kk] += x[bb, i, pos] * dy[bb, o, t]
    return dx, dw


def naive_pool(x, width):
    """Loop oracle for max pooling: pooled values and the position of each first maximum."""
    b, c, length = x.shape
    lout = length // width
    y = np.zeros((b, c, lout))
    first = np.zeros((b, c, lout), dtype=np.int64)
    for bb in range(b):
        for cc in range(c):
            for t in range(lout):
                win = list(x[bb, cc, t * width:(t + 1) * width])
                y[bb, cc, t] = max(win)
                first[bb, cc, t] = t * width + win.index(max(win))
    return y, first


def channel_major(a):
    """The same [B,C,L] array, held in [C,B,L] memory as the conv chains hold it."""
    return np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)


class TestConvOracle:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("length", [7, 11])
    def test_fwd_and_bwd_match_loops(self, k, length, rng):
        x = rng.standard_normal((2, 3, length))
        w = rng.standard_normal((4, 3, k))
        dy = rng.standard_normal((2, 4, length))
        np.testing.assert_allclose(kernels.conv1d_fwd(x, w, 1), naive_conv(x, w),
                                   rtol=0, atol=1e-12)
        dx, dw = kernels.conv1d_bwd(x, w, 1, dy)
        dx_ref, dw_ref = naive_conv_bwd(x, w, dy)
        np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dw, dw_ref, rtol=0, atol=1e-12)
        xc, dyc = channel_major(x), channel_major(dy)
        np.testing.assert_array_equal(kernels.conv1d_fwd(xc, w, 1), kernels.conv1d_fwd(x, w, 1))
        dxc, dwc = kernels.conv1d_bwd(xc, w, 1, dyc)
        np.testing.assert_array_equal(dxc, dx)
        np.testing.assert_array_equal(dwc, dw)

    def test_kernel_wider_than_input(self, rng):
        # every tap but the center reads padding, at both ends
        x = rng.standard_normal((1, 2, 2))
        w = rng.standard_normal((3, 2, 5))
        dy = rng.standard_normal((1, 3, 2))
        np.testing.assert_allclose(kernels.conv1d_fwd(x, w, 1), naive_conv(x, w),
                                   rtol=0, atol=1e-12)
        for got, ref in zip(kernels.conv1d_bwd(x, w, 1, dy), naive_conv_bwd(x, w, dy)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_repeat_call_is_bit_identical(self, rng):
        x = rng.standard_normal((4, 8, 100)).astype(np.float32)
        w = rng.standard_normal((16, 8, 5)).astype(np.float32)
        dy = rng.standard_normal((4, 16, 100)).astype(np.float32)
        y1 = kernels.conv1d_fwd(x, w, 1)
        y2 = kernels.conv1d_fwd(x, w, 1)
        np.testing.assert_array_equal(y1, y2)
        d1 = kernels.conv1d_bwd(x, w, 1, dy)
        d2 = kernels.conv1d_bwd(x, w, 1, dy)
        np.testing.assert_array_equal(d1[0], d2[0])
        np.testing.assert_array_equal(d1[1], d2[1])


def naive_upsample_conv(x, w, factor, bias):
    """Loop oracle for conv1d_fwd at `factor`: a same-padded conv that reads the repeated
    input u[j] = x[j // factor] straight from x."""
    b, ci, length = x.shape
    co, _, k = w.shape
    pad = (k - 1) // 2
    y = np.zeros((b, co, factor * length))
    for bb in range(b):
        for o in range(co):
            for j in range(factor * length):
                y[bb, o, j] = bias[o]
                for i in range(ci):
                    for kk in range(k):
                        pos = j + kk - pad
                        if 0 <= pos < factor * length:
                            y[bb, o, j] += w[o, i, kk] * x[bb, i, pos // factor]
    return y


class TestUpsampleConvOracle:
    @pytest.mark.parametrize("memory", ["C", "channel-major"])
    @pytest.mark.parametrize("length", [1, 2, 7, 25])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_matches_upsampled_conv_and_loop(self, factor, k, length, memory, rng):
        x = rng.standard_normal((2, 3, length))
        w = rng.standard_normal((4, 3, k))
        bias = rng.standard_normal(4)
        xin = channel_major(x) if memory == "channel-major" else x
        ref = naive_upsample_conv(x, w, factor, bias)
        for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            got = kernels.conv1d_fwd(xin.astype(dtype), w.astype(dtype), 1, bias.astype(dtype),
                                     factor)
            plain = kernels.conv1d_fwd(kernels.upsample1d(xin.astype(dtype), factor),
                                       w.astype(dtype), 1, bias.astype(dtype))
            assert got.dtype == dtype and got.shape == (2, 4, factor * length)
            assert got.swapaxes(0, 1).flags.c_contiguous
            atol = rtol * np.abs(ref).max()
            np.testing.assert_allclose(got, ref, rtol=0, atol=atol)
            np.testing.assert_allclose(got, plain, rtol=0, atol=atol)

    @pytest.mark.parametrize("memory", ["C", "channel-major"])
    @pytest.mark.parametrize("length", [1, 2, 7, 25])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_bwd_matches_upsampled_conv_bwd_and_phase_sum(self, factor, k, length, memory,
                                                          rng):
        x = rng.standard_normal((2, 3, length))
        w = rng.standard_normal((4, 3, k))
        dy = rng.standard_normal((2, 4, factor * length))
        if memory == "channel-major":
            x, dy = channel_major(x), channel_major(dy)
        # oracle in float64: conv1d_bwd on the explicitly upsampled input, then
        # upsample1d's backward, the sum of the factor phases of du
        du, dw_ref = kernels.conv1d_bwd(kernels.upsample1d(x, factor), w, 1, dy)
        dx_ref = sum(du[:, :, r::factor] for r in range(factor))
        for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            dx, dw = kernels.conv1d_bwd(x.astype(dtype), w.astype(dtype), 1, dy.astype(dtype),
                                        factor)
            assert dx.dtype == dw.dtype == dtype
            assert dx.shape == x.shape and dw.shape == w.shape
            assert dx.swapaxes(0, 1).flags.c_contiguous
            for got, ref in ((dx, dx_ref), (dw, dw_ref)):
                np.testing.assert_allclose(got, ref, rtol=0, atol=rtol * np.abs(ref).max())

    @pytest.mark.parametrize("factor,k,taps", [(1, 5, 5), (2, 5, 3), (3, 5, 3), (2, 7, 5),
                                               (3, 7, 3), (2, 1, 1), (4, 3, 3)])
    def test_phase_weights_have_2_ceil_p_over_f_plus_1_taps(self, factor, k, taps, rng):
        w = rng.standard_normal((4, 3, k))
        wp = kernels.polyphase_weight(w, factor)
        assert wp.shape == (factor * 4, 3, taps)
        # each phase reads every tap of w exactly once
        np.testing.assert_allclose(wp.reshape(factor, 4, 3, taps).sum(axis=3),
                                   np.broadcast_to(w.sum(axis=2), (factor, 4, 3)), atol=1e-12)


class TestPoolOracle:
    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("length", [12, 13, 14])
    def test_fwd_and_bwd_match_loops(self, width, length, rng):
        # values from {0, 1, 2} make ties common; lengths leave remainders 0-2
        x = rng.integers(0, 3, (3, 4, length)).astype(np.float64)
        dy = rng.standard_normal((3, 4, length // width))
        y, route = kernels.maxpool1d_fwd(x, width)
        y_ref, first = naive_pool(x, width)
        np.testing.assert_array_equal(y, y_ref)
        dx_ref = np.zeros_like(x)
        np.put_along_axis(dx_ref, first, dy, axis=2)
        np.testing.assert_array_equal(kernels.maxpool1d_bwd(dy, route, length), dx_ref)
        xc, dyc = channel_major(x), channel_major(dy)
        yc, route_c = kernels.maxpool1d_fwd(xc, width)
        np.testing.assert_array_equal(yc, y)
        np.testing.assert_array_equal(kernels.maxpool1d(xc, width), y)
        np.testing.assert_array_equal(kernels.maxpool1d_bwd(dyc, route_c, length), dx_ref)

    @pytest.mark.parametrize("memory", ["C", "channel-major"])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_signed_zero_and_all_equal_windows(self, width, memory, rng):
        # the first 8 windows hold only -1, -0.0 and 0.0, so most tie at a zero of
        # either sign; the last 8 repeat one value (some of them -0.0) width times
        mixed = rng.choice(np.array([-1.0, -0.0, 0.0]), (3, 4, 8 * width))
        level = rng.choice(np.array([-0.0, 0.0, 1.5, -2.0]), (3, 4, 8))
        x = np.concatenate([mixed, np.repeat(level, width, axis=2)], axis=2)
        x = x.astype(np.float32)
        dy = rng.uniform(1.0, 2.0, (3, 4, 16)).astype(np.float32)
        if memory == "channel-major":
            x, dy = channel_major(x), channel_major(dy)
        y, route = kernels.maxpool1d_fwd(x, width)
        y_ref, first = naive_pool(x, width)
        np.testing.assert_array_equal(y, y_ref)
        pooled = kernels.maxpool1d(x, width)
        np.testing.assert_array_equal(np.signbit(y), np.signbit(pooled))
        np.testing.assert_array_equal(y, pooled)
        dx_ref = np.zeros_like(x)
        np.put_along_axis(dx_ref, first, dy, axis=2)
        np.testing.assert_array_equal(kernels.maxpool1d_bwd(dy, route, x.shape[2]), dx_ref)


class TestMaxPool:
    def test_hand_example(self):
        # [3,1,4,1,5,9] pooled by 2 -> [3,4,9]; the gradient goes to each maximum
        x = np.array([[[3.0, 1.0, 4.0, 1.0, 5.0, 9.0]]], dtype=np.float32)
        y, route = kernels.maxpool1d_fwd(x, 2)
        np.testing.assert_array_equal(y, [[[3.0, 4.0, 9.0]]])
        dx = kernels.maxpool1d_bwd(np.array([[[10.0, 20.0, 30.0]]], dtype=np.float32), route, 6)
        np.testing.assert_array_equal(dx, [[[10.0, 0.0, 20.0, 0.0, 0.0, 30.0]]])

    def test_tie_keeps_first_index(self):
        x = np.array([[[7.0, 7.0, 2.0, 2.0]]], dtype=np.float32)
        _, route = kernels.maxpool1d_fwd(x, 2)
        dx = kernels.maxpool1d_bwd(np.array([[[1.0, 2.0]]], dtype=np.float32), route, 4)
        np.testing.assert_array_equal(dx, [[[1.0, 0.0, 2.0, 0.0]]])

    def test_trailing_remainder_dropped(self, rng):
        x = rng.standard_normal((1, 1, 7)).astype(np.float32)
        y, _ = kernels.maxpool1d_fwd(x, 2)
        assert y.shape == (1, 1, 3)

    def test_backward_routes_to_argmax_only(self):
        x = np.array([[[1.0, 9.0, 3.0, 4.0]]], dtype=np.float32)
        y, idx = kernels.maxpool1d_fwd(x, 2)
        dy = np.array([[[10.0, 20.0]]], dtype=np.float32)
        dx = kernels.maxpool1d_bwd(dy, idx, 4)
        np.testing.assert_array_equal(dx, [[[0.0, 10.0, 0.0, 20.0]]])

    def test_gradient_mass_is_conserved(self, rng):
        x = rng.standard_normal((2, 3, 40)).astype(np.float64)
        y, idx = kernels.maxpool1d_fwd(x, 2)
        dy = rng.standard_normal(y.shape)
        dx = kernels.maxpool1d_bwd(dy, idx, 40)
        assert np.isclose(dx.sum(), dy.sum())


def test_kernel_benchmark_quick_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), "--quick"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    for label in ("enc conv1  1->16 L400", "dec conv4 16->1 L200", "enc pool4 128ch L50",
                  "dec up4+conv4 16->1 L100", "train up4+conv4 16->1 L100"):
        assert label in res.stdout
