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

    @pytest.mark.parametrize("length,stride,expected", [
        (400, 1, 400), (400, 2, 200), (401, 2, 201), (7, 3, 3), (1, 1, 1),
    ])
    def test_output_length_is_ceil(self, length, stride, expected):
        assert kernels.conv_out_len(length, stride) == expected
        x = np.zeros((1, 1, length), dtype=np.float32)
        w = np.zeros((1, 1, 3), dtype=np.float32)
        assert kernels.conv1d_fwd(x, w, stride).shape == (1, 1, expected)

    def test_width_one_kernel_is_channel_mix(self, rng):
        x = rng.standard_normal((2, 3, 10)).astype(np.float64)
        w = rng.standard_normal((4, 3, 1)).astype(np.float64)
        y = kernels.conv1d_fwd(x, w, 1)
        expect = np.einsum("bil,oik->bol", x, w)
        np.testing.assert_allclose(y, expect, atol=1e-12)


def naive_conv(x, w, stride):
    """Loop oracle for conv1d_fwd: zero-padded cross-correlation."""
    b, ci, length = x.shape
    co, _, k = w.shape
    pad = (k - 1) // 2
    lout = kernels.conv_out_len(length, stride)
    y = np.zeros((b, co, lout))
    for bb in range(b):
        for o in range(co):
            for t in range(lout):
                for i in range(ci):
                    for kk in range(k):
                        pos = t * stride + kk - pad
                        if 0 <= pos < length:
                            y[bb, o, t] += w[o, i, kk] * x[bb, i, pos]
    return y


def naive_conv_bwd(x, w, stride, dy):
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
                        pos = t * stride + kk - pad
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


class TestConvOracle:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("length", [7, 11])
    def test_fwd_and_bwd_match_loops(self, k, stride, length, rng):
        x = rng.standard_normal((2, 3, length))
        w = rng.standard_normal((4, 3, k))
        dy = rng.standard_normal((2, 4, kernels.conv_out_len(length, stride)))
        np.testing.assert_allclose(kernels.conv1d_fwd(x, w, stride),
                                   naive_conv(x, w, stride), rtol=0, atol=1e-12)
        dx, dw = kernels.conv1d_bwd(x, w, stride, dy)
        dx_ref, dw_ref = naive_conv_bwd(x, w, stride, dy)
        np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dw, dw_ref, rtol=0, atol=1e-12)

    def test_kernel_wider_than_input(self, rng):
        # every tap but the center reads padding, at both ends
        x = rng.standard_normal((1, 2, 2))
        w = rng.standard_normal((3, 2, 5))
        dy = rng.standard_normal((1, 3, 2))
        np.testing.assert_allclose(kernels.conv1d_fwd(x, w, 1), naive_conv(x, w, 1),
                                   rtol=0, atol=1e-12)
        for got, ref in zip(kernels.conv1d_bwd(x, w, 1, dy), naive_conv_bwd(x, w, 1, dy)):
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
    for label in ("enc conv1  1->16 L400", "dec conv4 16->1 L200", "enc pool4 128ch L50"):
        assert label in res.stdout
