"""Adam optimizer: first-step direction, determinism, misuse errors."""

import numpy as np
import pytest

from ecgvae.errors import NumericsError, StateError
from ecgvae.layers import Parameter
from ecgvae.optim import Adam


def make_param(values):
    return Parameter(np.asarray(values, dtype=np.float64))


class TestAdamUpdates:
    def test_first_step_is_lr_times_sign(self):
        # with zero-initialized moments, step 1 gives -lr * g/(|g| + eps), eps = 1e-8
        p = make_param([1.0, -2.0, 3.0])
        p.grad = np.array([0.5, -0.25, 4.0])
        opt = Adam([("p", p)], lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, [0.9, -1.9, 2.9], atol=1e-9)

    def test_two_steps_match_reference_formula(self):
        p = make_param([0.0])
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam([("p", p)], lr=lr)
        m = v = 0.0
        x = 0.0
        for t, g in enumerate([0.3, -0.7], start=1):
            p.grad = np.array([g])
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            np.testing.assert_allclose(p.data, [x], rtol=1e-12)
        assert opt.step_count == 2

    def test_identical_runs_are_bit_identical(self):
        runs = []
        for _ in range(2):
            p = make_param(np.linspace(-1, 1, 7))
            opt = Adam([("p", p)], lr=0.05)
            rng = np.random.default_rng(3)
            for _ in range(20):
                p.grad = rng.standard_normal(7)
                opt.step()
            runs.append(p.data.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_converges_on_quadratic(self):
        p = make_param([5.0])
        opt = Adam([("p", p)], lr=0.1)
        for _ in range(500):
            p.grad = 2.0 * p.data  # d/dx x^2
            opt.step()
        assert abs(p.data[0]) < 1e-2


class TestAdamErrors:
    def test_step_without_gradient_is_state_error(self):
        p = make_param([1.0])
        opt = Adam([("p", p)], lr=0.1)
        with pytest.raises(StateError):
            opt.step()

    def test_nan_gradient_rejected_before_any_update(self):
        p = make_param([1.0])
        q = make_param([2.0])
        opt = Adam([("p", p), ("q", q)], lr=0.1)
        p.grad = np.array([0.1])
        q.grad = np.array([np.nan])
        with pytest.raises(NumericsError):
            opt.step()
        np.testing.assert_array_equal(p.data, [1.0])  # nothing moved

    @pytest.mark.parametrize("kwargs", [{"lr": 0.0}, {"lr": -1.0}, {"lr": float("nan")},
                                        {"lr": float("inf")}])
    def test_bad_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            Adam([("p", make_param([1.0]))], **kwargs)

    def test_zero_grad_clears(self):
        p = make_param([1.0])
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None
