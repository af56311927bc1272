"""Adam optimizer with bias correction.

beta1 = 0.9, beta2 = 0.999 and eps = 1e-8 (Kingma & Ba's defaults) are class
constants; only the learning rate is a parameter.

Moment buffers are zero-initialized, so given identical parameters and
gradients the update sequence is fully deterministic. step() refuses to run
when any parameter is missing its gradient (a forward/backward pass must
precede it) and rejects non-finite gradients outright.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError, StateError
from .layers import Parameter


class Adam:
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[tuple[str, Parameter]], lr: float = 1e-3):
        if not 0.0 < lr < np.inf:  # NaN fails this too
            raise ValueError(f"lr must be positive and finite, got {lr}")
        if not params:
            raise ValueError("Adam needs at least one parameter")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply one bias-corrected Adam update to every parameter in place."""
        for name, p in self.params:
            if p.grad is None:
                raise StateError(
                    f"step() before backward(): parameter '{name}' has no gradient"
                )
            if not np.isfinite(p.grad).all():
                raise NumericsError(f"non-finite gradient for parameter '{name}'")
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for name, p in self.params:
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)
