"""Adam optimizer over flat parameter vectors."""

from __future__ import annotations

import numpy as np


class Adam:
    """Standard Adam with bias correction.

    ``eps`` defaults to 1e-12 rather than the usual 1e-8: boosting weights
    start at 1/n without renormalization, so gradients arrive scaled down by
    up to ~n and the eps floor must sit well below their RMS for the update
    magnitude to stay scale-invariant.
    """

    def __init__(self, n_params: int, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-12):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(n_params, dtype=np.float64)
        self.v = np.zeros(n_params, dtype=np.float64)
        self.t = 0
        # work buffers for the update; m, v and params are updated in place
        self._s1 = np.empty(n_params, dtype=np.float64)
        self._s2 = np.empty(n_params, dtype=np.float64)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """One update, in place; each operation rounds as in
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        params -= lr * m_hat / (sqrt(v_hat) + eps)."""
        self.t += 1
        m, v, s1, s2 = self.m, self.v, self._s1, self._s2
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s1)
        s1 *= grad
        v += s1
        np.divide(m, 1.0 - self.beta1**self.t, out=s1)
        np.divide(v, 1.0 - self.beta2**self.t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 *= self.lr
        s1 /= s2
        params -= s1
