"""Adam optimizer over flat parameter vectors."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


class Adam:
    """Standard Adam with bias correction.

    ``eps`` defaults to 1e-12 rather than the usual 1e-8: boosting weights
    start at 1/n without renormalization, so gradients arrive scaled down by
    up to ~n and the eps floor must sit well below their RMS for the update
    magnitude to stay scale-invariant.

    ``ranges`` (slices of the flat vector, all of it by default) are the
    entries a step updates. An entry whose gradient is always exactly 0 keeps
    ``m = v = 0`` and an update of exactly 0, so leaving it out changes no bit.
    """

    def __init__(self, n_params: int, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-12,
                 ranges: Optional[Sequence[slice]] = None):
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
        # the ranges' views of m, v and the work buffers
        self._views = [(sl, self.m[sl], self.v[sl], self._s1[sl], self._s2[sl])
                       for sl in (ranges or (slice(0, n_params),))]

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """One update, in place; each operation rounds as in
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        params -= lr * m_hat / (sqrt(v_hat) + eps)."""
        self.t += 1
        c1, c2 = 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t
        for sl, m, v, s1, s2 in self._views:
            g = grad[sl]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s1)
            m += s1
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=s1)
            s1 *= g
            v += s1
            np.divide(m, c1, out=s1)
            np.divide(v, c2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 *= self.lr
            s1 /= s2
            params[sl] -= s1
