"""Shared neural-net primitives (float64 throughout)."""

from __future__ import annotations

import numpy as np

LN_EPS = 1e-5
PROB_FLOOR = 1e-12  # clamp before log to avoid -inf on confident mistakes

# tanh-form GELU constants
_GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_C1 = 0.044715


class DivergenceError(RuntimeError):
    """Non-finite activation or loss; carries where it was detected."""

    def __init__(self, where: str):
        super().__init__(f"non-finite values detected in {where}")
        self.where = where


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-form GELU. Returns (y, t) with t = tanh(u), which ``gelu_grad``
    takes back so that the backward needs no second tanh."""
    t = np.tanh(_GELU_C0 * (x + _GELU_C1 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu / dx at ``x``, given ``t`` as returned by ``gelu(x)``."""
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C0 * (1.0 + 3.0 * _GELU_C1 * (x * x))


def ln_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """LayerNorm over the last axis. Returns (y, cache)."""
    xc = x - x.mean(axis=-1, keepdims=True)
    # the same sum and divide as x.var, without centring x a second time
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_sigma = 1.0 / np.sqrt(var + LN_EPS)
    xhat = np.multiply(xc, inv_sigma, out=xc)
    return gamma * xhat + beta, (xhat, inv_sigma)


def ln_backward(dy: np.ndarray, cache, gamma: np.ndarray):
    """Returns (dx, dgamma, dbeta)."""
    xhat, inv_sigma = cache
    axes = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * inv_sigma
    return dx, dgamma, dbeta


def dropout_forward(x: np.ndarray, rate: float, train: bool, rng, draw_shape=None):
    """Inverted dropout. Returns (y, mask); mask is None when inactive.

    The uniforms are drawn at ``draw_shape`` (default ``x.shape``) and their
    leading ``x.shape`` corner is used, so a block that computes only some of
    its rows draws the same stream and the same masks for those rows."""
    if not train or rate <= 0.0:
        return x, None
    u = rng.random(x.shape if draw_shape is None else draw_shape)
    mask = (u[tuple(map(slice, x.shape))] >= rate) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(dy: np.ndarray, mask) -> np.ndarray:
    return dy if mask is None else dy * mask
