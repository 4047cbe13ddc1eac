"""Shared neural-net primitives (float64 throughout)."""

from __future__ import annotations

from typing import Optional

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


def softmax_rows(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax over the last axis: ``exp(z - max) / sum``, computed in one
    new array, or in ``out`` (which may be ``z``) when given."""
    e = np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def floored_log(p: np.ndarray) -> np.ndarray:
    """``log(max(p, PROB_FLOOR))`` in a new array: the one log a loss takes."""
    out = np.maximum(p, PROB_FLOOR)
    np.log(out, out=out)
    return out


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the (N, K) ``logits`` rows' softmax at the label
    ids, and its gradient in the logits. The softmax and then the gradient
    are computed in ``logits``' array, which is returned."""
    n = logits.shape[0]
    rows = np.arange(n)
    probs = softmax_rows(logits, out=logits)
    loss = float(-np.add.reduce(floored_log(probs[rows, labels])) / n)
    probs[rows, labels] -= 1.0
    probs /= n
    return loss, probs


def gelu(x: np.ndarray, out: Optional[np.ndarray] = None
         ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Tanh-form GELU. Returns (y, t) with t = tanh(u), which ``gelu_grad``
    takes back so that the backward needs no second tanh. With ``out`` (which
    may be ``x``), y is written there and t's array is spent on ``t + 1``:
    returns (out, None)."""
    t = x * x
    t *= x
    t *= _GELU_C1
    t += x
    t *= _GELU_C0
    np.tanh(t, out=t)
    if out is None:
        y = x * 0.5
        y *= t + 1.0
        return y, t
    np.multiply(x, 0.5, out=out)
    t += 1.0
    out *= t
    return out, None


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu / dx at ``x``, given ``t`` as returned by ``gelu(x)``:
    0.5 (1 + t) + 0.5 x (1 - t^2) c0 (1 + 3 c1 x^2)."""
    a = t * t
    np.subtract(1.0, a, out=a)
    b = x * 0.5
    b *= a
    b *= _GELU_C0
    np.multiply(x, x, out=a)
    a *= 3.0 * _GELU_C1
    a += 1.0
    b *= a
    np.add(t, 1.0, out=a)
    a *= 0.5
    a += b
    return a


def ln_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """LayerNorm over the last axis. Returns (y, cache).

    ``np.add.reduce`` and a divide by the count are what ``mean`` calls, and
    averaging the squares of the centred values is what ``var`` does, so the
    result is bit-equal to ``gamma * (x - mu) / sqrt(var + eps) + beta``."""
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xc = x - mu
    y = xc * xc
    inv_sigma = np.add.reduce(y, axis=-1, keepdims=True)
    inv_sigma /= n
    inv_sigma += LN_EPS
    np.sqrt(inv_sigma, out=inv_sigma)
    np.divide(1.0, inv_sigma, out=inv_sigma)
    xhat = np.multiply(xc, inv_sigma, out=xc)
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y, (xhat, inv_sigma)


def ln_backward(dy: np.ndarray, cache, gamma: np.ndarray):
    """Returns (dx, dgamma, dbeta)."""
    xhat, inv_sigma = cache
    n = dy.shape[-1]
    axes = tuple(range(dy.ndim - 1))
    t = dy * xhat
    dgamma = np.add.reduce(t, axis=axes)
    dbeta = np.add.reduce(dy, axis=axes)
    dx = dy * gamma  # dxhat
    m1 = np.add.reduce(dx, axis=-1, keepdims=True)
    m1 /= n
    np.multiply(dx, xhat, out=t)
    m2 = np.add.reduce(t, axis=-1, keepdims=True)
    m2 /= n
    dx -= m1
    np.multiply(xhat, m2, out=t)
    dx -= t
    dx *= inv_sigma
    return dx, dgamma, dbeta


def dropout_forward(x: np.ndarray, rate: float, train: bool, rng, draw_shape=None,
                    rows=None):
    """Inverted dropout. Returns (y, mask); mask is None when inactive.

    The uniforms are drawn at ``draw_shape`` (default ``x.shape``); ``rows``,
    when given, gathers ``x``'s rows from them. A block that computes only
    some of its rows thus draws the same stream, and the same masks for those
    rows, as one that computes them all. The mask is ``(u >= rate) / (1 -
    rate)``, computed in the uniforms' array."""
    if not train or rate <= 0.0:
        return x, None
    mask = rng.random(x.shape if draw_shape is None else draw_shape)
    if rows is not None:
        mask = mask[rows]
    np.greater_equal(mask, rate, out=mask)
    mask /= 1.0 - rate
    return x * mask, mask


def dropout_backward(dy: np.ndarray, mask) -> np.ndarray:
    return dy if mask is None else dy * mask
