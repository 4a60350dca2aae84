"""Numeric kernels for the multilinear form: evaluation, gradient, ascent.

One numpy backend, general in the uniformity r and the vertex count n
(edge lists of any arity on up to 64 vertices; no dense n^r tensor).

Conventions: x is a float64 weight vector, edges an (m, r) int64 array
of 0-based vertex indices. The gradient is one scatter of leave-one-out
products: r - 1 gather index arrays, fixed per edge array, pick for
every (edge, position) slot the weights of the other members of that
edge; their elementwise product is summed into the slot's vertex with
``np.bincount``. No weight is ever divided out, so coordinates at 0 stay
exact.

The ascent loop implements the growth transform (Baum-Eagon)
x_i <- x_i * g_i / sum_j x_j g_j, monotone nondecreasing for
nonnegative-coefficient homogeneous forms. Each step evaluates one
gradient and nothing else: by Euler's identity sum_i x_i g_i = r * P(x),
the update's normaliser is also r times the value of the current point,
so the per-step gains come for free. The loop reports the worst
per-iteration gain so callers can assert monotonicity held, and returns
the compensated ``eval_poly`` of the point it returns.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"


def eval_poly(x: np.ndarray, edges: np.ndarray) -> float:
    """Sum over edges of the product of member weights, compensated."""
    if edges.shape[0] == 0:
        return 0.0
    return math.fsum(np.prod(x[edges], axis=1))


def _grad_plan(edges: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Scatter targets and the r - 1 leave-one-out gather arrays.

    Slot (k, j) of the flattened edge array is vertex edges[k, j]; the
    i-th gather array holds, for that slot, the i-th other member of
    edge k in column order.
    """
    r = edges.shape[1]
    gathers = []
    for i in range(r - 1):
        cols = [i if i < j else i + 1 for j in range(r)]
        gathers.append(np.ascontiguousarray(edges[:, cols]).ravel())
    return edges.ravel(), gathers


def _grad(x: np.ndarray, flat: np.ndarray, gathers: list[np.ndarray]) -> np.ndarray:
    if flat.shape[0] == 0:
        return np.zeros(x.shape[0])
    loo = x[gathers[0]]
    for idx in gathers[1:]:
        loo *= x[idx]
    return np.bincount(flat, weights=loo, minlength=x.shape[0])


def link_grad(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Gradient of the form: per vertex, the sum of leave-one-out products."""
    return _grad(x, *_grad_plan(edges))


def ascent_loop(
    x: np.ndarray, edges: np.ndarray, max_iters: int, tol: float
) -> tuple[np.ndarray, float, int, float]:
    """Growth-transform iterations; returns (x, value, iters, worst_gain).

    Stops after max_iters steps, when a step gains less than tol (a
    negative tol disables this stop), or when the gradient vanishes on
    the support. value is eval_poly at the returned x.
    """
    flat, gathers = _grad_plan(edges)
    r = edges.shape[1]
    x = x.copy()
    g = _grad(x, flat, gathers)
    denom = (x * g).sum()
    val = denom / r
    worst = 0.0
    it = 0
    while it < max_iters and denom > 0.0:
        x = x * g / denom
        x /= x.sum()
        g = _grad(x, flat, gathers)
        denom = (x * g).sum()
        new_val = denom / r
        gain = new_val - val
        worst = min(worst, gain)
        val = new_val
        it += 1
        if gain < tol:
            break
    return x, eval_poly(x, edges), it, worst
