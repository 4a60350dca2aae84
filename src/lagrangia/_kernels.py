"""Numeric kernels for the multilinear form: evaluation, gradient, ascent.

One numpy backend, general in the uniformity r and the vertex count n
(edge lists of any arity on up to 64 vertices; no dense n^r tensor).

Conventions: x is a float64 weight vector, edges an (m, r) int64 array
of 0-based vertex indices. The gradient is one scatter of leave-one-out
products: r - 1 gather index arrays pick for every (edge, position) slot
the weights of the other members of that edge; their elementwise
product is summed into the slot's vertex with ``np.bincount``. No weight
is ever divided out, so coordinates at 0 stay exact. The Hessian, for
Newton steps on a face, is the same scatter one order down: leave-two-out
products summed into n * n bins.

The index arrays depend on the edge array only, so each derivative order
has a plan, built once per edge array: ``_grad_plan`` with ``_grad``,
and ``_hess_plan`` with ``_hess``. ``_tile_plan`` repeats a plan for a
batch of rows, each row's gathers shifted by its offset into the
flattened (K, n) batch and its scatter bins by its offset into the
K * n (gradient) or K * n * n (Hessian) bins, so one scatter takes the
derivative of every row; each bin still adds the same terms in the same
order, so every row is bit-identical to a one-row call.

``Form`` owns that layout for a caller: the form of one graph for
batches of up to ``rows`` weightings. It tiles the gradient plan once,
builds and tiles the Hessian plan on the first ``hess``, and its
``grad``, ``hess`` and ``values`` take a (K, n) batch or an (n,) vector
and cut the plan of the first K rows themselves (memoized per K). A
batch longer than the tiling re-tiles it. Callers that take many
derivatives of one graph build one ``Form`` and pass it.

The ascent loop implements the growth transform (Baum-Eagon)
x_i <- x_i * g_i / sum_j x_j g_j, monotone nondecreasing for
nonnegative-coefficient homogeneous forms. Each step evaluates one
gradient and nothing else: by Euler's identity sum_i x_i g_i = r * P(x),
the update's normaliser is also r times the value of the current point,
so the per-step gains come for free. The loop reports the worst
per-iteration gain so callers can assert monotonicity held, and returns
the compensated ``eval_poly`` of the point it returns.

``ascent_rows`` runs the loop on a batch of start vectors at once, one
gradient scatter per step for all of them; on graphs of a few vertices
numpy call overhead, not arithmetic, is most of a step, so a batch of K
rows costs little more per step than one row. It takes the caller's
``Form``, so a caller that runs many chunks on one graph tiles it once.
``ascent_loop`` is its one-row case and builds its own one-row form.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

# A derivative plan: scatter bins and gather arrays. The gradient plan
# has the r - 1 leave-one-out gathers, the Hessian plan the r - 2
# leave-two-out gathers.
Plan = tuple[np.ndarray, list[np.ndarray]]


def eval_poly(x: np.ndarray, edges: np.ndarray) -> float:
    """Sum over edges of the product of member weights, compensated."""
    if edges.shape[0] == 0:
        return 0.0
    return math.fsum(np.prod(x[edges], axis=1))


def _grad_plan(edges: np.ndarray) -> Plan:
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


def _grad(x: np.ndarray, plan: Plan) -> np.ndarray:
    """The gradient at x, or at every row of a batch x with a batch plan."""
    flat, gathers = plan
    if flat.shape[0] == 0:
        return np.zeros(x.shape)
    xs = x.ravel()
    loo = xs[gathers[0]]
    for idx in gathers[1:]:
        loo *= xs[idx]
    return np.bincount(flat, weights=loo, minlength=xs.shape[0]).reshape(x.shape)


def _hess_plan(edges: np.ndarray, n: int) -> Plan:
    """Scatter bins and the r - 2 leave-two-out gather arrays on n vertices.

    Every ordered pair of columns (a, b) of an edge is a slot, scattered
    into bin edges[a] * n + edges[b]; the i-th gather array holds, for
    that slot, the i-th of the edge's other members in column order.
    """
    r = edges.shape[1]
    pairs = [(a, b) for a in range(r) for b in range(r) if a != b]
    rest = [[c for c in range(r) if c != a and c != b] for a, b in pairs]
    flat = (edges[:, [a for a, _ in pairs]] * n + edges[:, [b for _, b in pairs]]).ravel()
    gathers = [edges[:, [cols[i] for cols in rest]].ravel() for i in range(r - 2)]
    return flat, gathers


def _hess(x: np.ndarray, plan: Plan) -> np.ndarray:
    """The Hessian at x, or at every row of a batch x with a batch plan:
    bin (i, j) sums the slots' leave-two-out products.

    For r = 2 the weights are 1 and the result is the adjacency matrix.
    """
    flat, gathers = plan
    n = x.shape[-1]
    xs = x.ravel()
    if gathers:
        weights = xs[gathers[0]]
        for idx in gathers[1:]:
            weights *= xs[idx]
    else:
        weights = np.ones(flat.shape[0])
    return np.bincount(flat, weights=weights, minlength=xs.shape[0] * n).reshape(
        x.shape + (n,)
    )


def _tile_plan(plan: Plan, rows: int, n: int, bins: int) -> Plan:
    """``plan`` repeated for a batch of ``rows`` rows of n weights, each
    scattering into ``bins`` bins (n for a gradient, n * n for a
    Hessian): row i's gathers shift by i * n and its scatter bins by
    i * bins. Each array has one row of slots per batch row.
    """
    flat, gathers = plan
    at = np.arange(rows)[:, None]
    return at * bins + flat, [at * n + idx for idx in gathers]


class Form:
    """The edge-product form of one graph on n vertices, for batches of
    up to ``rows`` weightings.

    ``grad``, ``hess`` and ``values`` take a (K, n) batch, each row
    bit-identical to a one-row call, or an (n,) vector. Each derivative
    takes the plan of the first K rows of its tiling, memoized per K; a
    K above the tiled rows tiles the plan again for K rows. The gradient
    plan is tiled here, the Hessian plan built and tiled on the first
    ``hess``.
    """

    def __init__(self, edges: np.ndarray, n: int, rows: int = 1) -> None:
        self.edges = edges
        self.n = n
        self.r = edges.shape[1]
        self.rows = rows
        # Per derivative order (gradient, Hessian): the one-row plan, its
        # tiling, and the tiling's prefixes by row count.
        self._plans: list[Plan | None] = [_grad_plan(edges), None]
        self._tiled: list[Plan | None] = [_tile_plan(self._plans[0], rows, n, n), None]
        self._prefixes: list[dict[int, Plan]] = [{}, {}]

    def _rows(self, order: int, X: np.ndarray) -> Plan:
        """The plan of derivative ``order`` for the rows of X."""
        k = X.shape[0] if X.ndim == 2 else 1
        if k not in self._prefixes[order]:
            if k > self._tiled[order][0].shape[0]:
                # The prefixes of the old tiling are prefixes of the new one.
                self._tiled[order] = _tile_plan(self._plans[order], k, self.n, self.n**(order + 1))
            flat, gathers = self._tiled[order]
            self._prefixes[order][k] = flat[:k].ravel(), [idx[:k].ravel() for idx in gathers]
        return self._prefixes[order][k]

    def grad(self, X: np.ndarray) -> np.ndarray:
        """The gradient at every row of X."""
        return _grad(X, self._rows(0, X))

    def hess(self, X: np.ndarray) -> np.ndarray:
        """The Hessian at every row of X."""
        if self._plans[1] is None:
            self._plans[1] = _hess_plan(self.edges, self.n)
            self._tiled[1] = _tile_plan(self._plans[1], self.rows, self.n, self.n**2)
        return _hess(X, self._rows(1, X))

    def values(self, X: np.ndarray) -> np.ndarray | float:
        """``eval_poly`` of every row of X, or of X itself, bit for bit:
        one product over the batch, one fsum per row."""
        prods = np.prod(X[..., self.edges], axis=-1).tolist()
        return math.fsum(prods) if X.ndim == 1 else np.array([math.fsum(p) for p in prods])


def ascent_rows(
    X: np.ndarray, form: Form, max_iters, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Growth-transform iterations on every row of a (K, n) batch.

    Returns per-row (X, values, iters, worst_gain). Each row stops on
    its own: after its cap (``max_iters`` is an int or one cap per row),
    when a step gains less than tol (a negative tol disables this stop),
    or when its gradient vanishes on the support; values are eval_poly
    at the returned rows (``form.values``).

    The rows share one gradient scatter into K * n bins through the
    row-offset indices k * n + flat. Each bin adds the same edge terms
    in the same order as a one-row run, and every other operation is
    elementwise or a reduction along one row, so every row is
    bit-identical to a batch of that row alone. A row that stops is
    dropped from the batch; the live rows are kept first, so their plan
    is a prefix of the form's tiling.
    """
    X = np.array(X, dtype=np.float64, ndmin=2)
    K = X.shape[0]
    iters = np.zeros(K, dtype=np.int64)
    worst = np.zeros(K)
    r = np.array(float(form.r))  # divides as the int r does

    # Batch state: row i is row live[i] of X; the column vectors (denom,
    # val, low, cap) have shape (A, 1). Every live row has taken
    # ``step`` steps.
    live = np.arange(K)
    rows = X
    cap = np.broadcast_to(np.asarray(max_iters), (K,)).reshape(K, 1)
    low = np.zeros((K, 1))
    step = 0
    xg = rows * form.grad(rows)
    denom = np.add.reduce(xg, axis=1, keepdims=True)
    val = denom / r
    going = (step < cap) & (denom > 0.0)
    while True:
        if not going.all():
            done = np.flatnonzero(~going)
            X[live[done]] = rows[done]
            iters[live[done]] = step
            worst[live[done]] = low[done, 0]
            keep = np.flatnonzero(going)
            live, rows, xg, denom, val, cap, low = (
                a[keep] for a in (live, rows, xg, denom, val, cap, low)
            )
        if live.shape[0] == 0:
            break
        # The live rows' plan, a prefix of the tiling: looked up once per
        # pass of this loop, not at every step.
        plan = form._rows(0, rows)
        next_cap = cap.min()
        while True:
            rows = xg / denom
            rows /= np.add.reduce(rows, axis=1, keepdims=True)
            xg = rows * _grad(rows, plan)
            denom = np.add.reduce(xg, axis=1, keepdims=True)
            new_val = denom / r
            gain = new_val - val
            val = new_val
            step += 1
            # Python comparisons are the cheapest test on a few values;
            # NaN fails them as it fails the masks below.
            gains = gain.ravel().tolist()
            ok = all(g >= tol for g in gains)
            # With tol > 0, ok means no gain is negative, so ``low``
            # stands, and every value is at least tol, so every denom > 0.
            sure = ok and tol > 0.0
            if not sure and not all(g >= 0.0 for g in gains):
                # min(worst, gain) as Python's min takes it, NaN included.
                low = np.where(gain < low, gain, low)
            if not (
                step < next_cap
                and ok
                and (sure or all(d > 0.0 for d in denom.ravel().tolist()))
            ):
                break
        # Some row may stop: build the row masks.
        going = ~(gain < tol) & (step < cap) & (denom > 0.0)
    return X, form.values(X), iters, worst


def ascent_loop(
    x: np.ndarray, edges: np.ndarray, max_iters: int, tol: float
) -> tuple[np.ndarray, float, int, float]:
    """Growth-transform iterations; returns (x, value, iters, worst_gain).

    Stops after max_iters steps, when a step gains less than tol (a
    negative tol disables this stop), or when the gradient vanishes on
    the support. value is eval_poly at the returned x. A one-row
    ``ascent_rows``; no solver path calls it, but the tests' reference
    ascent does and the benchmark's tracer patches it.
    """
    X, values, iters, worst = ascent_rows(x[None, :], Form(edges, x.shape[0]), max_iters, tol)
    return X[0], float(values[0]), int(iters[0]), float(worst[0])
