"""Numeric kernels for the multilinear form: evaluation, gradient, ascent.

One numpy backend, general in the uniformity r and the vertex count n
(edge lists of any arity on up to 64 vertices; no dense n^r tensor).

Conventions: x is a float64 weight vector, edges an (m, r) int64 array
of 0-based vertex indices. ``eval_poly`` is the one evaluation: one
product of member weights per edge, over a vector or a (K, n) batch,
and one ``math.fsum`` per row.

Derivatives of every order are one scatter. The derivative of order d
has one slot per ordered d-tuple of distinct columns of an edge; the
slot adds the product of the edge's other r - d weights into the bin of
its d vertices, read as digits in base n: the gradient (d = 1) sums
leave-one-out products into n bins, the Hessian (d = 2) leave-two-out
products into n * n bins. No weight is ever divided out, so coordinates
at 0 stay exact. The bins and the r - d gather index arrays depend on
the edge array only: ``_plan`` builds them and ``_scatter`` takes the
derivative, one ``np.bincount``. A plan tiled for a batch of rows, each
row's gathers shifted by its offset into the flattened (K, n) batch and
its bins by its offset into the K * n^d bins, takes the derivative of
every row in one scatter; each bin still adds the same terms in the
same order, so every row is bit-identical to a one-row call.

``Form(edges, n)`` owns that layout for one graph. Its ``grad``,
``hess`` and ``values`` take a (K, n) batch or an (n,) vector. A
derivative order is planned on its first use, so a caller that takes no
Hessian builds no Hessian plan and one that takes no derivative builds
none; the plan is tiled for the largest batch seen (a longer batch
tiles row 0 of the old tiling again, so each order is planned once),
and a batch of K rows takes the first K rows of the tiling, a view
memoized per K. That tiling is the only one: a ``Batch`` shifts it.
Callers that take many derivatives of one graph build one ``Form`` and
pass it.

``Batch(forms, counts)`` lays out a batch of several graphs of one r
on one n: its rows are grouped by graph, counts[j] rows of forms[j], in
order. Each graph's rows take that graph's tiling prefix,
``forms[j].prefix(d, counts[j])``, shifted by the rows of the batch
before them: its gathers by that many times n, its bins by that many
times n^d. The shift makes new arrays and leaves the form's prefix as
it was; bins still belong to one row each, so every row is
bit-identical to a one-row call of its graph's form. A batch refuses
forms of another n or r. It plans each derivative order once, and a
layout whose rows are all of one graph takes that graph's prefix view,
without a copy. ``take(rows)`` is the layout of some rows of a batch
(a ``Form`` is its own, and so is a batch that keeps every row); a
caller that drops rows takes the layout of the rows it keeps. A
layout's plans go when its batch does, and the forms' tilings when the
forms do.

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
rows, of one graph or of several, costs little more per step than one
row. It takes the caller's ``Form`` or ``Batch`` and looks up the live
rows' plan once per pass (``plan``), so a caller that runs many chunks
on one graph plans and tiles once.
``ascent_loop`` is its one-row case and builds its own one-row form.
"""

from __future__ import annotations

import math
from itertools import accumulate, permutations

import numpy as np

BACKEND = "numpy"

# A derivative plan: scatter bins and gather arrays (see ``_plan``).
Plan = tuple[np.ndarray, list[np.ndarray]]


def eval_poly(X: np.ndarray, edges: np.ndarray) -> np.ndarray | float:
    """Sum over edges of the product of member weights, compensated: a
    float for a vector; for a (K, n) batch, one value per row, bit for
    bit that of the row alone (one product over the batch, one fsum per
    row)."""
    prods = np.prod(X[..., edges], axis=-1).tolist()
    return math.fsum(prods) if X.ndim == 1 else np.array([math.fsum(p) for p in prods])


def _plan(edges: np.ndarray, n: int, order: int) -> Plan:
    """The scatter bins and the r - order gather arrays of the derivative
    of the given order on n vertices.

    Every ordered ``order``-tuple of distinct columns of an edge is a
    slot, edge by edge; it scatters into the bin that is its vertices
    read as digits in base n, and the i-th gather array holds, for that
    slot, the i-th of the edge's other members in column order.
    """
    r = edges.shape[1]
    slots = list(permutations(range(r), order))
    rest = zip(*[[c for c in range(r) if c not in s] for s in slots])
    bins = 0  # Horner's rule over the slot's columns
    for cols in zip(*slots):
        bins = bins * n + edges.take(cols, axis=1)
    return bins.ravel(), [edges.take(cols, axis=1).ravel() for cols in rest]


def _scatter(x: np.ndarray, plan: Plan, order: int) -> np.ndarray:
    """The derivative of the given order at x, or at every row of a batch
    x with a batch plan: each bin sums its slots' products of the
    gathered weights (1 for a slot with no other member, as in the
    Hessian of a 2-graph, which is the adjacency matrix). An edgeless
    graph has no slots, and ``np.bincount`` gives its zeros as integers;
    ``Form`` never scatters for one.
    """
    bins, gathers = plan
    xs = x.ravel()
    weights = xs[gathers[0]] if gathers else np.ones(bins.shape[0])
    for idx in gathers[1:]:
        weights *= xs[idx]
    shape = x.shape + x.shape[-1:] * (order - 1)
    return np.bincount(bins, weights=weights, minlength=math.prod(shape)).reshape(shape)


class Form:
    """The edge-product form of one graph on n vertices.

    ``grad``, ``hess`` and ``values`` take a (K, n) batch, each row
    bit-identical to a one-row call, or an (n,) vector. A derivative
    order is planned on its first use and its plan tiled for the most
    rows seen; a batch of K rows takes the first K rows of the tiling,
    memoized per K, and a longer batch tiles row 0 of the old tiling
    again. An edgeless form plans nothing: its derivatives are float
    zeros.
    """

    def __init__(self, edges: np.ndarray, n: int) -> None:
        self.edges = edges
        self.n = n
        self.r = edges.shape[1]
        if not edges.shape[0]:
            # No slots to scatter: float zeros, decided once per form.
            self.grad = lambda X: np.zeros(X.shape)
            self.hess = lambda X: np.zeros(X.shape + X.shape[-1:])
        # By derivative order: the tiling; by (order, rows): its prefix,
        # a view.
        self._tiled: dict[int, Plan] = {}
        self._prefixes: dict[tuple[int, int], Plan] = {}

    def take(self, rows: np.ndarray) -> Form:
        """The layout of the given rows of a batch: every row is of this
        graph, so the form itself."""
        return self

    def plan(self, order: int, X: np.ndarray) -> Plan:
        """The plan of the derivative of the given order for the rows of X."""
        return self.prefix(order, X.shape[0] if X.ndim == 2 else 1)

    def prefix(self, order: int, k: int) -> Plan:
        """The plan of the derivative of the given order for k rows: the
        first k rows of the tiling, a view."""
        if (order, k) not in self._prefixes:
            if order not in self._tiled:
                bins, gathers = _plan(self.edges, self.n, order)
                self._tiled[order] = bins[None], [ix[None] for ix in gathers]
            bins, gathers = self._tiled[order]
            if k > bins.shape[0]:
                # Tile row 0, the one-row plan, for k rows: row i's gathers
                # shift by i * n and its bins by i * n^order. The prefixes
                # of the old tiling are prefixes of the new one.
                at = np.arange(k)[:, None]
                self._tiled[order] = at * self.n**order + bins[0], [at * self.n + ix[0] for ix in gathers]
                bins, gathers = self._tiled[order]
            self._prefixes[order, k] = bins[:k].ravel(), [ix[:k].ravel() for ix in gathers]
        return self._prefixes[order, k]

    def grad(self, X: np.ndarray) -> np.ndarray:
        """The gradient at every row of X."""
        return _scatter(X, self.plan(1, X), 1)

    def hess(self, X: np.ndarray) -> np.ndarray:
        """The Hessian at every row of X."""
        return _scatter(X, self.plan(2, X), 2)

    def values(self, X: np.ndarray) -> np.ndarray | float:
        """``eval_poly`` of every row of X, or of X itself."""
        return eval_poly(X, self.edges)


class Batch:
    """The forms of several graphs on n vertices over one (K, n) batch
    whose rows are grouped by graph: counts[j] rows of forms[j], in order.

    ``grad``, ``hess`` and ``values`` take such a batch, each row
    bit-identical to a one-row call of its graph's form. Every form has
    the same n and r: a row's gathers and bins are laid out in them.
    Each graph's rows take its form's ``prefix``, shifted into new
    arrays by the rows before them. A batch plans each derivative order
    on its first use, once; a layout that ``take`` derives is a batch
    of its own.
    """

    def __init__(self, forms: list[Form], counts: list[int]) -> None:
        self.n = forms[0].n
        self.r = forms[0].r
        if any(form.n != self.n or form.r != self.r for form in forms):
            raise ValueError("the forms of a batch share n and r")
        self.forms = forms
        self.counts = tuple(counts)
        # The graphs that hold rows: (form, rows, first row).
        starts = accumulate(self.counts, initial=0)
        self._parts = [(f, k, at) for f, k, at in zip(forms, self.counts, starts) if k]
        # By derivative order: this layout's plan.
        self._plans: dict[int, Plan] = {}

    def take(self, rows: np.ndarray) -> Batch:
        """The layout of the given rows of this batch, in increasing order."""
        if len(rows) == sum(self.counts):
            return self
        owners = np.repeat(np.arange(len(self.forms)), self.counts)[rows]
        return Batch(self.forms, np.bincount(owners, minlength=len(self.forms)).tolist())

    def plan(self, order: int, X: np.ndarray | None = None) -> Plan:
        """The plan of the derivative of the given order for this layout;
        X, a batch in it, is not read."""
        if order not in self._plans:
            if len(self._parts) == 1:
                # One graph holds every row: its prefix, a view.
                form, k, _ = self._parts[0]
                self._plans[order] = form.prefix(order, k)
            else:
                # Each graph's rows take its prefix, shifted by the rows
                # before them into new arrays: a prefix is its form's view.
                shifted = []
                for form, k, at in self._parts:
                    bins, gathers = form.prefix(order, k)
                    shifted.append([bins + at * self.n**order] + [ix + at * self.n for ix in gathers])
                bins, *gathers = [np.concatenate(col) for col in zip(*shifted)]
                self._plans[order] = bins, gathers
        return self._plans[order]

    def grad(self, X: np.ndarray) -> np.ndarray:
        """The gradient at every row of X."""
        return _scatter(X, self.plan(1), 1)

    def hess(self, X: np.ndarray) -> np.ndarray:
        """The Hessian at every row of X."""
        return _scatter(X, self.plan(2), 2)

    def values(self, X: np.ndarray) -> np.ndarray:
        """``eval_poly`` of every row of X under its graph's edges."""
        parts = [form.values(X[at : at + k]) for form, k, at in self._parts]
        return np.concatenate(parts) if parts else np.zeros(0)


def ascent_rows(
    X: np.ndarray, form: Form | Batch, max_iters, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Growth-transform iterations on every row of a (K, n) batch.

    Returns per-row (X, values, iters, worst_gain). Each row stops on
    its own: after its cap (``max_iters`` is an int or one cap per row),
    when a step gains less than tol (a negative tol disables this stop),
    or when its gradient vanishes on the support; values are eval_poly
    at the returned rows (``form.values``).

    The rows, of one graph (a ``Form``) or grouped by graph (a
    ``Batch``), share one gradient scatter into K * n bins, row k's bins
    offset by k * n. Each bin adds the same edge terms in the same order
    as a one-row run, and every other operation is elementwise or a
    reduction along one row, so every row is bit-identical to a batch of
    that row alone. A row that stops is dropped from the batch, and the
    live rows keep their order, so their layout is ``form.take`` of them.
    """
    X = np.array(X, dtype=np.float64, ndmin=2)
    whole = form
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
            form = form.take(keep)
        if live.shape[0] == 0:
            break
        # The live rows' plan: looked up once per pass of this loop, not
        # at every step.
        plan = form.plan(1, rows)
        next_cap = cap.min()
        while True:
            rows = xg / denom
            rows /= np.add.reduce(rows, axis=1, keepdims=True)
            xg = rows * _scatter(rows, plan, 1)
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
    return X, whole.values(X), iters, worst


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
