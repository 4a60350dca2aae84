"""Lagrangian of a uniform hypergraph: the maximum of the edge-product
form over the standard simplex, with certificates.

The optimizer is growth-transform ascent (multiplicative update
x_i <- x_i * g_i / sum x_j g_j), which never decreases the objective for
a homogeneous form with nonnegative coefficients. Near a maximum on the
boundary of the simplex, or a non-isolated one, its last digits come
slowly: coordinates decay onto a face at a linear rate near 1, or like
1/k, over thousands of steps. So the gain-stopped run goes in chunks of
``FACE_CHUNK`` steps, and a row still moving after a chunk tries a face
finish: Newton steps on the KKT system of a face of its support
(``_face_finish``), accepted only at a stationary local maximum of the
face that does not lower P. What no face closes, a plateau where the
face Hessian is singular or a stall, falls back to fixed-length bursts
and a projected-gradient rescue (``_pg_polish``). Multi-start covers the
structured optima: uniform, uniform on maximum cliques, uniform on
initial segments, and seeded Dirichlet draws.

The starts of one graph run in lockstep: every growth-transform phase
(each chunk of the gain-stopped run, each round of fixed-length bursts,
the run after a rescue) takes the rows that need it as one
``_kernels.ascent_rows`` batch, and a row leaves the batch when it
stops or a face closes it. Rows are bit-identical to separate runs and
every face attempt looks at one row, so the result of each start is
that of ``ascend`` from it alone; the batch only cuts per-step numpy
overhead.

On graphs of a few vertices numpy call overhead, not arithmetic, is
most of every derivative, so none rebuilds its index arrays: each
``_ascend_rows`` call builds the gradient plan of the graph's edges once
(``_kernels._grad_plan``) and passes it to every KKT check, face gap and
rescue, and each face attempt builds one gradient and one Hessian plan
on the face's own edges, relabelled to its k vertices, for all of its
Newton steps.

Closed forms (complete graphs, 2-graphs via the clique number) are exact
rationals.

``lagrangia.lagrangian`` is the function ``lagrangian``, not this
module: the package re-exports the function under the submodule's name,
which shadows the submodule as an attribute. Code that patches or
inspects the module reaches it with ``sys.modules["lagrangia.lagrangian"]``
or ``importlib.import_module("lagrangia.lagrangian")``; ``from
lagrangia.lagrangian import ...`` works as usual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .core import (
    Hypergraph,
    LinkSet,
    binomial,
    difference_link,
    edge_mask,
    pair_link,
)
from .structure import clique_number, is_left_compressed, maximum_cliques

FEAS_TOL = 1e-12  # absolute slack on the simplex sum constraint
MONOTONE_SLACK = 1e-14  # tolerated per-iteration objective decrease

# The face finish (``_face_finish``): growth steps between face attempts,
# the most decaying coordinates left off a candidate face, the relative
# weight below which a coordinate is on no face, the gap at or above which
# a coordinate is not decaying, the Newton step budget and stopping
# residual, and the largest tangent curvature of an accepted face.
FACE_CHUNK = 100
FACE_DROPS = 3
FACE_FLOOR = 1e-9
GAP_TOL = 1e-12
NEWTON_STEPS = 8
NEWTON_TOL = 1e-14
CURVATURE_TOL = 1e-9


@dataclass(frozen=True)
class OptOptions:
    """Knobs shared by every optimization entry point."""

    max_iters: int = 20000
    tol: float = 1e-12  # stop ascent when the objective gain drops below
    kkt_tol: float = 1e-8  # stationarity certificate threshold
    value_tol: float = 1e-9  # values this close count as equal for support drops
    trim: float = 1e-13  # weights at or below are zeroed before certification
    random_starts: int = 8
    seed: int = 0


DEFAULT_OPTIONS = OptOptions()


@dataclass(frozen=True, eq=False)
class OptResult:
    """A certified candidate for the Lagrangian.

    value is evaluate(weighting) up to roundoff; support lists the
    1-based vertices with positive weight, empty when the objective is
    identically zero at the returned point; kkt_residual is
    max over support of |link value - r * value|.
    """

    value: float
    weighting: np.ndarray
    support: tuple[int, ...]
    kkt_residual: float
    edge_cover_ok: bool
    method: str  # closed-form | ascent | refined
    iterations: int

    @property
    def support_size(self) -> int:
        return len(self.support)

    def to_record(self) -> dict:
        return {
            "value": self.value,
            "weights": [float(w) for w in self.weighting],
            "support": list(self.support),
            "kkt_residual": self.kkt_residual,
            "edge_cover_ok": self.edge_cover_ok,
            "method": self.method,
            "iterations": self.iterations,
        }


def as_weighting(x: Sequence[float], n: int) -> np.ndarray:
    """Validate a simplex point covering at least n vertices."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < n:
        raise ValueError(f"weighting must be a vector of length >= {n}")
    if np.any(arr < 0.0):
        raise ValueError("weighting has a negative entry")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > FEAS_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    return arr


def uniform_weighting(n: int, on: Iterable[int] | None = None) -> np.ndarray:
    """Uniform mass on the given 1-based vertices (default: all of [n])."""
    verts = list(on) if on is not None else list(range(1, n + 1))
    x = np.zeros(n)
    x[[v - 1 for v in verts]] = 1.0 / len(verts)
    return x


def evaluate(g: Hypergraph, x: Sequence[float]) -> float:
    """Sum over edges of the product of vertex weights, compensated."""
    arr = as_weighting(x, g.n)
    return float(_kernels.eval_poly(arr, g.edge_array()))


def evaluate_exact(g: Hypergraph, x: Sequence[Fraction]) -> Fraction:
    """Exact rational evaluation for closed-form cross-checks."""
    weights = [Fraction(w) for w in x]
    if any(w < 0 for w in weights):
        raise ValueError("weighting has a negative entry")
    if sum(weights) != 1:
        raise ValueError("weights must sum to exactly 1")
    total = Fraction(0)
    for edge in g.edge_list():
        term = Fraction(1)
        for v in edge:
            term *= weights[v - 1]
        total += term
    return total


def link_value(g: Hypergraph, i: int, x: Sequence[float]) -> float:
    """The partial derivative of the form at x: the value of the link of i."""
    if not 1 <= i <= g.n:
        raise ValueError(f"vertex {i} out of range [1, {g.n}]")
    arr = as_weighting(x, g.n)
    terms = []
    for edge in g.edge_list():
        if i in edge:
            terms.append(math.prod(arr[v - 1] for v in edge if v != i))
    return math.fsum(terms)


def family_value(link: LinkSet, x: Sequence[float]) -> float:
    """Evaluate an arbitrary equal-arity family (pair links, differences)."""
    arr = np.asarray(x, dtype=np.float64)
    return math.fsum(
        math.prod(arr[v - 1] for v in member) for member in link.sorted_members()
    )


def _support(x: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) + 1 for i in np.flatnonzero(x > 0.0))


def _kkt_residual(
    x: np.ndarray, plan: _kernels.GradPlan, value: float, r: int, floor: float = 0.0
) -> float:
    """Stationarity residual over the coordinates above ``floor``.

    ``plan`` is ``_kernels._grad_plan`` of the graph's edge array.
    """
    grad = _kernels._grad(x, plan)
    target = r * value
    mask = x > floor
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(grad[mask] - target)))


def _find_uncovered_pair(g: Hypergraph, support: Sequence[int]) -> tuple[int, int] | None:
    """The first support pair, in lexicographic order, inside no edge.

    One pass over the edges, discarding the pairs each edge covers.
    """
    ordered = sorted(support)
    needed = set(combinations(ordered, 2))
    for edge_bits in g.edges:
        if not needed:
            return None
        verts = [v for v in ordered if edge_bits >> (v - 1) & 1]
        needed.difference_update(combinations(verts, 2))
    return min(needed, default=None)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _pg_polish(
    x: np.ndarray,
    edges: np.ndarray,
    plan: _kernels.GradPlan,
    value: float,
    max_steps: int = 100,
) -> tuple[bool, np.ndarray, float, int]:
    """Projected-gradient steps restricted to the positive support of x.

    Keeps zero weights at zero so the support can only shrink, matching
    the growth transform; returns (improved, x, value, steps).
    """
    mask = x > 0.0
    improved = False
    steps = 0
    for _ in range(max_steps):
        grad = _kernels._grad(x, plan)
        eta = 1.0
        accepted = False
        for _ in range(45):
            y = x.copy()
            y[mask] = _project_simplex(x[mask] + eta * grad[mask])
            new_value = float(_kernels.eval_poly(y, edges))
            if new_value > value + 1e-15:
                x, value = y, new_value
                accepted = improved = True
                break
            eta *= 0.5
        steps += 1
        if not accepted:
            break
    return improved, x, value, steps


def _face_newton(
    x: np.ndarray,
    edges: np.ndarray,
    plan: _kernels.GradPlan,
    value: float,
    face: np.ndarray,
    opts: OptOptions,
) -> tuple[np.ndarray, float, int] | None:
    """Newton steps on the KKT system of one face of the simplex.

    The face keeps the 0-based coordinates ``face`` and sets the rest to
    zero. The steps solve grad_S P(y) = mu * 1, sum_S y = 1 with the
    bordered Jacobian [H_SS -1; 1^T 0], from x renormalized on the face,
    at most NEWTON_STEPS of them, stopping once the residual is below
    NEWTON_TOL. They work on the face's own edges, relabelled 0..k-1:
    off the face y is exactly 0, so every other edge would add only a
    zero to g_S and H_SS, and the k-vertex plans give both bit for bit.
    The end point y is accepted only if it is a local maximum of the
    face that does not lower P and is stationary for every coordinate
    positive in x:

    - every y_S > 0 and P(y) >= value, the value of x;
    - |g_i - rP(y)| <= opts.kkt_tol on the face;
    - g_j - rP(y) <= opts.kkt_tol for every j positive in x off the face;
    - the Hessian on the face's tangent space {1^T d = 0} has no
      eigenvalue above CURVATURE_TOL, so y is not a saddle.

    These checks take P and g of the full y, through ``plan``, the
    gradient plan of ``edges``. Coordinates at exactly zero are ignored:
    the growth transform never revives them. Returns (y, P(y), steps),
    or None when y is rejected.
    """
    r = edges.shape[1]
    k = face.shape[0]
    label = np.full(x.shape[0], -1)
    label[face] = np.arange(k)
    local = label[edges]
    local = local[(local >= 0).all(axis=1)]
    face_grad = _kernels._grad_plan(local)
    face_hess = _kernels._hess_plan(local, k)
    z = x[face] / x[face].sum()
    mu = r * _kernels.eval_poly(z, local)
    jac = np.zeros((k + 1, k + 1))
    jac[:k, k] = -1.0
    jac[k, :k] = 1.0
    steps = 0
    for _ in range(NEWTON_STEPS):
        resid = np.append(_kernels._grad(z, face_grad) - mu, z.sum() - 1.0)
        if np.max(np.abs(resid)) < NEWTON_TOL:
            break
        jac[:k, :k] = _kernels._hess(z, face_hess)
        try:
            step = np.linalg.solve(jac, -resid)
        except np.linalg.LinAlgError:
            return None
        z += step[:k]
        mu += step[k]
        steps += 1
    if not np.all(z > 0.0):
        return None
    y = np.zeros_like(x)
    y[face] = z
    new_value = float(_kernels.eval_poly(y, edges))
    if not new_value >= value:
        return None
    gap = _kernels._grad(y, plan) - r * new_value
    if np.max(np.abs(gap[face])) > opts.kkt_tol:
        return None
    off_face = x > 0.0
    off_face[face] = False
    if np.any(gap[off_face] > opts.kkt_tol):
        return None
    tangent = np.eye(k) - 1.0 / k
    hess = _kernels._hess(z, face_hess)
    if np.linalg.eigvalsh(tangent @ hess @ tangent).max() > CURVATURE_TOL:
        return None
    return y, new_value, steps


def _face_finish(
    x: np.ndarray,
    edges: np.ndarray,
    plan: _kernels.GradPlan,
    value: float,
    opts: OptOptions,
) -> tuple[np.ndarray, float, int] | None:
    """The first candidate face of x that ``_face_newton`` accepts, or None.

    A candidate keeps the coordinates above FACE_FLOOR * max x, minus
    the j = 0..FACE_DROPS of them with the most negative gaps
    g_i - rP(x): those are decaying towards zero under the growth
    transform, slowly near a boundary maximum. The candidates stop at
    the first gap >= -GAP_TOL. ``plan`` is the gradient plan of ``edges``.
    """
    base = np.flatnonzero(x > FACE_FLOOR * x.max())
    gap = _kernels._grad(x, plan)[base] - edges.shape[1] * value
    order = np.argsort(gap, kind="stable")
    for j in range(min(FACE_DROPS, base.shape[0] - 1) + 1):
        if j and gap[order[j - 1]] >= -GAP_TOL:
            break
        out = _face_newton(x, edges, plan, value, np.sort(base[order[j:]]), opts)
        if out is not None:
            return out
    return None


def _check_monotone(worst: np.ndarray) -> None:
    drops = worst[worst < -MONOTONE_SLACK]
    if drops.shape[0]:
        raise AssertionError(f"ascent decreased the objective by {-drops[0]:.3e}")


def _ascend_rows(
    g: Hypergraph, starts: Sequence[Sequence[float]], opts: OptOptions
) -> list[OptResult]:
    """``ascend`` from every start, the starts run in lockstep.

    Each phase runs the rows that need it as one ``ascent_rows`` batch,
    and every face attempt looks at one row only, so each result equals
    a separate ``ascend`` bit for bit.
    """
    xs: list[np.ndarray] = []
    for x0 in starts:
        arr = as_weighting(x0, g.n)
        if arr.shape[0] > g.n:
            if np.any(arr[g.n :] > 0.0):
                raise ValueError("start point puts weight on vertices beyond the graph")
            arr = arr[: g.n]
        xs.append(arr)
    edges = g.edge_array()
    plan = _kernels._grad_plan(edges)
    values = [0.0] * len(xs)
    total_iters = [0] * len(xs)
    closed: set[int] = set()

    def run(idx: list[int], caps, tol: float) -> None:
        X, vals, its, worst = _kernels.ascent_rows(
            np.array([xs[k] for k in idx]), edges, caps, tol
        )
        _check_monotone(worst)
        for i, k in enumerate(idx):
            xs[k], values[k] = X[i], float(vals[i])
            total_iters[k] += int(its[i])

    def kkt(k: int) -> float:
        return _kkt_residual(xs[k], plan, values[k], g.r, floor=opts.trim)

    def finish(k: int) -> bool:
        out = _face_finish(xs[k], edges, plan, values[k], opts)
        if out is None:
            return False
        xs[k], values[k], steps = out
        total_iters[k] += steps
        closed.add(k)
        return True

    # The gain-stopped run, in chunks of FACE_CHUNK steps. A row that
    # runs a whole chunk is still moving, often because coordinates are
    # decaying onto a face at a linear rate near 1: Newton steps on that
    # face finish it, and the row leaves the batch.
    everyone = list(range(len(xs)))
    live = everyone
    while live:
        done = [total_iters[k] for k in live]
        caps = [min(FACE_CHUNK, opts.max_iters - d) for d in done]
        run(live, caps, opts.tol)
        live = [
            k
            for k, d, cap in zip(live, done, caps)
            if total_iters[k] - d == cap and total_iters[k] < opts.max_iters and not finish(k)
        ]

    # A row whose gain stop fired while it was still off stationarity
    # tries its faces once more. What no face closes is a plateau (H_SS
    # singular) or a stall: extra fixed-length bursts (tol < 0 disables
    # the gain stop) let the multiplicative decay finish, and a
    # projected-gradient rescue handles a genuine stall. A row leaves
    # the rounds for good once it is stationary, out of iterations or
    # not improved by a rescue.
    live = [k for k in everyone if k not in closed]
    residual = {k: kkt(k) for k in live}
    live = [k for k in live if residual[k] > opts.kkt_tol and not finish(k)]
    for _ in range(40):
        live = [
            k for k in live
            if residual[k] > opts.kkt_tol and total_iters[k] < opts.max_iters
        ]
        if not live:
            break
        run(live, [min(200, opts.max_iters - total_iters[k]) for k in live], -1.0)
        polished, stalled = [], set()
        for k in live:
            new_residual = kkt(k)
            if new_residual > 0.95 * residual[k]:
                improved, xs[k], values[k], steps = _pg_polish(
                    xs[k], edges, plan, values[k], max_steps=30
                )
                total_iters[k] += steps
                if improved:
                    polished.append(k)
                    continue
                stalled.add(k)
            residual[k] = new_residual
        if polished:
            run(polished, [max(opts.max_iters - total_iters[k], 1) for k in polished], opts.tol)
            for k in polished:
                residual[k] = kkt(k)
        live = [k for k in live if k not in stalled]

    return [_ascent_result(g, edges, plan, xs[k], total_iters[k], opts) for k in everyone]


def _ascent_result(
    g: Hypergraph,
    edges: np.ndarray,
    plan: _kernels.GradPlan,
    x: np.ndarray,
    iterations: int,
    opts: OptOptions,
) -> OptResult:
    """Trim, renormalize and certify the end point of one ascent."""
    x = np.where(x > opts.trim, x, 0.0)
    total = x.sum()
    if total > 0.0:
        x = x / total
    value = float(_kernels.eval_poly(x, edges))

    if value <= 0.0:
        return OptResult(
            value=0.0,
            weighting=x,
            support=(),
            kkt_residual=0.0,
            edge_cover_ok=True,
            method="ascent",
            iterations=iterations,
        )
    support = _support(x)
    return OptResult(
        value=value,
        weighting=x,
        support=support,
        kkt_residual=_kkt_residual(x, plan, value, g.r),
        edge_cover_ok=_find_uncovered_pair(g, support) is None,
        method="ascent",
        iterations=iterations,
    )


def ascend(g: Hypergraph, x0: Sequence[float], opts: OptOptions | None = None) -> OptResult:
    """Monotone ascent from one start; certificates computed at the end.

    Growth-transform iterations run until the objective gain falls below
    opts.tol, with a Newton face finish tried every FACE_CHUNK steps;
    if the stationarity residual on the support is still above
    opts.kkt_tol and no face closes it, the optimizer interleaves
    growth bursts and projected-gradient rescues. Newton and rescue
    steps count as iterations.
    Weights at or below opts.trim are then zeroed and the vector
    renormalized. A zero objective with zero gradient comes back as
    value 0 with an empty support.
    """
    return _ascend_rows(g, [x0], opts or DEFAULT_OPTIONS)[0]


def _merge_key(res: OptResult):
    # value desc, support size asc, weights lex desc
    return (-res.value, res.support_size, tuple(-w for w in res.weighting))


def _better(a: OptResult, b: OptResult) -> OptResult:
    return a if _merge_key(a) <= _merge_key(b) else b


def ascend_multistart(g: Hypergraph, opts: OptOptions | None = None) -> OptResult:
    """Best ascent result over the structured and random start set.

    Starts: uniform on [n], uniform on every maximum clique, uniform on
    each initial segment [k] for k = r..n, and opts.random_starts
    Dirichlet draws from a generator seeded with opts.seed.
    """
    opts = opts or DEFAULT_OPTIONS
    n = g.n
    starts: list[np.ndarray] = [uniform_weighting(n)]
    for clique in maximum_cliques(g):
        starts.append(uniform_weighting(n, clique))
    for k in range(g.r, n + 1):
        starts.append(uniform_weighting(n, range(1, k + 1)))
    if opts.random_starts > 0:
        rng = np.random.default_rng(opts.seed)
        for _ in range(opts.random_starts):
            starts.append(rng.dirichlet(np.ones(n)))
    results = _ascend_rows(g, starts, opts)
    best = results[0]
    for res in results[1:]:
        best = _better(best, res)
    return best


def minimize_support(
    g: Hypergraph, res: OptResult, opts: OptOptions | None = None
) -> OptResult:
    """Shrink the support while the value holds up.

    Two moves, repeated to a fixed point. If some support pair lies in
    no edge, the objective is linear in shifting weight between the two,
    so all of it moves to the vertex with the larger link value and the
    other leaves the support. Otherwise the smallest-weight vertex
    (ties: largest index) is dropped and the remainder re-optimized; the
    shrink is kept only when the value matches within opts.value_tol.
    """
    opts = opts or DEFAULT_OPTIONS
    plan = _kernels._grad_plan(g.edge_array())
    best = res
    changed = False
    while len(best.support) > 1:
        pair = _find_uncovered_pair(g, best.support)
        if pair is not None:
            i, j = pair
            x = best.weighting.copy()
            grad = _kernels._grad(x, plan)
            keeper, donor = (i, j) if grad[i - 1] >= grad[j - 1] else (j, i)
            x[keeper - 1] += x[donor - 1]
            x[donor - 1] = 0.0
            cand = ascend(g, x, opts)
            if cand.value >= best.value - opts.value_tol:
                best = cand
                changed = True
                continue
            break
        weights = best.weighting
        drop = min(best.support, key=lambda v: (weights[v - 1], -v))
        x = weights.copy()
        x[drop - 1] = 0.0
        total = x.sum()
        if total <= 0.0:
            break
        remaining = [v for v in best.support if v != drop]
        cand = _better(*_ascend_rows(g, [x / total, uniform_weighting(g.n, remaining)], opts))
        if cand.value >= best.value - opts.value_tol:
            best = cand
            changed = True
        else:
            break
    if changed:
        best = replace(best, method="refined")
    return best


def motzkin_straus(g: Hypergraph) -> Fraction:
    """Exact Lagrangian of a 2-graph: (1/2)(1 - 1/clique number)."""
    if g.r != 2:
        raise ValueError(f"closed form requires a 2-graph, got r={g.r}")
    if not g.edges:
        return Fraction(0)
    return _motzkin_straus_value(clique_number(g))


def _motzkin_straus_value(w: int) -> Fraction:
    """(1/2)(1 - 1/w), the Lagrangian of a 2-graph with clique number w."""
    return Fraction(w - 1, 2 * w)


def complete_lagrangian(t: int, r: int) -> Fraction:
    """Exact Lagrangian of the complete r-graph on t vertices: C(t,r)/t^r."""
    if t < r:
        raise ValueError(f"need t >= r, got t={t}, r={r}")
    return Fraction(binomial(t, r), t**r)


def _closed_form_result(g: Hypergraph, value: float, support: Sequence[int]) -> OptResult:
    x = uniform_weighting(g.n, support) if support else np.full(g.n, 1.0 / g.n)
    plan = _kernels._grad_plan(g.edge_array())
    support = tuple(support)
    return OptResult(
        value=value,
        weighting=x,
        support=support,
        kkt_residual=_kkt_residual(x, plan, value, g.r) if support else 0.0,
        edge_cover_ok=_find_uncovered_pair(g, support) is None,
        method="closed-form",
        iterations=0,
    )


def lagrangian(g: Hypergraph, opts: OptOptions | None = None) -> OptResult:
    """The Lagrangian with an optimal weighting of minimal support.

    Dispatch: 2-graphs use the clique-number closed form; complete
    graphs (up to isolated vertices) use C(t,r)/t^r; everything else
    runs multi-start ascent followed by support minimization, and on a
    left-compressed graph the weights are then sorted non-increasing.
    """
    opts = opts or DEFAULT_OPTIONS
    if not g.edges:
        return _closed_form_result(g, 0.0, ())
    if g.r == 2:
        # One clique search gives both the support and the clique number.
        clique = min(maximum_cliques(g))
        return _closed_form_result(g, float(_motzkin_straus_value(len(clique))), clique)
    active = g.non_isolated()
    if g.m == binomial(len(active), g.r):
        value = float(complete_lagrangian(len(active), g.r))
        return _closed_form_result(g, value, active)
    res = minimize_support(g, ascend_multistart(g, opts), opts)
    if is_left_compressed(g):
        res = _sorted_weights(g, res)
    return res


def _sorted_weights(g: Hypergraph, res: OptResult) -> OptResult:
    """res with its weights sorted non-increasing, unless that lowers P.

    On a left-compressed graph moving the larger weight to the smaller
    vertex never lowers P, so the sorted weighting is optimal too and
    its support is an initial segment; without the sort, ties at the
    last ulp can leave the optimum on another support.
    """
    x = np.ascontiguousarray(np.sort(res.weighting)[::-1])
    if np.array_equal(x, res.weighting):
        return res
    edges = g.edge_array()
    value = float(_kernels.eval_poly(x, edges))
    if value < res.value:
        return res
    support = _support(x)
    return replace(
        res,
        value=value,
        weighting=x,
        support=support,
        kkt_residual=_kkt_residual(x, _kernels._grad_plan(edges), value, g.r),
        edge_cover_ok=_find_uncovered_pair(g, support) is None,
    )


@dataclass(frozen=True)
class CertificateReport:
    """Audit of a weighting against the first-order optimality structure.

    kkt residual and pair cover apply to any graph; the monotone-weights
    and link-difference identities additionally require the graph to be
    left-compressed (they are properties of optima there), so those
    fields are None otherwise. The difference identity
    (x_i - x_j) * pair link value = difference link value is checked
    over support pairs i < j.
    """

    kkt_residual: float
    kkt_ok: bool
    edge_cover_ok: bool
    left_compressed: bool
    monotone_ok: bool | None
    difference_ok: bool | None
    max_difference_residual: float | None
    ok: bool

    def to_record(self) -> dict:
        return {
            "kkt_residual": self.kkt_residual,
            "kkt_ok": self.kkt_ok,
            "edge_cover_ok": self.edge_cover_ok,
            "left_compressed": self.left_compressed,
            "monotone_ok": self.monotone_ok,
            "difference_ok": self.difference_ok,
            "max_difference_residual": self.max_difference_residual,
            "ok": self.ok,
        }


def certify(g: Hypergraph, res: OptResult, tol: float = 1e-8) -> CertificateReport:
    """Check a result's weighting against the optimality conditions."""
    x = as_weighting(res.weighting, g.n)[: g.n]
    value = float(_kernels.eval_poly(x, g.edge_array()))
    support = _support(x) if value > 0.0 else ()
    residual = 0.0
    for i in support:
        residual = max(residual, abs(link_value(g, i, x) - g.r * value))
    kkt_ok = residual <= tol
    cover_ok = _find_uncovered_pair(g, support) is None
    lc = is_left_compressed(g)
    monotone_ok = None
    difference_ok = None
    max_diff = None
    if lc:
        monotone_ok = all(x[i] >= x[i + 1] - tol for i in range(g.n - 1))
        max_diff = 0.0
        for i, j in combinations(support, 2):
            lhs = (x[i - 1] - x[j - 1]) * family_value(pair_link(g, i, j), x)
            rhs = family_value(difference_link(g, i, j), x)
            max_diff = max(max_diff, float(abs(lhs - rhs)))
        difference_ok = max_diff <= tol
    ok = kkt_ok and cover_ok and (not lc or (bool(monotone_ok) and bool(difference_ok)))
    return CertificateReport(
        kkt_residual=residual,
        kkt_ok=kkt_ok,
        edge_cover_ok=cover_ok,
        left_compressed=lc,
        monotone_ok=monotone_ok,
        difference_ok=difference_ok,
        max_difference_residual=max_diff,
        ok=ok,
    )
