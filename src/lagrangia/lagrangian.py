"""Lagrangian of a uniform hypergraph: the maximum of the edge-product
form over the standard simplex, with certificates.

The optimizer is growth-transform ascent (multiplicative update
x_i <- x_i * g_i / sum x_j g_j), which never decreases the objective for
a homogeneous form with nonnegative coefficients. Near a maximum on the
boundary of the simplex, or a non-isolated one, its last digits come
slowly: coordinates decay onto a face at a linear rate near 1, or like
1/k, over thousands of steps. So the gain-stopped run goes in chunks of
``FACE_CHUNK`` steps, and a row still moving after a chunk, or stopped
by the gain test off stationarity, tries a face finish: Newton steps on
the KKT system of a face of its support (``_face_finish``), accepted
only at a stationary local maximum of the face that does not lower P;
on a plateau, where the face Jacobian is singular, the step is the
minimum-norm one. If no face closes a stopped row and two of its
vertices lie in no common edge, as at a saddle of a 2-graph on a
support that is not a clique, P is linear along the pair, so their
weight moves to one of them (``_pair_transfer``, as in
``minimize_support``) and the row runs again. Any other row ends at its
gain stop and reports its residual, which ``certify`` checks again.
Multi-start covers the structured optima. On a left-compressed graph the
Lagrangian is reached on the ordered sector x_1 >= ... >= x_n, whose
corners are the initial segments u_k (uniform on [k]), and the growth
transform keeps an ordered start ordered: x_i g_i - x_j g_j =
x_i w(L_{i-j}) - x_j w(L_{j-i}) >= 0 for i < j. So such a graph first
ascends from the corners alone, and takes the full start set only when
that result is not stationary (``kkt_residual`` above KKT_TOL); its
result says which in ``structured_only``. The full start set, and the
only one on any other graph, is uniform, uniform on every maximum
clique, the corners, and seeded Dirichlet draws.

The starts of several graphs of one r on one n run in lockstep
(``_ascend_graphs``; ``_ascend_rows`` is its one-graph case), in one
loop: each pass runs one growth chunk, one KKT check of the rows that
stopped in it and one face finish, whose drop rounds are one Newton
batch each (``_face_newton``). Every row solves its graph's own
(n + 1) x (n + 1) system, with the coordinates off its face pinned at
0, and every scatter bin, solve and reduction belongs to one row, so
each start ends bit for bit as ``ascend`` from it alone on its graph;
the batches only cut per-call numpy overhead, which on a few vertices
is most of every derivative. So each call builds one ``_kernels.Form``
per graph, and a ``_kernels.Batch`` lays the rows out by graph for one
scatter; every batch of the loop takes its derivatives and values from
the layout of its rows. A form plans each derivative on its first use,
so the Hessian, which only the face finish uses, is planned only in a
call that runs a finish. Bit-identical starts of one graph run once,
and only each graph's kept row is certified. ``lagrangians`` runs the
first start sets of many graphs this way, in locksteps of at most
LOCKSTEP_ROWS rows; ``lagrangian`` is its one-graph case.

``minimize_support`` runs a support drop only when the complete graph
on the s - 1 vertices left, whose Lagrangian C(s - 1, r) / (s - 1)^r
bounds every weighting there, could reach the value it must keep.

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
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .core import (
    Hypergraph,
    LinkSet,
    binomial,
    edge_mask,
    mask_to_edge,
)
from .structure import clique_number, is_left_compressed, maximum_cliques

FEAS_TOL = 1e-12  # absolute slack on the simplex sum constraint
MONOTONE_SLACK = 1e-14  # tolerated per-iteration objective decrease

# The ascent: the objective gain below which a growth run stops, the
# stationarity residual that an accepted face point meets and above which
# a stopped row tries its faces again, the value gap within which a
# support drop is kept, and the weight at or below which a coordinate is
# zeroed before certification.
GAIN_TOL = 1e-12
KKT_TOL = 1e-8
VALUE_TOL = 1e-9
TRIM = 1e-13

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

# The most start rows of one lockstep across graphs (``lagrangians``):
# 16 left-compressed 3-graphs on [8], whose corner sets hold 6 distinct
# rows each (uniform and u_3, ..., u_8, where u_8 is uniform). A batch of
# a few rows is mostly numpy call overhead; every row that stops re-plans
# the batch, at a cost in time and transient memory that grows with its
# rows.
LOCKSTEP_ROWS = 96


@dataclass(frozen=True)
class OptOptions:
    """Knobs shared by every optimization entry point.

    max_iters caps the growth steps of each start, not the Newton steps:
    a start stopped by the cap off stationarity still tries its face
    finish, whose steps count in ``iterations`` too, so a result can
    report more iterations than max_iters (``ascend`` on colex_graph(3,
    30) from uniform on [7] with max_iters=3 reports 7). random_starts
    Dirichlet draws, seeded with seed, join the starts of
    ``ascend_multistart`` only on a graph that is not left-compressed, or
    on one whose corner starts end off stationarity.
    """

    max_iters: int = 20000
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
    structured_only is True when the value came from the corner starts of
    a left-compressed graph alone (``ascend_multistart``), without the
    maximum-clique and random starts.
    """

    value: float
    weighting: np.ndarray
    support: tuple[int, ...]
    kkt_residual: float
    edge_cover_ok: bool
    method: str  # closed-form | ascent | refined
    iterations: int
    structured_only: bool = False

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
            "structured_only": self.structured_only,
        }


def as_weighting(x: Sequence[float], n: int) -> np.ndarray:
    """Validate a simplex point covering at least n vertices."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < n:
        raise ValueError(f"weighting must be a vector of length >= {n}")
    if np.any(arr < 0.0):
        raise ValueError("weighting has a negative entry")
    total = math.fsum(arr.tolist())
    # Written so that a NaN total, from a NaN entry, fails it too.
    if not abs(total - 1.0) <= FEAS_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    return arr


def uniform_weighting(n: int, on: Iterable[int] | None = None) -> np.ndarray:
    """Uniform mass on the given 1-based vertices (default: all of [n]).

    Raises ValueError unless the vertices are distinct and in [1, n], at
    least one.
    """
    verts = list(on) if on is not None else list(range(1, n + 1))
    if not verts or len(set(verts)) < len(verts) or min(verts) < 1 or max(verts) > n:
        raise ValueError(f"need distinct vertices in [1, {n}], got {verts}")
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
    if len(weights) < g.n:
        raise ValueError(f"weighting must be a vector of length >= {g.n}")
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
    return _link_values(g, as_weighting(x, g.n), (i,))[i]


def _link_values(g: Hypergraph, x: np.ndarray, vertices: Iterable[int]) -> dict[int, float]:
    """The link value at x of each of the given 1-based vertices.

    One pass over the edges, each decoded once: an edge adds, for each
    of its members asked for, the product of its other members' weights
    in vertex order. ``math.fsum`` rounds each sum once, so no order of
    the edges changes a value. No kernel is called: ``certify`` checks
    the kernels' results with this.
    """
    w = x.tolist()
    terms: dict[int, list[float]] = {i: [] for i in vertices}
    for mask in g.edges:
        edge = mask_to_edge(mask)
        for i in edge:
            if i in terms:
                terms[i].append(math.prod(w[v - 1] for v in edge if v != i))
    return {i: math.fsum(t) for i, t in terms.items()}


def family_value(link: LinkSet, x: Sequence[float]) -> float:
    """Evaluate an arbitrary equal-arity family (pair links, differences).

    Raises ValueError when x has no weight for some member vertex.
    """
    arr = np.asarray(x, dtype=np.float64)
    if any(v > arr.shape[0] for member in link.members for v in member):
        raise ValueError(f"weighting of length {arr.shape[0]} misses a member vertex")
    return math.fsum(
        math.prod(arr[v - 1] for v in member) for member in link.sorted_members()
    )


def _support(x: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) + 1 for i in np.flatnonzero(x > 0.0))


def _kkt_rows(
    X: np.ndarray, form: _kernels.Form | _kernels.Batch, values: np.ndarray
) -> np.ndarray:
    """The stationarity residual of every row of X, from one gradient
    scatter: max |g_i - rP| over the weights above TRIM, 0.0 for a row
    with none. Each row's gradient is bit-identical to a one-row call,
    so each residual is that of the row alone."""
    gap = np.abs(form.grad(X) - form.r * values[:, None])
    return np.max(gap, axis=1, initial=0.0, where=X > TRIM)


def _find_uncovered_pair(g: Hypergraph, support: Sequence[int]) -> tuple[int, int] | None:
    """The first support pair, in lexicographic order, inside no edge.

    One pass over the edges builds, for every support vertex, the mask
    of the vertices that share an edge with it. The first pair is then
    (i, j) for the smallest i whose mask misses a support vertex j > i,
    with the smallest such j.
    """
    want = edge_mask(support)
    cover = dict.fromkeys(support, 0)
    for edge_bits in g.edges:
        inside = edge_bits & want
        if inside & (inside - 1):  # two support vertices or more
            while inside:
                low = inside & -inside
                cover[low.bit_length()] |= edge_bits
                inside ^= low
    for i in sorted(support):
        above = want & ~cover[i] & -(1 << i)
        if above:
            return i, (above & -above).bit_length()
    return None


def _pair_transfer(x: np.ndarray, form: _kernels.Form, pair: tuple[int, int]) -> np.ndarray:
    """x with the weight of ``pair``, two vertices in no common edge, all
    on the one with the larger link value (ties: the first). P is linear
    along the pair, so this never lowers it."""
    i, j = pair
    x = x.copy()
    grad = form.grad(x)
    keeper, donor = (i, j) if grad[i - 1] >= grad[j - 1] else (j, i)
    x[keeper - 1] += x[donor - 1]
    x[donor - 1] = 0.0
    return x


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
    x: np.ndarray, form: _kernels.Form, value: float, max_steps: int = 100
) -> tuple[bool, np.ndarray, float, int]:
    """Projected-gradient steps restricted to the positive support of x.

    Keeps zero weights at zero so the support can only shrink, matching
    the growth transform; returns (improved, x, value, steps). No solver
    path calls it: it stays because the tests' reference ascent uses it
    as its rescue and the benchmark's tracer patches it.
    """
    mask = x > 0.0
    improved = False
    steps = 0
    for _ in range(max_steps):
        grad = form.grad(x)
        eta = 1.0
        accepted = False
        for _ in range(45):
            y = x.copy()
            y[mask] = _project_simplex(x[mask] + eta * grad[mask])
            new_value = float(form.values(y))
            if new_value > value + 1e-15:
                x, value = y, new_value
                accepted = improved = True
                break
            eta *= 0.5
        steps += 1
        if not accepted:
            break
    return improved, x, value, steps


def _solve_rows(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve jac[i] s_i = rhs[i] for every row; s_i is the minimum-norm
    least-squares step where jac[i] is singular.

    One stacked solve raises for the whole stack if any matrix is
    singular. The stack is then split once: the rows whose LU
    factorization has an exactly zero pivot, where the sign of
    ``slogdet`` is 0 (``det`` can underflow to 0 on a regular matrix),
    are the rows ``solve`` cannot factor and get ``pinv(jac[i]) @ rhs[i]``
    from one stacked ``pinv``; the others are solved as one stack, each
    bit for bit as alone.
    """
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    singular = np.linalg.slogdet(jac).sign == 0.0
    regular = ~singular
    step = np.empty_like(rhs)
    if regular.any():
        step[regular] = np.linalg.solve(jac[regular], rhs[regular, :, None])[..., 0]
    step[singular] = (np.linalg.pinv(jac[singular]) @ rhs[singular, :, None])[..., 0]
    return step


def _face_newton(
    X: np.ndarray, form: _kernels.Form | _kernels.Batch, values: np.ndarray, faces: np.ndarray
) -> list[tuple[np.ndarray, float, int] | None]:
    """Newton steps on the KKT system of one face of the simplex, per row.

    Row i of the (R, n) batch X has value ``values[i]`` and face
    ``faces[i]``, a boolean mask of the coordinates it keeps; faces of
    any size share the batch. The steps solve grad_S P(y) = mu * 1,
    sum_S y = 1 from x renormalized on the face, at most NEWTON_STEPS of
    them; a row stops once its residual is below NEWTON_TOL. Every row
    solves the graph's own (n + 1) x (n + 1) bordered system
    [A -b; b^T 0], with b the face mask and A the Hessian on the face's
    rows and columns, an identity row for each coordinate off the face
    and 0 elsewhere: off the face the step is 0, and steps are masked so
    that such a coordinate stays exactly 0 on the minimum-norm path too.
    There y is 0, so the n-vertex gradient and Hessian give g_S and
    H_SS as the face's own edges would. Where the Jacobian is singular, as on a plateau whose
    twin vertices trade weight freely, the step is the minimum-norm one
    (``_solve_rows``), which moves to the nearest point where the
    linearized system holds; no row is rejected for singularity. The
    rows share one scatter per derivative and one stacked solve per
    step, and every reduction runs along one row, so each row's result
    is that of a batch of that row alone. The end point y of a row is
    accepted only if it is a local maximum of the face that does not
    lower P and is stationary for every coordinate positive in x:

    - every y_S > 0 and P(y) >= values[i];
    - |g_i - rP(y)| <= KKT_TOL on the face;
    - g_j - rP(y) <= KKT_TOL for every j positive in x off the face;
    - the Hessian projected on the face's tangent space {d_S^T 1 = 0,
      d = 0 off S} has no eigenvalue above CURVATURE_TOL, so y is not a
      saddle; a zero eigenvalue, along a plateau or off the face,
      passes.

    Coordinates at exactly zero are ignored: the growth transform never
    revives them. Returns, per row, (y, P(y), steps), or None when y is
    rejected.
    """
    R, n = X.shape
    both = faces[:, :, None] & faces[:, None, :]
    pinned = np.where(faces[:, :, None], 0.0, np.eye(n))
    Z = np.where(faces, X, 0.0)
    Z /= Z.sum(axis=1, keepdims=True)
    mu = form.r * form.values(Z)
    jac = np.zeros((R, n + 1, n + 1))
    jac[:, :n, n] = np.where(faces, -1.0, 0.0)
    jac[:, n, :n] = faces
    resid = np.empty((R, n + 1))
    steps = np.zeros(R, dtype=np.int64)
    live = np.arange(R)
    for _ in range(NEWTON_STEPS):
        resid[:, :n] = np.where(faces, form.grad(Z) - mu[:, None], 0.0)
        resid[:, n] = Z.sum(axis=1) - 1.0
        live = live[~(np.abs(resid[live]).max(axis=1) < NEWTON_TOL)]
        if not live.shape[0]:
            break
        hess = form.hess(Z)[live]
        jac[live, :n, :n] = np.where(both[live], hess, pinned[live])
        step = _solve_rows(jac[live], -resid[live])
        Z[live] += np.where(faces[live], step[:, :n], 0.0)
        mu[live] += step[:, n]
        steps[live] += 1

    out: list[tuple[np.ndarray, float, int] | None] = [None] * R
    keep = np.flatnonzero(((Z > 0.0) | ~faces).all(axis=1))
    Y = Z[keep]
    layout = form.take(keep)
    new_values = layout.values(Y)
    higher = np.flatnonzero(new_values >= values[keep])
    keep, Y, new_values = keep[higher], Y[higher], new_values[higher]
    if not keep.shape[0]:
        return out
    layout = layout.take(higher)
    face = faces[keep]
    gap = layout.grad(Y)
    gap -= form.r * new_values[:, None]
    # |gap| on the face, the gap itself off it where x has weight.
    gap = np.where(face, np.abs(gap), gap)
    stationary = np.flatnonzero(~((gap > KKT_TOL) & (face | (X[keep] > 0.0))).any(axis=1))
    keep, Y, new_values = keep[stationary], Y[stationary], new_values[stationary]
    if not keep.shape[0]:
        return out
    k = faces[keep].sum(axis=1)[:, None, None]
    tangent = np.where(both[keep], np.eye(n) - 1.0 / k, 0.0)
    hess = layout.take(stationary).hess(Y)
    concave = ~(np.linalg.eigvalsh(tangent @ hess @ tangent).max(axis=1) > CURVATURE_TOL)
    for i, y, value in zip(keep[concave], Y[concave], new_values[concave]):
        out[i] = y, float(value), int(steps[i])
    return out


def _face_finish(
    X: np.ndarray, form: _kernels.Form | _kernels.Batch, values: np.ndarray
) -> list[tuple[np.ndarray, float, int] | None]:
    """Per row of X, the first candidate face that ``_face_newton``
    accepts, or None.

    A candidate keeps the coordinates above FACE_FLOOR * max x, minus
    the j = 0..FACE_DROPS of them with the most negative gaps
    g_i - rP(x): those are decaying towards zero under the growth
    transform, slowly near a boundary maximum. The candidates stop at
    the first gap >= -GAP_TOL. Every row still open tries its j-th
    candidate in drop round j, and each round is one ``_face_newton``
    batch, whatever its face sizes.
    """
    base = X > FACE_FLOOR * X.max(axis=1, keepdims=True)
    gap = form.grad(X) - form.r * values[:, None]
    # The base coordinates first, by gap, ties by index.
    order = np.argsort(np.where(base, gap, np.inf), axis=1, kind="stable")
    # Drop j needs the j-th smallest gap below -GAP_TOL and a vertex left.
    drops = np.take_along_axis(gap, order[:, :FACE_DROPS], axis=1)
    left = base.sum(axis=1)[:, None] - 1
    droppable = ~(drops >= -GAP_TOL) & (np.arange(drops.shape[1]) < left)
    candidates = 1 + np.cumprod(droppable, axis=1).sum(axis=1)
    out: list[tuple[np.ndarray, float, int] | None] = [None] * X.shape[0]
    for j in range(FACE_DROPS + 1):
        rows = [i for i in np.flatnonzero(candidates > j).tolist() if out[i] is None]
        if not rows:
            break
        faces = base[rows]
        faces[np.arange(len(rows))[:, None], order[rows, :j]] = False
        tried = _face_newton(X[rows], form.take(rows), values[rows], faces)
        for i, res in zip(rows, tried):
            out[i] = res
    return out


def _ascend_rows(g: Hypergraph, starts: np.ndarray, opts: OptOptions) -> OptResult:
    """The best ``ascend`` result over the starts, run in lockstep: the
    one-graph case of ``_ascend_graphs``.

    ``starts`` holds one simplex point of length g.n per row, already
    checked: ``ascend`` checks its start with ``as_weighting``, and so
    does ``minimize_support`` its drop start; ``ascend_multistart`` and
    ``uniform_weighting`` build valid ones.
    """
    return _ascend_graphs([(g, _distinct(starts))], opts)[0]


def _distinct(starts: np.ndarray) -> np.ndarray:
    """The starts without the rows bit-identical to an earlier one, in
    order: such a row would end where the earlier one does."""
    unique: dict[bytes, np.ndarray] = {}
    for x0 in np.asarray(starts, dtype=np.float64):
        unique.setdefault(x0.tobytes(), x0)
    return np.array(list(unique.values()))


def _ascend_graphs(
    jobs: Sequence[tuple[Hypergraph, np.ndarray]], opts: OptOptions
) -> list[OptResult]:
    """For each (g, starts) job, all graphs of one r on one n, the best ``ascend``
    result over its starts; every start of every job runs in one
    lockstep.

    The rows are grouped by graph, one ``_kernels.Form`` per graph, laid
    out for the whole batch by a ``_kernels.Batch`` (a batch of one
    graph is its form). One loop over the live rows, each pass three
    batches. One ``ascent_rows`` chunk runs the gain-stopped growth for
    FACE_CHUNK steps at most. One ``_kkt_rows`` batch checks the rows
    that stopped in it. One ``_face_finish`` batch then takes the rows
    still moving (a whole chunk run, with iterations left) and the
    stopped rows whose residual is above KKT_TOL; a row that a face
    closes leaves. A stopped row that no face closes, with iterations
    left and two vertices above FACE_FLOOR * max in no common edge of
    its graph, takes the pair transfer and stays live; the weights below
    are decaying and on no face. Each transfer shrinks the support, so a
    row takes at most n of them. Any other stopped row keeps its
    gain-stop point and its residual. Every row ends where a separate
    ``ascend`` from its start on its graph ends, bit for bit. Each job's
    starts are distinct (``_distinct``); starts of different graphs never
    merge. ``_ascent_result`` keeps each graph's best row and certifies
    only it, with the graph's form.
    """
    graphs = [g for g, _ in jobs]
    counts = [len(starts) for _, starts in jobs]
    # Graph j holds the rows up to ends[j].
    ends = list(accumulate(counts))
    X = np.concatenate([starts for _, starts in jobs])
    forms = [_kernels.Form(g.edge_array(), g.n) for g in graphs]
    # The layout of the live rows.
    form = forms[0] if len(forms) == 1 else _kernels.Batch(forms, counts)
    iters = np.zeros(X.shape[0], dtype=np.int64)
    live = np.arange(X.shape[0])
    while live.shape[0]:
        caps = [min(FACE_CHUNK, opts.max_iters - d) for d in iters[live].tolist()]
        Y, values, its, worst = _kernels.ascent_rows(X[live], form, caps, GAIN_TOL)
        drops = worst[worst < -MONOTONE_SLACK]
        if drops.shape[0]:
            raise AssertionError(f"ascent decreased the objective by {-drops[0]:.3e}")
        X[live] = Y
        iters[live] += its
        # A row still moving after a whole chunk is often decaying onto a
        # face at a linear rate near 1, and Newton steps on that face
        # finish it. A row that the gain stop left off stationarity may
        # be near such a face too.
        moving = (its == caps) & (iters[live] < opts.max_iters)
        tried = moving.copy()
        stopped = np.flatnonzero(~moving)
        if stopped.shape[0]:
            residuals = _kkt_rows(Y[stopped], form.take(stopped), values[stopped])
            tried[stopped] = residuals > KKT_TOL
        rows = np.flatnonzero(tried)
        outs = _face_finish(Y[rows], form.take(rows), values[rows]) if rows.shape[0] else []
        keep = moving.copy()
        for i, out in zip(rows.tolist(), outs):
            k = live[i]
            if out is not None:
                X[k], _, steps = out
                iters[k] += steps
                keep[i] = False
            elif not moving[i]:
                j = bisect_right(ends, k)
                base = np.flatnonzero(X[k] > FACE_FLOOR * X[k].max()) + 1
                pair = _find_uncovered_pair(graphs[j], base.tolist())
                if pair is not None and iters[k] < opts.max_iters:
                    X[k] = _pair_transfer(X[k], forms[j], pair)
                    keep[i] = True
        live = live[keep]
        form = form.take(np.flatnonzero(keep))
    iterations = iters.tolist()
    return [
        _ascent_result(g, form, X[end - k : end], iterations[end - k : end])
        for g, form, k, end in zip(graphs, forms, counts, ends)
    ]


def _ascent_result(
    g: Hypergraph, form: _kernels.Form, X: np.ndarray, iterations: Sequence[int]
) -> OptResult:
    """Trim and renormalize the end point of every ascent, one per row of
    X, and certify the best.

    Weights at or below TRIM are zeroed. Rows rank by value desc,
    support size asc, weights lex desc, and the first of equal rows
    wins; a row of value 0 has an empty support. Every reduction runs
    along one row, so each row is trimmed as it would be alone.
    """
    X = np.where(X > TRIM, X, 0.0)
    total = X.sum(axis=1, keepdims=True)
    X = np.divide(X, total, out=X, where=total > 0.0)
    values = form.values(X)
    sizes = np.where(values > 0.0, (X > 0.0).sum(axis=1), 0)
    # Only rows tied in value and size compare weights.
    tied = np.flatnonzero(values == values.max())
    tied = tied[sizes[tied] == sizes[tied].min()].tolist()
    best = min(tied, key=lambda k: tuple(-X[k])) if len(tied) > 1 else tied[0]
    x, value = X[best], float(values[best])
    support = _support(x) if value > 0.0 else ()
    return _certified(g, form, x, value, support, "ascent", iterations[best])


def _certified(
    g: Hypergraph,
    form: _kernels.Form,
    x: np.ndarray,
    value: float,
    support: tuple[int, ...],
    method: str,
    iterations: int,
) -> OptResult:
    """The result at x with its KKT residual and pair-cover certificate.

    x is trimmed, uniform on its support or a sorted trimmed point, so
    its weights above TRIM are its positive weights.
    """
    return OptResult(
        value=value,
        weighting=x,
        support=support,
        kkt_residual=float(_kkt_rows(x[None], form, np.array([value]))[0]) if support else 0.0,
        edge_cover_ok=_find_uncovered_pair(g, support) is None,
        method=method,
        iterations=iterations,
    )


def ascend(g: Hypergraph, x0: Sequence[float], opts: OptOptions | None = None) -> OptResult:
    """Monotone ascent from one start; certificates computed at the end.

    Growth-transform iterations run in chunks of FACE_CHUNK steps until
    the objective gain falls below GAIN_TOL or opts.max_iters steps have
    run. After a whole chunk, or a gain stop with a stationarity residual
    on the support above KKT_TOL, a Newton face finish is tried. A
    stopped point that no face closes, with a support pair in no edge,
    moves the pair's weight to one vertex and the ascent runs again; any
    other is returned as the gain stop left it, with its residual in
    ``kkt_residual``. Newton steps count as iterations.
    Weights at or below TRIM are then zeroed and the vector
    renormalized. A zero objective with zero gradient comes back as
    value 0 with an empty support.
    """
    x = as_weighting(x0, g.n)
    if x.shape[0] > g.n:
        if np.any(x[g.n :] > 0.0):
            raise ValueError("start point puts weight on vertices beyond the graph")
        x = x[: g.n]
    return _ascend_rows(g, x[None, :], opts or DEFAULT_OPTIONS)


def ascend_multistart(g: Hypergraph, opts: OptOptions | None = None) -> OptResult:
    """Best ascent result over the structured and random start set.

    The corners of the ordered sector x_1 >= ... >= x_n are u_k, uniform
    on the initial segment [k], for k = r..n; u_n is uniform on [n]. On
    a left-compressed graph they run alone first (uniform first, as in
    the full set), and their result, tagged ``structured_only``, is kept
    unless its kkt_residual is above KKT_TOL. Otherwise, and on every
    graph that is not left-compressed, the full start set runs: uniform
    on [n], uniform on every maximum clique, the corners, and
    opts.random_starts Dirichlet draws from a generator seeded with
    opts.seed. So the random starts, and opts.seed, act only there.
    ``lagrangians`` runs the first start sets of many graphs in one
    lockstep and takes the same second step per graph.
    """
    opts = opts or DEFAULT_OPTIONS
    return _escalated(g, _ascend_rows(g, _first_starts(g, opts), opts), opts)


def _corner_starts(g: Hypergraph) -> list[np.ndarray]:
    """Uniform on [n], then the corners u_k for k = r..n."""
    n = g.n
    corners = [uniform_weighting(n, range(1, k + 1)) for k in range(g.r, n + 1)]
    return [uniform_weighting(n), *corners]


def _full_starts(g: Hypergraph, opts: OptOptions) -> np.ndarray:
    """Uniform on [n], uniform on every maximum clique, the corners, and
    opts.random_starts Dirichlet draws seeded with opts.seed."""
    uniform, *corners = _corner_starts(g)
    starts = [uniform]
    for clique in maximum_cliques(g):
        starts.append(uniform_weighting(g.n, clique))
    starts += corners
    if opts.random_starts > 0:
        rng = np.random.default_rng(opts.seed)
        for _ in range(opts.random_starts):
            starts.append(rng.dirichlet(np.ones(g.n)))
    return np.array(starts)


def _first_starts(g: Hypergraph, opts: OptOptions) -> np.ndarray:
    """The start set that ``ascend_multistart`` runs first: the corners on
    a left-compressed graph, the full set on any other."""
    return np.array(_corner_starts(g)) if g.left_compressed else _full_starts(g, opts)


def _escalated(g: Hypergraph, first: OptResult, opts: OptOptions) -> OptResult:
    """The multistart result from the result of the first start set: the
    corner result tagged ``structured_only`` when it is stationary, the
    full set's otherwise; on a graph that is not left-compressed the
    first set was the full set."""
    if not g.left_compressed:
        return first
    if not first.kkt_residual > KKT_TOL:
        return replace(first, structured_only=True)
    return _ascend_rows(g, _full_starts(g, opts), opts)


def minimize_support(
    g: Hypergraph, res: OptResult, opts: OptOptions | None = None
) -> OptResult:
    """Shrink the support while the value holds up.

    Two moves, repeated to a fixed point. If some support pair lies in
    no edge, the objective is linear in shifting weight between the two,
    so all of it moves to the vertex with the larger link value and the
    other leaves the support. Otherwise the smallest-weight vertex
    (ties: largest index) is dropped and the remainder re-optimized; the
    shrink is kept only when the value matches within VALUE_TOL.

    That re-optimization never leaves the other s - 1 vertices of the
    support: growth keeps zeros at zero, and faces and pair transfers
    stay inside the support. So its value is at most the complete
    graph's, C(s - 1, r) / (s - 1)^r (0 when s - 1 < r), up to rounding
    (``_complete_ceiling``). When that is below the value less
    VALUE_TOL, the drop cannot be kept, and the loop ends without
    running it.
    """
    opts = opts or DEFAULT_OPTIONS
    form = _kernels.Form(g.edge_array(), g.n)
    best = res
    changed = False
    while len(best.support) > 1:
        pair = _find_uncovered_pair(g, best.support)
        if pair is not None:
            cand = ascend(g, _pair_transfer(best.weighting, form, pair), opts)
            if cand.value >= best.value - VALUE_TOL:
                best = cand
                changed = True
                continue
            break
        if _complete_ceiling(len(best.support) - 1, g.r) < best.value - VALUE_TOL:
            break
        weights = best.weighting
        drop = min(best.support, key=lambda v: (weights[v - 1], -v))
        x = weights.copy()
        x[drop - 1] = 0.0
        total = x.sum()
        if total <= 0.0:
            break
        remaining = [v for v in best.support if v != drop]
        starts = [as_weighting(x / total, g.n), uniform_weighting(g.n, remaining)]
        cand = _ascend_rows(g, np.array(starts), opts)
        if cand.value >= best.value - VALUE_TOL:
            best = cand
            changed = True
        else:
            break
    if changed:
        best = replace(best, method="refined", structured_only=res.structured_only)
    return best


def _complete_ceiling(k: int, r: int) -> float:
    """The largest value that a weighting on k vertices can evaluate to:
    the Lagrangian of the complete r-graph on them, C(k, r) / k^r (0
    when k < r), raised by a rounding slack.

    Any r-graph's form is at most the complete one's on the same
    vertices. A weighting renormalized to sum 1 sums to within about k
    half-ulps of 1, so its exact value is at most the Lagrangian times
    (1 + k eps / 2)^r; each product of r weights rounds r - 1 times and
    the fsum once. The slack r (k + 1) eps, relative, is about twice
    all of that.
    """
    lam = Fraction(binomial(k, r), k**r)
    return float(lam) * (1.0 + r * (k + 1) * math.ulp(1.0))


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
    form = _kernels.Form(g.edge_array(), g.n)
    return _certified(g, form, x, value, tuple(support), "closed-form", 0)


def _closed_form(g: Hypergraph) -> OptResult | None:
    """The closed-form result of an edgeless graph, a 2-graph or a
    complete graph (up to isolated vertices), or None for any other."""
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
    return None


def lagrangian(g: Hypergraph, opts: OptOptions | None = None) -> OptResult:
    """The Lagrangian with an optimal weighting of minimal support: the
    one-graph case of ``lagrangians``.

    Dispatch: 2-graphs use the clique-number closed form; complete
    graphs (up to isolated vertices) use C(t,r)/t^r; everything else
    runs multi-start ascent followed by support minimization, and on a
    left-compressed graph the weights are then sorted non-increasing.
    """
    return lagrangians([g], opts)[0]


def lagrangians(graphs: Sequence[Hypergraph], opts: OptOptions | None = None) -> list[OptResult]:
    """``lagrangian`` of each graph, in order, bit for bit.

    Closed forms apply per graph. The first start sets of the other
    graphs (``ascend_multistart``), each without its repeated rows, run
    in lockstep: the graphs of one r on one n, in order, join one
    ``_ascend_graphs`` batch while their rows fit in LOCKSTEP_ROWS, and
    a graph whose rows alone do not fit runs alone. Each row ends as it
    would in its graph's own batch, so the grouping moves no byte.
    Escalation to the full start set, support minimization and the
    weight sort then run per graph, as each lockstep ends.
    """
    opts = opts or DEFAULT_OPTIONS
    out = [_closed_form(g) for g in graphs]
    # By (r, n): the lockstep being filled, (index, starts) per graph.
    pending: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = {}

    def run(lockstep: list[tuple[int, np.ndarray]]) -> None:
        solved = _ascend_graphs([(graphs[i], starts) for i, starts in lockstep], opts)
        for (i, _), first in zip(lockstep, solved):
            g = graphs[i]
            res = minimize_support(g, _escalated(g, first, opts), opts)
            out[i] = _sorted_weights(g, res) if is_left_compressed(g) else res

    for i, g in enumerate(graphs):
        if out[i] is None:
            starts = _distinct(_first_starts(g, opts))
            lockstep = pending.setdefault((g.r, g.n), [])
            if lockstep and sum(len(s) for _, s in lockstep) + len(starts) > LOCKSTEP_ROWS:
                run(lockstep)
                lockstep.clear()
            lockstep.append((i, starts))
    for lockstep in pending.values():
        run(lockstep)
    return out


def _sorted_weights(g: Hypergraph, res: OptResult) -> OptResult:
    """res with its weights sorted non-increasing, unless that lowers P
    beyond rounding.

    On a left-compressed graph moving the larger weight to the smaller
    vertex never lowers P, so the sorted weighting is optimal too and
    its support is an initial segment; without the sort, ties at the
    last ulp can leave the optimum on another support. The computed P of
    a weighting is an fsum of products rounded r - 1 times, within about
    r * eps / 2 of the exact value, relative; so the sorted weighting
    can evaluate lower by up to about r * eps, relative, and is kept
    unless it falls below res.value by more than twice that.
    """
    x = np.ascontiguousarray(np.sort(res.weighting)[::-1])
    if np.array_equal(x, res.weighting):
        return res
    form = _kernels.Form(g.edge_array(), g.n)
    value = float(form.values(x))
    if value < res.value * (1.0 - 2 * g.r * np.finfo(np.float64).eps):
        return res
    sorted_res = _certified(g, form, x, value, _support(x), res.method, res.iterations)
    return replace(sorted_res, structured_only=res.structured_only)


def _difference_sides(
    g: Hypergraph, x: np.ndarray, support: Sequence[int]
) -> dict[tuple[int, int], tuple[float, float]]:
    """Both sides of the difference identity for every support pair i < j:
    (x_i - x_j) times the weight of the pair link of {i, j}, and the
    weight of the difference link of (i, j).

    One pass over the edges, each decoded once: an edge holding support
    vertices i < j adds the product of its other members' weights to the
    pair link of {i, j}, and each (r - 1)-set A = e - {v} records v as a
    vertex completing A to an edge. Then A adds the product of its
    weights to the difference link of (i, j) for each support pair i < j
    with i completing A and j neither in A nor completing it. Products
    run in vertex order and each sum is one ``math.fsum``, as
    ``family_value`` over ``pair_link`` and ``difference_link`` takes
    them, so both sides are those of that path, bit for bit.
    """
    w = x.tolist()
    want = edge_mask(support)
    pairs = {p: [] for p in combinations(support, 2)}
    diffs = {p: [] for p in pairs}
    completing: dict[int, int] = {}
    for mask in g.edges:
        edge = mask_to_edge(mask)
        for i, j in combinations([v for v in edge if want >> (v - 1) & 1], 2):
            pairs[i, j].append(math.prod(w[v - 1] for v in edge if v != i and v != j))
        for v in edge:
            bit = 1 << (v - 1)
            completing[mask ^ bit] = completing.get(mask ^ bit, 0) | bit
    for rest, ends in completing.items():
        term = None
        firsts = ends & want
        while firsts:
            first = firsts & -firsts
            firsts ^= first
            # The support vertices above i outside the rest that do not complete it.
            seconds = want & ~ends & ~rest & -(first << 1)
            if seconds and term is None:
                term = math.prod(w[v - 1] for v in mask_to_edge(rest))
            while seconds:
                second = seconds & -seconds
                seconds ^= second
                diffs[first.bit_length(), second.bit_length()].append(term)
    return {
        (i, j): ((w[i - 1] - w[j - 1]) * math.fsum(terms), math.fsum(diffs[i, j]))
        for (i, j), terms in pairs.items()
    }


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
    for link in _link_values(g, x, support).values():
        residual = max(residual, abs(link - g.r * value))
    kkt_ok = residual <= tol
    cover_ok = _find_uncovered_pair(g, support) is None
    lc = is_left_compressed(g)
    monotone_ok = None
    difference_ok = None
    max_diff = None
    if lc:
        monotone_ok = all(x[i] >= x[i + 1] - tol for i in range(g.n - 1))
        max_diff = 0.0
        for lhs, rhs in _difference_sides(g, x, support).values():
            max_diff = max(max_diff, abs(lhs - rhs))
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
