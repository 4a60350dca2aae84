"""Lagrangian of a uniform hypergraph: the maximum of the edge-product
form over the standard simplex, with certificates.

The optimizer is growth-transform ascent (multiplicative update
x_i <- x_i * g_i / sum x_j g_j), which never decreases the objective for
a homogeneous form with nonnegative coefficients, plus a
projected-gradient rescue for a stall at a non-stationary point. The
rescue is not rare on small 3-graphs: one pass of the benchmark's
``ascent_3graph`` workload runs it 213 times in 733 ascents.
Multi-start covers the structured optima: uniform, uniform on maximum
cliques, uniform on initial segments, and seeded Dirichlet draws.

The starts of one graph run in lockstep: every growth-transform phase
(the gain-stopped run, each round of fixed-length bursts, the run after
a rescue) takes the rows that need it as one ``_kernels.ascent_rows``
batch, and a row leaves the batch when it stops. Rows are bit-identical
to separate runs, so the result of each start is that of ``ascend``
from it alone; the batch only cuts per-step numpy overhead.

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
    x: np.ndarray, edges: np.ndarray, value: float, r: int, floor: float = 0.0
) -> float:
    """Stationarity residual over the coordinates above ``floor``."""
    grad = _kernels.link_grad(x, edges)
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
    x: np.ndarray, edges: np.ndarray, value: float, max_steps: int = 100
) -> tuple[bool, np.ndarray, float, int]:
    """Projected-gradient steps restricted to the positive support of x.

    Keeps zero weights at zero so the support can only shrink, matching
    the growth transform; returns (improved, x, value, steps).
    """
    mask = x > 0.0
    improved = False
    steps = 0
    for _ in range(max_steps):
        grad = _kernels.link_grad(x, edges)
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


def _check_monotone(worst: np.ndarray) -> None:
    drops = worst[worst < -MONOTONE_SLACK]
    if drops.shape[0]:
        raise AssertionError(f"ascent decreased the objective by {-drops[0]:.3e}")


def _ascend_rows(
    g: Hypergraph, starts: Sequence[Sequence[float]], opts: OptOptions
) -> list[OptResult]:
    """``ascend`` from every start, the starts run in lockstep.

    Each phase runs the rows that need it as one ``ascent_rows`` batch;
    every row takes the same steps, bursts and rescues it would take
    alone, so each result equals a separate ``ascend`` bit for bit.
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
    values = [0.0] * len(xs)
    total_iters = [0] * len(xs)

    def run(idx: list[int], caps, tol: float) -> None:
        X, vals, its, worst = _kernels.ascent_rows(
            np.array([xs[k] for k in idx]), edges, caps, tol
        )
        _check_monotone(worst)
        for i, k in enumerate(idx):
            xs[k], values[k] = X[i], float(vals[i])
            total_iters[k] += int(its[i])

    def kkt(k: int) -> float:
        return _kkt_residual(xs[k], edges, values[k], g.r, floor=opts.trim)

    everyone = list(range(len(xs)))
    run(everyone, opts.max_iters, opts.tol)

    # The gain criterion can fire while boundary-bound coordinates are
    # still drifting to zero, which leaves the trimmed-support residual
    # high. Extra fixed-length bursts (tol < 0 disables the gain stop)
    # let the multiplicative decay finish; a projected-gradient rescue
    # handles a genuine stall. A row leaves the rounds for good once it
    # is stationary, out of iterations or not improved by a rescue.
    residual = [kkt(k) for k in everyone]
    live = everyone
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
                    xs[k], edges, values[k], max_steps=30
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

    return [_ascent_result(g, edges, xs[k], total_iters[k], opts) for k in everyone]


def _ascent_result(
    g: Hypergraph, edges: np.ndarray, x: np.ndarray, iterations: int, opts: OptOptions
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
        kkt_residual=_kkt_residual(x, edges, value, g.r),
        edge_cover_ok=_find_uncovered_pair(g, support) is None,
        method="ascent",
        iterations=iterations,
    )


def ascend(g: Hypergraph, x0: Sequence[float], opts: OptOptions | None = None) -> OptResult:
    """Monotone ascent from one start; certificates computed at the end.

    Growth-transform iterations run until the objective gain falls below
    opts.tol; if the stationarity residual on the support is still above
    opts.kkt_tol the optimizer interleaves projected-gradient bursts.
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
    edges = g.edge_array()
    best = res
    changed = False
    while len(best.support) > 1:
        pair = _find_uncovered_pair(g, best.support)
        if pair is not None:
            i, j = pair
            x = best.weighting.copy()
            grad = _kernels.link_grad(x, edges)
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
    edges = g.edge_array()
    support = tuple(support)
    return OptResult(
        value=value,
        weighting=x,
        support=support,
        kkt_residual=_kkt_residual(x, edges, value, g.r) if support else 0.0,
        edge_cover_ok=_find_uncovered_pair(g, support) is None,
        method="closed-form",
        iterations=0,
    )


def lagrangian(g: Hypergraph, opts: OptOptions | None = None) -> OptResult:
    """The Lagrangian with an optimal weighting of minimal support.

    Dispatch: 2-graphs use the clique-number closed form; complete
    graphs (up to isolated vertices) use C(t,r)/t^r; everything else
    runs multi-start ascent followed by support minimization.
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
    res = ascend_multistart(g, opts)
    return minimize_support(g, res, opts)


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
