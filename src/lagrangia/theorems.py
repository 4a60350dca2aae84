"""Desk-scale verifiers for extremal claims about 3-graph Lagrangians.

Every verifier enumerates a finite, explicitly disclosed search space,
classifies each instance as ok / violation / indeterminate, and returns
a TheoremReport.  Reports embed the seed, the tolerances, and the search
space, and serialize to byte-identical JSON when rerun with the same
configuration.  Numeric Lagrangian values are lower bounds produced by
certified ascent; strict inequalities are therefore asserted with an
explicit margin, and instances that land inside the margin are reported
as indeterminate rather than silently passed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, groupby
from typing import Callable, Iterable, Sequence

from ._version import VERSION
from .core import Edge, Hypergraph, _check_size, binomial, colex_graph, pair_link
from .lagrangian import (
    DEFAULT_OPTIONS,
    VALUE_TOL,
    OptOptions,
    OptResult,
    complete_lagrangian,
    evaluate_exact,
    lagrangian,  # unused here; kept in this namespace for code that looks it up
    lagrangians,
)
from .structure import clique_number, contains_clique, dominance_le, enumerate_left_compressed

__all__ = [
    "VerifyOptions",
    "DEFAULT_VERIFY",
    "ParamRange",
    "TheoremReport",
    "WitnessResult",
    "theorem1_range",
    "verify_colex_plateau",
    "verify_theorem1",
    "verify_pz18",
    "counterexample_witness",
    "lemma_tal9_audit",
    "theorem2_bound",
    "verify_theorem2",
    "corollary_threshold",
    "verify_corollary",
    "proposition_k4_check",
    "bp_bound",
    "bp_check",
    "theorem43_check",
    "lemmaeq_dichotomy_audit",
    "witness_report",
]


# The largest ground set [t] admitted to exhaustive enumeration.
MAX_GROUND = 8


@dataclass(frozen=True)
class VerifyOptions:
    """Shared verifier configuration.

    tol bounds |observed - target| for equality-style claims; margin is
    the slack demanded before a strict inequality counts as confirmed;
    seed is the optimizer seed of every instance; parallelism fans
    instances out over processes when greater than one (capped at the
    cpu count and the number of instances). opt holds the optimizer's
    other knobs: verifiers never read ``opt.seed``, because
    ``_map_lagrangian`` solves every instance with seed in its place,
    not with a seed derived from the instance's index, so a result
    depends only on its graph and these options. The ground-set guard
    of the exhaustive verifiers is the constant MAX_GROUND.
    """

    tol: float = 1e-7
    margin: float = 1e-6
    seed: int = 0
    parallelism: int = 1
    opt: OptOptions = DEFAULT_OPTIONS


DEFAULT_VERIFY = VerifyOptions()


@dataclass(frozen=True)
class ParamRange:
    """Closed edge-count interval attached to a ground-set size."""

    t: int
    m_low: int
    m_high: int

    def m_values(self) -> range:
        return range(self.m_low, self.m_high + 1)


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one verifier run.

    verdict is "fail" when any violation was found, "indeterminate" when
    no violation was found but some instance could not be classified
    within tolerance, "vacuous" when the claim had no instances to bite
    on, and "pass" otherwise.
    """

    theorem_id: str
    params: dict
    search_space: str
    seed: int
    tolerances: dict
    instances_checked: int
    violations: tuple[dict, ...]
    indeterminate: tuple[dict, ...]
    verdict: str
    notes: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_record(self) -> dict:
        return {
            "version": VERSION,
            "theorem_id": self.theorem_id,
            "params": dict(self.params),
            "search_space": self.search_space,
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
            "instances_checked": self.instances_checked,
            "violations": [dict(v) for v in self.violations],
            "indeterminate": [dict(v) for v in self.indeterminate],
            "verdict": self.verdict,
            "notes": list(self.notes),
            "extras": self.extras,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"check:     {self.theorem_id}",
            f"params:    {json.dumps(self.params, sort_keys=True)}",
            f"space:     {self.search_space}",
            f"seed:      {self.seed}",
            f"instances: {self.instances_checked}",
            f"verdict:   {self.verdict.upper()}"
            f" ({len(self.violations)} violations,"
            f" {len(self.indeterminate)} indeterminate)",
        ]
        for v in self.violations:
            lines.append(f"  violation: {json.dumps(v, sort_keys=True)}")
        for v in self.indeterminate:
            lines.append(f"  indeterminate: {json.dumps(v, sort_keys=True)}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def _make_report(
    theorem_id: str,
    params: dict,
    search_space: str,
    opts: VerifyOptions,
    instances: int,
    violations: Sequence[dict] = (),
    indeterminate: Sequence[dict] = (),
    *,
    vacuous: bool = False,
    notes: Iterable[str] = (),
    extras: dict | None = None,
) -> TheoremReport:
    if violations:
        verdict = "fail"
    elif indeterminate:
        verdict = "indeterminate"
    elif vacuous or instances == 0:
        verdict = "vacuous"
    else:
        verdict = "pass"
    return TheoremReport(
        theorem_id=theorem_id,
        params=dict(params),
        search_space=search_space,
        seed=opts.seed,
        tolerances={"tol": opts.tol, "margin": opts.margin},
        instances_checked=instances,
        violations=tuple(violations),
        indeterminate=tuple(indeterminate),
        verdict=verdict,
        notes=tuple(notes),
        extras=dict(extras or {}),
    )


def _check_ground(t: int) -> None:
    """Refuse a ground set [t] too large to enumerate exhaustively."""
    if t > MAX_GROUND:
        raise ValueError(
            f"ground set [{t}] exceeds the enumeration guard (max_ground={MAX_GROUND})"
        )


def _solve_chunk(task: tuple[Sequence[Hypergraph], OptOptions]) -> list[OptResult]:
    graphs, opt = task
    return lagrangians(graphs, opt)


def _pool_size(requested: int, tasks: int) -> int:
    """Workers worth starting: no more than requested, cores, or tasks."""
    return max(1, min(requested, os.cpu_count() or 1, tasks))


def _left_compressed(
    t: int,
    ms: Iterable[int],
    keep: Callable[[Hypergraph], bool] | None = None,
    universe: Sequence[Edge] | None = None,
) -> list[Hypergraph]:
    """Every left-compressed 3-graph on [t] with m in ms (and inside
    universe, when given) that keep accepts, in enumeration order. A t
    over the guard is refused before any graph is listed."""
    _check_ground(t)
    return [
        g
        for m in ms
        for g in enumerate_left_compressed(t, 3, m, universe=universe)
        if keep is None or keep(g)
    ]


def _map_lagrangian(
    graphs: Sequence[Hypergraph], opts: VerifyOptions
) -> list[tuple[Hypergraph, OptResult]]:
    """(g, result) for each graph, solved with opts.opt under the run's
    seed, opts.seed, not one derived from the graph's index: a result
    depends only on the graph and the options.

    The graphs go to ``lagrangians``, which runs their starts in
    lockstep batches of a bounded number of rows. A serial run hands it
    every graph; a pool of w workers hands worker j the chunk of every
    w-th graph from the j-th, so that neighbouring graphs, which cost
    alike, spread over the workers. A result does not depend on the
    batch its graph falls in, so every chunking gives the same bytes.
    """
    opt = replace(opts.opt, seed=opts.seed)
    workers = _pool_size(opts.parallelism, len(graphs))
    tasks = [(graphs[j::workers], opt) for j in range(workers)]
    if workers == 1:
        chunks = [_solve_chunk(task) for task in tasks]
    else:
        # Imported here so that a serial run never loads the pool's
        # modules (multiprocessing, subprocess).
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_solve_chunk, tasks))
    # Graph i is the (i // workers)-th of chunk i % workers.
    return [(g, chunks[i % workers][i // workers]) for i, g in enumerate(graphs)]


def _structured_only(solved: Iterable[tuple[Hypergraph, OptResult]]) -> int:
    """How many solved instances took their value from the corner starts
    alone (``OptResult.structured_only``), without the full start set."""
    return sum(res.structured_only for _, res in solved)


def _edge_record(g: Hypergraph) -> list[list[int]]:
    return [list(e) for e in g.edge_list()]


def _entry(g: Hypergraph, res: OptResult, **fields) -> dict:
    """A per-instance record: edge count, edges, solved value, and fields."""
    return {"m": g.m, "edges": _edge_record(g), "value": res.value, **fields}


def plateau_range(t: int) -> ParamRange:
    """Edge counts for which the colex Lagrangian sits on the flat stretch."""
    if t < 5:
        raise ValueError("need t >= 5")
    lo = binomial(t - 1, 3)
    return ParamRange(t, lo, lo + binomial(t - 2, 2))


def theorem1_range(t: int) -> ParamRange:
    """Edge counts covered by the clique-free strict-inequality claim."""
    if t < 5:
        raise ValueError("need t >= 5")
    m_low = binomial(t - 1, 3)
    # floor(m_low + C(t-2, 2) - (t - 1)/2), kept in integer arithmetic:
    # subtracting ceil((t - 1)/2) = t // 2 is the same thing.
    m_high = m_low + binomial(t - 2, 2) - t // 2
    return ParamRange(t, m_low, m_high)


def verify_colex_plateau(t: int, opts: VerifyOptions = DEFAULT_VERIFY) -> TheoremReport:
    """Check that colex graphs keep the complete-graph Lagrangian value
    while the edge count climbs across the plateau range."""
    rng = plateau_range(t)
    target = complete_lagrangian(t - 1, 3)
    tf = float(target)
    solved = _map_lagrangian([colex_graph(3, m) for m in rng.m_values()], opts)
    violations = [
        {
            "m": g.m,
            "value": res.value,
            "target": tf,
            "abs_error": abs(res.value - tf),
            "kkt_residual": res.kkt_residual,
        }
        for g, res in solved
        if abs(res.value - tf) > opts.tol
    ]
    values = [[g.m, res.value] for g, res in solved]
    return _make_report(
        "colex-plateau",
        {"t": t, "m_low": rng.m_low, "m_high": rng.m_high},
        f"colex 3-graphs with m in [{rng.m_low}, {rng.m_high}]",
        opts,
        len(solved),
        violations,
        notes=(f"target {target} shared by every m in the range",),
        extras={
            "target_exact": str(target),
            "values": values,
            "structured_only": _structured_only(solved),
        },
    )


def _classify_strict_below(value: float, target: float, margin: float) -> str:
    if value > target:
        return "violation"
    if value < target - margin:
        return "ok"
    return "indeterminate"


def verify_theorem1(t: int, opts: VerifyOptions = DEFAULT_VERIFY) -> TheoremReport:
    """Check that left-compressed 3-graphs in the critical edge-count range
    with no clique on t-1 vertices stay strictly below the complete value.

    Restricting to the left-compressed class loses no generality:
    compressing preserves the edge count, never lowers the Lagrangian,
    and never creates a clique, so a violation in the full class would
    compress into a violation inside the enumerated one.
    """
    rng = theorem1_range(t)
    target = complete_lagrangian(t - 1, 3)
    tf = float(target)
    solved = _map_lagrangian(
        _left_compressed(t, rng.m_values(), lambda g: not contains_clique(g, t - 1)),
        opts,
    )
    violations: list[dict] = []
    indeterminate: list[dict] = []
    for g, res in solved:
        label = _classify_strict_below(res.value, tf, opts.margin)
        if label != "ok":
            entry = _entry(g, res, target=tf, kkt_residual=res.kkt_residual)
            (violations if label == "violation" else indeterminate).append(entry)
    closest = min((tf - res.value for _, res in solved), default=None)
    return _make_report(
        "theorem1",
        {"t": t, "m_low": rng.m_low, "m_high": rng.m_high},
        (
            f"left-compressed 3-graphs on [{t}] with m in"
            f" [{rng.m_low}, {rng.m_high}] and no {t - 1}-clique"
        ),
        opts,
        len(solved),
        violations,
        indeterminate,
        notes=(
            "compression preserves edge count and clique-freeness and never"
            " lowers the Lagrangian, so the left-compressed class is exhaustive",
        ),
        extras={
            "target_exact": str(target),
            "smallest_gap_to_target": closest,
            "structured_only": _structured_only(solved),
        },
    )


def verify_pz18(t: int, opts: VerifyOptions = DEFAULT_VERIFY) -> TheoremReport:
    """Check that left-compressed 3-graphs on the plateau range that do
    contain a clique on t-1 vertices attain exactly the complete value."""
    rng = plateau_range(t)
    target = complete_lagrangian(t - 1, 3)
    tf = float(target)
    solved = _map_lagrangian(
        _left_compressed(t, rng.m_values(), lambda g: contains_clique(g, t - 1)), opts
    )
    violations: list[dict] = []
    worst = 0.0
    for g, res in solved:
        err = abs(res.value - tf)
        worst = max(worst, err)
        if err > opts.tol:
            violations.append(
                _entry(g, res, target=tf, abs_error=err, kkt_residual=res.kkt_residual)
            )
    return _make_report(
        "pz18",
        {"t": t, "m_low": rng.m_low, "m_high": rng.m_high},
        (
            f"left-compressed 3-graphs on [{t}] with m in"
            f" [{rng.m_low}, {rng.m_high}] containing a {t - 1}-clique"
        ),
        opts,
        len(solved),
        violations,
        extras={
            "target_exact": str(target),
            "worst_abs_error": worst,
            "structured_only": _structured_only(solved),
        },
    )


@dataclass(frozen=True)
class WitnessResult:
    """An explicit graph-and-weighting pair beating the complete value."""

    graph: Hypergraph
    weights: tuple[Fraction, ...]
    value: Fraction
    target: Fraction

    @property
    def gap(self) -> Fraction:
        return self.value - self.target

    def to_record(self) -> dict:
        return {
            "r": self.graph.r,
            "t": self.graph.n,
            "m": self.graph.m,
            "edges": _edge_record(self.graph),
            "weights": [str(w) for w in self.weights],
            "value_exact": str(self.value),
            "value": float(self.value),
            "target_exact": str(self.target),
            "target": float(self.target),
            "gap_exact": str(self.gap),
            "gap": float(self.gap),
        }


def counterexample_witness(r: int, t: int) -> WitnessResult:
    """Build the crown-plus-spike graph on [t] and evaluate, in exact
    rational arithmetic, the explicit weighting that beats the complete
    graph on t-1 vertices.

    Edges: every r-set inside [t-1]; every (r-1)-set inside [t-2]
    extended by t; and the single edge {1, ..., r-2, t-1, t}.  Weights:
    1/(t-1) on the first t-2 vertices and 1/(2(t-1)) on the last two.
    Raises ArithmeticError if the evaluation fails to exceed the target,
    so a successful return is itself the certificate.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if t < r + 2:
        raise ValueError("need t >= r + 2")
    expected_m = binomial(t - 1, r) + binomial(t - 2, r - 1) + 1
    _check_size(t, expected_m)
    edges: list[Edge] = list(combinations(range(1, t), r))
    edges += [a + (t,) for a in combinations(range(1, t - 1), r - 1)]
    edges.append(tuple(range(1, r - 1)) + (t - 1, t))
    g = Hypergraph.from_edges(r, t, edges)
    if g.m != expected_m:
        raise AssertionError("witness construction produced a wrong edge count")
    heavy = Fraction(1, t - 1)
    light = Fraction(1, 2 * (t - 1))
    weights = (heavy,) * (t - 2) + (light, light)
    value = evaluate_exact(g, weights)
    target = complete_lagrangian(t - 1, r)
    if value <= target:
        raise ArithmeticError(
            f"witness value {value} does not exceed the complete value {target}"
        )
    return WitnessResult(g, weights, value, target)


def lemma_tal9_audit(t: int, opts: VerifyOptions = DEFAULT_VERIFY) -> TheoremReport:
    """For each edge count, audit the Lagrangian-maximal left-compressed
    graphs: with k the largest supported vertex of a support-minimal
    optimal weighting and b the pair degree of {k-1, k}, the number of
    missing triples inside [k-1] must not exceed
    ceil(b * (1 + (k - b - 2)/(k - 3))).

    Instances whose minimal support fits inside [3] fall outside the
    statement (the cap is undefined at k = 3) and are logged, not
    counted against the verdict.
    """
    if t < 4:
        raise ValueError("need t >= 4")
    total = binomial(t, 3)
    solved = _map_lagrangian(_left_compressed(t, range(1, total + 1)), opts)
    violations: list[dict] = []
    audited = 0
    small_support = 0
    maxima = []
    for m, group in groupby(solved, key=lambda s: s[0].m):
        batch = list(group)
        vmax = max(res.value for _, res in batch)
        maxima.append([m, vmax])
        for g, res in batch:
            if res.value < vmax - VALUE_TOL:
                continue
            audited += 1
            k = max(res.support)
            if k <= 3:
                small_support += 1
                continue
            b = len(pair_link(g, k - 1, k))
            present = sum(1 for e in g.edge_list() if e[-1] <= k - 1)
            deficiency = binomial(k - 1, 3) - present
            cap = math.ceil(Fraction(b) * (1 + Fraction(k - b - 2, k - 3)))
            if deficiency > cap:
                violations.append(
                    _entry(g, res, k=k, b=b, deficiency=deficiency, cap=cap)
                )
    return _make_report(
        "tal9",
        {"t": t, "m_low": 1, "m_high": total},
        f"Lagrangian-maximal left-compressed 3-graphs on [{t}], every m",
        opts,
        audited,
        violations,
        notes=(
            f"{small_support} maximal instances had minimal support inside [3]"
            " and fall outside the statement",
        ),
        extras={
            "per_m_maxima": maxima,
            "small_support_instances": small_support,
            "structured_only": _structured_only(solved),
        },
    )


def theorem2_bound(t: int) -> Fraction:
    """Lagrangian cap for 3-graphs whose clique number stays below
    floor((t - 2)/2): (t-3)^2 / (6 (t-2) (t-1))."""
    if t < 6:
        raise ValueError("need t >= 6")
    return Fraction((t - 3) ** 2, 6 * (t - 2) * (t - 1))


def _clique_free_universe(t: int, s: int) -> list[Edge]:
    """Triples from [t] whose presence in a left-compressed graph does
    not force a clique on s vertices.

    A left-compressed graph contains the complete 3-graph on [s] exactly
    when it contains the triple {s-2, s-1, s}; dropping that triple's
    up-set from the universe is therefore the whole restriction, and the
    remainder is closed downward. A t over the guard is refused before
    any triple is listed.
    """
    _check_ground(t)
    pivot = (s - 2, s - 1, s)
    return [
        e
        for e in combinations(range(1, t + 1), 3)
        if not dominance_le(pivot, e)
    ]


def _clique_free_class(t: int, s: int) -> list[Hypergraph]:
    """Every left-compressed 3-graph on [t] without an s-clique."""
    universe = _clique_free_universe(t, s)
    return _left_compressed(t, range(len(universe) + 1), universe=universe)


def verify_theorem2(t: int, opts: VerifyOptions = DEFAULT_VERIFY) -> TheoremReport:
    """Check the Lagrangian cap on left-compressed 3-graphs with clique
    number below floor((t - 2)/2).

    For every t the enumeration guard admits, the qualifying class is
    empty or the edgeless graph alone, so the verdict is vacuous; the
    report then carries a diagnostic sweep of the 4-clique-free class to
    show how far that larger class sits from the cap.
    """
    bound = theorem2_bound(t)
    bf = float(bound)
    s = (t - 2) // 2
    violations: list[dict] = []
    notes: list[str] = []
    extras: dict = {"bound_exact": str(bound), "structured_only": 0}
    instances = 0
    vacuous = False
    if s <= 2:
        vacuous = True
        notes.append(
            f"clique number below {s} is impossible for a 3-graph"
            " (the empty graph already has clique number 2); no instances"
        )
    else:
        graphs = _clique_free_class(t, s)
        if any(clique_number(g) >= s for g in graphs):
            raise AssertionError("restricted universe leaked a clique")
        solved = _map_lagrangian(graphs, opts)
        instances = len(solved)
        violations = [
            _entry(g, res, bound=bf) for g, res in solved if res.value > bf + opts.tol
        ]
        extras["max_value_in_class"] = max([0.0] + [res.value for _, res in solved])
        extras["structured_only"] = _structured_only(solved)
        if all(g.m == 0 for g in graphs):
            vacuous = True
            notes.append(
                f"only the edgeless graph has clique number below {s}"
                f" on [{t}]; the cap holds but bites nothing"
            )
    # Diagnostic: how does the 4-clique-free class compare to the cap?
    diagnostic = _map_lagrangian(_clique_free_class(t, 4), opts)
    diag_max = max(res.value for _, res in diagnostic)
    extras["diagnostic_omega_below_4"] = {
        "instances": len(diagnostic),
        "max_value": diag_max,
        "bound": bf,
        "holds": diag_max <= bf + opts.tol,
        "structured_only": _structured_only(diagnostic),
    }
    notes.append(
        "diagnostic sweep of the 4-clique-free class is informational"
        " and does not affect the verdict"
    )
    return _make_report(
        "theorem2",
        {"t": t, "clique_below": s},
        f"left-compressed 3-graphs on [{t}] with clique number below {s}",
        opts,
        instances,
        violations,
        vacuous=vacuous,
        notes=notes,
        extras=extras,
    )


def corollary_threshold(t: int) -> Fraction:
    """Edge count beyond which a clique on floor((t - 2)/2) vertices is
    forced: (t-3)^2 t^3 / (6 (t-2) (t-1))."""
    if t < 6:
        raise ValueError("need t >= 6")
    return Fraction((t - 3) ** 2 * t**3, 6 * (t - 2) * (t - 1))


def _omega_at_least(g: Hypergraph, s: int) -> bool:
    # Below the edge arity every vertex subset is trivially a clique.
    if s <= g.r - 1:
        return g.n >= s
    return contains_clique(g, s)


def verify_corollary(t: int, opts: VerifyOptions = DEFAULT_VERIFY) -> TheoremReport:
    """Check that every left-compressed 3-graph on [t] with at least
    ceil(threshold) edges contains a clique on floor((t - 2)/2) vertices."""
    threshold = corollary_threshold(t)
    s = (t - 2) // 2
    m_min = math.ceil(threshold)
    total = binomial(t, 3)
    notes: list[str] = []
    if s <= 3:
        notes.append(
            f"forced clique order {s} is at most the edge arity, so any"
            " graph with an edge satisfies it; the check is structural only"
        )
    graphs = _left_compressed(t, range(m_min, total + 1))
    violations = [
        {"m": g.m, "edges": _edge_record(g), "required": s}
        for g in graphs
        if not _omega_at_least(g, s)
    ]
    return _make_report(
        "corollary",
        {"t": t, "clique_order": s, "m_min": m_min, "m_max": total},
        f"left-compressed 3-graphs on [{t}] with m >= {m_min}",
        opts,
        len(graphs),
        violations,
        vacuous=m_min > total,
        notes=notes,
        extras={"threshold_exact": str(threshold), "threshold": float(threshold)},
    )


def proposition_k4_check(t: int, opts: VerifyOptions = DEFAULT_VERIFY) -> TheoremReport:
    """Check that left-compressed 3-graphs without a 4-clique carry at
    most 2 t^3 / 27 edges, and audit the structural reason: every edge
    of such a graph contains vertex 1.

    Any edge missing vertex 1 dominates {2, 3, 4} coordinatewise, and a
    left-compressed graph containing {2, 3, 4} contains all of the
    complete 3-graph on [4]; the 4-clique-free class is therefore
    exactly the class of ideals inside the star of vertex 1, which is
    what gets enumerated.
    """
    if t < 4:
        raise ValueError("need t >= 4")
    cap = Fraction(2 * t**3, 27)
    graphs = _clique_free_class(t, 4)
    violations: list[dict] = []
    for g in graphs:
        problems = []
        if g.m > cap:
            problems.append("edge count exceeds the cap")
        if clique_number(g) >= 4:
            problems.append("graph contains a 4-clique")
        if any(e[0] != 1 for e in g.edge_list()):
            problems.append("an edge misses vertex 1")
        if problems:
            violations.append({"m": g.m, "edges": _edge_record(g), "problems": problems})
    return _make_report(
        "k4",
        {"t": t},
        f"left-compressed 3-graphs on [{t}] without a 4-clique",
        opts,
        len(graphs),
        violations,
        notes=(
            "edges missing vertex 1 would dominate {2,3,4} and force the"
            " complete 3-graph on [4], so the enumerated star class is the"
            " whole 4-clique-free class",
        ),
        extras={
            "cap_exact": str(cap),
            "cap": float(cap),
            "max_edges_observed": max(g.m for g in graphs),
            "universe_size": len(_clique_free_universe(t, 4)),
        },
    )


def bp_bound(t: int, p: int, r: int) -> Fraction:
    """Edge-count bound for r-graphs on [t] without a clique on p
    vertices: C(t, r) - (t / ((r-1) r)) ((t/(p-1))^(r-1) - 1)."""
    if r < 2:
        raise ValueError("need r >= 2")
    if p < r + 1:
        raise ValueError("need p >= r + 1")
    if t < r:
        raise ValueError("need t >= r")
    scale = Fraction(t, (r - 1) * r)
    return binomial(t, r) - scale * (Fraction(t, p - 1) ** (r - 1) - 1)


def bp_check(t: int, p: int = 4, opts: VerifyOptions = DEFAULT_VERIFY) -> TheoremReport:
    """Check the clique-free edge-count bound bp_bound(t, p, 3) against
    the densest left-compressed 3-graph on [t] without a p-clique.

    Compression preserves both the edge count and p-clique-freeness, so
    the densest left-compressed representative is the densest graph of
    the whole class and a single maximal instance settles the bound.
    """
    bound = bp_bound(t, p, 3)
    universe = _clique_free_universe(t, p)
    g = Hypergraph.from_edges(3, t, universe)
    if clique_number(g) >= p:
        raise AssertionError("restricted universe leaked a clique")
    violations: list[dict] = []
    if g.m > bound:
        violations.append(
            {"m": g.m, "edges": _edge_record(g), "bound": float(bound)}
        )
    extras: dict = {
        "max_edges": g.m,
        "bound_exact": str(bound),
        "bound": float(bound),
    }
    if p == 4:
        alt = Fraction(2 * t**3, 27)
        extras["alt_cap_exact"] = str(alt)
        extras["alt_cap"] = float(alt)
        extras["alt_cap_smaller"] = alt < bound
    return _make_report(
        "bp",
        {"t": t, "p": p, "r": 3},
        f"densest left-compressed 3-graph on [{t}] without a {p}-clique",
        opts,
        1,
        violations,
        notes=(
            "compression preserves edge count and clique-freeness, so the"
            " densest left-compressed representative settles the bound",
        ),
        extras=extras,
    )


def theorem43_check(t: int, a: int, opts: VerifyOptions = DEFAULT_VERIFY) -> TheoremReport:
    """At m = C(t-1,3) + C(t-2,2) + a, check that left-compressed
    3-graphs containing a (t-1)-clique whose pair degree on {t-1, t} is
    at most (2t + 3a - 4)/5 stay within tolerance of the colex value."""
    if t < 5:
        raise ValueError("need t >= 5")
    if not 1 <= a <= t - 2:
        raise ValueError("need 1 <= a <= t - 2")
    m = binomial(t - 1, 3) + binomial(t - 2, 2) + a
    cap = Fraction(2 * t + 3 * a - 4, 5)
    kept = _left_compressed(
        t, [m], lambda g: contains_clique(g, t - 1) and len(pair_link(g, t - 1, t)) <= cap
    )
    results = _map_lagrangian([colex_graph(3, m)] + kept, opts)
    (_, target), *solved = results
    violations = [
        _entry(g, res, target=target.value, excess=res.value - target.value)
        for g, res in solved
        if res.value > target.value + opts.tol
    ]
    return _make_report(
        "theorem43",
        {"t": t, "a": a, "m": m},
        (
            f"left-compressed 3-graphs on [{t}] with m = {m}, a"
            f" {t - 1}-clique, and pair degree of {{{t - 1}, {t}}}"
            f" at most {cap}"
        ),
        opts,
        len(kept),
        violations,
        vacuous=not kept,
        notes=("the colex target value is itself a certified numeric maximum",),
        extras={
            "pair_degree_cap_exact": str(cap),
            "pair_degree_cap": float(cap),
            "target_value": target.value,
            "target_kkt_residual": target.kkt_residual,
            "structured_only": _structured_only(results),
        },
    )


def lemmaeq_dichotomy_audit(t: int, opts: VerifyOptions = DEFAULT_VERIFY) -> TheoremReport:
    """Audit the weight dichotomy: for every left-compressed 3-graph on
    [t], a certified optimal weighting sorted in non-increasing order
    satisfies x_1 < x_{t-3} + x_{t-2} + tol, or the value stays within
    tolerance of the clique-number cap from theorem2_bound.

    Weightings whose sorted tail hits zero before position t - 2 make
    the first branch degenerate; instances failing both branches with
    such a tail are logged as out of scope rather than as violations.
    """
    bound = float(theorem2_bound(t))
    total = binomial(t, 3)
    solved = _map_lagrangian(_left_compressed(t, range(1, total + 1)), opts)
    violations: list[dict] = []
    logged: list[dict] = []
    branch_counts = {"spread": 0, "capped": 0, "both": 0}
    zero_tail = 0
    for g, res in solved:
        ws = sorted((float(w) for w in res.weighting), reverse=True)
        x1 = ws[0]
        xa = ws[t - 4]  # x_{t-3}, 1-indexed
        xb = ws[t - 3]  # x_{t-2}, 1-indexed
        spread_ok = x1 < xa + xb + opts.tol
        capped_ok = res.value <= bound + opts.tol
        if xb == 0.0:
            zero_tail += 1
        if spread_ok and capped_ok:
            branch_counts["both"] += 1
        elif spread_ok:
            branch_counts["spread"] += 1
        elif capped_ok:
            branch_counts["capped"] += 1
        else:
            entry = _entry(g, res, x1=x1, x_t_minus_3=xa, x_t_minus_2=xb, bound=bound)
            if xb == 0.0:
                logged.append(entry)
            else:
                violations.append(entry)
    notes = [
        "branch counts record which side of the dichotomy carried each instance",
    ]
    if logged:
        notes.append(
            f"{len(logged)} instances failed both branches with a degenerate"
            " zero tail and are logged out of scope"
        )
    return _make_report(
        "lemmaeq",
        {"t": t, "m_low": 1, "m_high": total},
        f"left-compressed 3-graphs on [{t}], every nonempty m",
        opts,
        len(solved),
        violations,
        notes=notes,
        extras={
            "bound_exact": str(theorem2_bound(t)),
            "branch_counts": branch_counts,
            "zero_tail_instances": zero_tail,
            "out_of_scope": logged,
            "structured_only": _structured_only(solved),
        },
    )


def witness_report(r: int, t: int, opts: VerifyOptions = DEFAULT_VERIFY) -> TheoremReport:
    """Wrap the exact witness construction in a report.

    The construction already certifies itself in rational arithmetic; a
    failure to exceed the target surfaces as a violation instead of an
    exception so the report stream stays uniform.
    """
    violations: list[dict] = []
    notes: tuple[str, ...] = ()
    extras: dict = {}
    try:
        w = counterexample_witness(r, t)
    except ArithmeticError as exc:
        violations.append({"reason": str(exc)})
    else:
        notes = (f"{float(w.value)} > {float(w.target)} (exact: {w.value} > {w.target})",)
        extras["witness"] = w.to_record()
    return _make_report(
        "witness",
        {"r": r, "t": t},
        "explicit crown-plus-spike construction, exact arithmetic",
        opts,
        1,
        violations,
        notes=notes,
        extras=extras,
    )
