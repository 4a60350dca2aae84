"""The start set of ``ascend_multistart``: a left-compressed graph ascends
from the corners of the ordered sector alone, tagged ``structured_only``,
and takes the full start set only when that result is not stationary."""

import random
import sys
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from lagrangia import theorems
from lagrangia.core import Hypergraph, binomial, colex_graph, complete_graph
from lagrangia.lagrangian import (
    KKT_TOL,
    OptOptions,
    OptResult,
    ascend,
    ascend_multistart,
    evaluate,
    lagrangian,
    uniform_weighting,
)
from lagrangia.structure import enumerate_left_compressed, maximum_cliques

lagrangian_module = sys.modules["lagrangia.lagrangian"]
EPS = np.finfo(np.float64).eps


def full_starts(g, opts):
    """The start set every graph ran before the corners ran alone:
    uniform, uniform on every maximum clique, the initial segments, and
    the seeded Dirichlet draws."""
    n = g.n
    starts = [uniform_weighting(n)]
    starts += [uniform_weighting(n, clique) for clique in maximum_cliques(g)]
    starts += [uniform_weighting(n, range(1, k + 1)) for k in range(g.r, n + 1)]
    rng = np.random.default_rng(opts.seed)
    starts += [rng.dirichlet(np.ones(n)) for _ in range(opts.random_starts)]
    return np.array(starts)


def same_bytes(a, b):
    return a.to_record() == b.to_record() and a.weighting.tobytes() == b.weighting.tobytes()


def sweep(t):
    """Every left-compressed 3-graph on [t] with at least one edge, each
    with the options a verifier's sweep gives it (the run's seed, 0)."""
    return [
        (g, OptOptions(seed=0)) for g in theorems._left_compressed(t, range(1, binomial(t, 3) + 1))
    ]


@pytest.mark.parametrize("t", [6, 7])
def test_corners_reach_the_full_set_value(t):
    for g, opts in sweep(t):
        got = ascend_multistart(g, opts)
        full = lagrangian_module._ascend_rows(g, full_starts(g, opts), opts)
        # No corner result on [6] or [7] ends off stationarity.
        assert got.structured_only and got.kkt_residual <= KKT_TOL, g.edge_list()
        assert got.value >= full.value - 4 * EPS * full.value, g.edge_list()


def test_other_graphs_run_the_full_set():
    rng = random.Random(21)
    checked = 0
    while checked < 40:
        n = rng.randint(5, 8)
        pool = list(combinations(range(1, n + 1), 3))
        g = Hypergraph.from_edges(3, n, rng.sample(pool, rng.randint(2, len(pool) - 1)))
        if g.left_compressed:
            continue
        opts = OptOptions(seed=rng.randrange(2**32), random_starts=rng.choice((0, 2, 8)))
        got = ascend_multistart(g, opts)
        assert not got.structured_only
        assert same_bytes(got, lagrangian_module._ascend_rows(g, full_starts(g, opts), opts))
        checked += 1


def test_escalation_runs_the_full_set(monkeypatch):
    # A corner result forced above KKT_TOL escalates: the full start set
    # then gives its own bytes, untagged.
    real = lagrangian_module._ascend_rows
    calls = []

    def first_not_stationary(g, starts, opts):
        res = real(g, starts, opts)
        calls.append(len(starts))
        return replace(res, kkt_residual=1.0) if len(calls) == 1 else res

    monkeypatch.setattr(lagrangian_module, "_ascend_rows", first_not_stationary)
    for g, opts in sweep(6):
        calls.clear()
        got = ascend_multistart(g, opts)
        assert len(calls) == 2
        assert not got.structured_only
        assert same_bytes(got, real(g, full_starts(g, opts), opts)), g.edge_list()


def test_tag_survives_support_minimization_and_sorting():
    refined = 0
    for m in range(1, binomial(6, 3) + 1):
        for g in enumerate_left_compressed(6, 3, m):
            res = lagrangian(g)
            assert res.structured_only == (res.method != "closed-form"), g.edge_list()
            refined += res.method == "refined"
    assert refined > 0
    # A weighting that the sort reorders keeps its tag.
    g = Hypergraph.from_edges(
        3, 6, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 5), (1, 3, 5), (1, 2, 6), (1, 3, 6)]
    )
    x = np.array([1 / 3, 2 / 9, 2 / 9, 0.0, 0.0, 2 / 9])
    res = replace(lagrangian(g), value=evaluate(g, x), weighting=x, support=(1, 2, 3, 6))
    out = lagrangian_module._sorted_weights(g, res)
    assert out.support == (1, 2, 3, 4) and out.structured_only


def test_closed_forms_and_single_starts_are_untagged():
    assert not lagrangian(complete_graph(5, 3)).structured_only
    assert not lagrangian(Hypergraph.from_edges(2, 4, [(1, 2), (2, 3), (3, 4)])).structured_only
    g = colex_graph(3, 13)
    assert not ascend(g, uniform_weighting(g.n)).structured_only
    assert lagrangian(g).to_record()["structured_only"] is True


def test_max_iters_caps_growth_steps_only():
    # The cap stops the growth run off stationarity; the face finish
    # still runs, and its Newton steps count as iterations.
    g = colex_graph(3, 30)
    res = ascend(g, uniform_weighting(g.n), OptOptions(max_iters=3))
    assert res.iterations > 3 and res.kkt_residual <= KKT_TOL


VERIFIERS = [
    (theorems.verify_colex_plateau, (5,)),
    (theorems.verify_theorem1, (6,)),
    (theorems.verify_pz18, (6,)),
    (theorems.lemma_tal9_audit, (5,)),
    (theorems.verify_theorem2, (8,)),
    (theorems.theorem43_check, (6, 1)),
    (theorems.lemmaeq_dichotomy_audit, (6,)),
]


@pytest.mark.parametrize("verifier, args", VERIFIERS)
def test_reports_count_structured_only_instances(verifier, args, monkeypatch):
    # A stand-in solver tags every other graph it solves; each report
    # counts exactly the tagged instances.
    tags = []

    def tagging(g, opts=None):
        tags.append(len(tags) % 2 == 0)
        return OptResult(
            value=0.0,
            weighting=uniform_weighting(g.n),
            support=tuple(g.vertices()),
            kkt_residual=0.0,
            edge_cover_ok=True,
            method="stub",
            iterations=0,
            structured_only=tags[-1],
        )

    monkeypatch.setattr(theorems, "lagrangian", tagging)
    extras = verifier(*args, theorems.VerifyOptions(parallelism=1)).extras
    counted = extras["structured_only"]
    counted += extras.get("diagnostic_omega_below_4", {}).get("structured_only", 0)
    assert 0 < counted == sum(tags) < len(tags)
