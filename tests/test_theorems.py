"""Verifier-level checks: ranges, bounds, witnesses, and report plumbing.

The expensive oracles here enumerate ALL 3-graphs on [5] (not just the
left-compressed class) so the restriction notes baked into the verifiers
get tested against raw brute force at least once.
"""

import ast
import inspect
import json
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from lagrangia.core import Hypergraph, binomial, colex_graph
from lagrangia.lagrangian import OptOptions, ascend_multistart, complete_lagrangian
from lagrangia.structure import clique_number, enumerate_left_compressed
from lagrangia.theorems import (
    VerifyOptions,
    bp_bound,
    corollary_threshold,
    counterexample_witness,
    lemma_tal9_audit,
    lemmaeq_dichotomy_audit,
    proposition_k4_check,
    theorem1_range,
    theorem2_bound,
    theorem43_check,
    verify_colex_plateau,
    verify_corollary,
    verify_pz18,
    verify_theorem1,
    verify_theorem2,
)
import lagrangia
from lagrangia import cli, theorems
from lagrangia.theorems import _clique_free_universe, _pool_size

FAST = VerifyOptions(opt=OptOptions(random_starts=2))


def all_triples(t):
    return list(combinations(range(1, t + 1), 3))


# ---------------------------------------------------------------- ranges


def test_theorem1_range_examples():
    assert (theorem1_range(5).m_low, theorem1_range(5).m_high) == (4, 5)
    assert (theorem1_range(6).m_low, theorem1_range(6).m_high) == (10, 13)
    assert (theorem1_range(7).m_low, theorem1_range(7).m_high) == (20, 27)


def test_theorem1_range_matches_float_formula():
    import math

    for t in range(5, 40):
        rng = theorem1_range(t)
        assert rng.m_low == binomial(t - 1, 3)
        float_high = math.floor(binomial(t - 1, 3) + binomial(t - 2, 2) - (t - 1) / 2)
        assert rng.m_high == float_high
        assert rng.m_high >= rng.m_low


def test_theorem1_range_rejects_small_t():
    with pytest.raises(ValueError):
        theorem1_range(4)


# ------------------------------------------------------- plateau and pz18


def test_colex_plateau_small():
    for t in (5, 6):
        rep = verify_colex_plateau(t, FAST)
        assert rep.verdict == "pass"
        assert rep.instances_checked == binomial(t - 2, 2) + 1
        assert not rep.violations


def test_plateau_values_recorded_in_order():
    rep = verify_colex_plateau(5, FAST)
    ms = [m for m, _ in rep.extras["values"]]
    assert ms == list(range(4, 8))
    target = float(complete_lagrangian(4, 3))
    for _, v in rep.extras["values"]:
        assert abs(v - target) <= 1e-7


def test_verify_theorem1_small():
    for t in (5, 6):
        rep = verify_theorem1(t, FAST)
        assert rep.verdict == "pass"
        assert not rep.violations and not rep.indeterminate
        assert rep.instances_checked > 0
        assert rep.extras["smallest_gap_to_target"] > 1e-3


def test_verify_pz18_small():
    for t in (5, 6):
        rep = verify_pz18(t, FAST)
        assert rep.verdict == "pass"
        assert rep.extras["worst_abs_error"] <= 1e-7


def brute_lagrangian_max(t, m, want_clique, forbid):
    """Max numeric Lagrangian over ALL 3-graphs on [t] with m edges,
    filtered by clique content. Raw subsets, no compression."""
    best = 0.0
    opts = OptOptions(random_starts=2)
    for chosen in combinations(all_triples(t), m):
        g = Hypergraph.from_edges(3, t, chosen)
        omega = clique_number(g)
        if want_clique is not None and omega < want_clique:
            continue
        if forbid is not None and omega >= forbid:
            continue
        best = max(best, ascend_multistart(g, opts).value)
    return best


def test_theorem1_restriction_loses_nothing_at_t5():
    # the left-compressed maximum must meet the unrestricted maximum
    rep = verify_theorem1(5, FAST)
    target = float(complete_lagrangian(4, 3))
    lc_max = target - rep.extras["smallest_gap_to_target"]
    raw_max = max(
        brute_lagrangian_max(5, m, want_clique=None, forbid=4) for m in (4, 5)
    )
    assert raw_max < target - 1e-4
    assert abs(raw_max - lc_max) <= 1e-7


def test_pz18_equality_holds_unrestricted_at_t5():
    target = float(complete_lagrangian(4, 3))
    for m in range(4, 8):
        hi = brute_lagrangian_max(5, m, want_clique=4, forbid=None)
        assert abs(hi - target) <= 1e-7


# ---------------------------------------------------------------- witness


def test_witness_3_6_exact():
    w = counterexample_witness(3, 6)
    assert w.value == Fraction(41, 500)
    assert float(w.value) == 0.082
    assert w.target == Fraction(2, 25)
    assert w.gap == Fraction(1, 500)
    assert w.graph.m == 17


def test_witness_is_colex_graph_for_triples():
    for t in range(5, 12):
        w = counterexample_witness(3, t)
        m = binomial(t - 1, 3) + binomial(t - 2, 2) + 1
        assert w.graph.m == m
        assert w.graph == colex_graph(3, m)


def test_witness_gap_positive_sweep():
    for t in range(6, 21):
        assert counterexample_witness(3, t).gap > 0


def test_witness_other_arities():
    w = counterexample_witness(2, 5)
    assert w.value == Fraction(25, 64)
    assert w.target == Fraction(3, 8)
    w4 = counterexample_witness(4, 7)
    assert w4.gap > 0
    assert w4.graph.m == binomial(6, 4) + binomial(5, 3) + 1


def test_witness_weights_sum_to_one_exactly():
    w = counterexample_witness(3, 9)
    assert sum(w.weights, Fraction(0)) == 1


def test_witness_rejects_bad_params():
    with pytest.raises(ValueError):
        counterexample_witness(3, 4)
    with pytest.raises(ValueError):
        counterexample_witness(1, 5)


def test_witness_refuses_absurd_sizes_before_listing_edges(monkeypatch):
    # r=10, t=40 would list C(39, 10), about 6.4e8, sets.
    def combinations(*args):
        raise RuntimeError("listed edges")

    monkeypatch.setattr(theorems, "combinations", combinations)
    with pytest.raises(ValueError, match="edges"):
        counterexample_witness(10, 40)
    with pytest.raises(ValueError, match="vertices"):
        counterexample_witness(3, 70)


def test_witness_record_is_json_ready():
    rec = counterexample_witness(3, 6).to_record()
    parsed = json.loads(json.dumps(rec))
    assert parsed["value_exact"] == "41/500"
    assert parsed["m"] == 17


# ------------------------------------------------------------ audits


def test_tal9_audit_small():
    for t in (5, 6):
        rep = lemma_tal9_audit(t, FAST)
        assert rep.verdict == "pass"
        assert not rep.violations
        assert rep.instances_checked > 0
        # one lambda-max row per edge count
        assert len(rep.extras["per_m_maxima"]) == binomial(t, 3)


def test_tal9_maxima_are_nondecreasing_in_m():
    rep = lemma_tal9_audit(5, FAST)
    values = [v for _, v in rep.extras["per_m_maxima"]]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9


def test_lemmaeq_audit_t6():
    rep = lemmaeq_dichotomy_audit(6, FAST)
    assert rep.verdict == "pass"
    counts = rep.extras["branch_counts"]
    assert sum(counts.values()) + len(rep.extras["out_of_scope"]) == (
        rep.instances_checked
    )
    assert counts["both"] > 0


# ------------------------------------------------------------- bounds


def test_theorem2_bound_examples():
    assert theorem2_bound(6) == Fraction(3, 40)
    assert float(theorem2_bound(6)) == 0.075
    assert theorem2_bound(7) == Fraction(4, 45)
    with pytest.raises(ValueError):
        theorem2_bound(5)


def test_theorem2_bound_below_complete_value():
    for t in range(6, 41):
        assert theorem2_bound(t) < complete_lagrangian(t - 1, 3)


def test_verify_theorem2_vacuous_small_t():
    rep6 = verify_theorem2(6, FAST)
    assert rep6.verdict == "vacuous"
    assert rep6.instances_checked == 0
    rep8 = verify_theorem2(8, FAST)
    assert rep8.verdict == "vacuous"
    assert rep8.instances_checked == 1
    assert rep8.extras["max_value_in_class"] == 0.0
    for rep in (rep6, rep8):
        assert not rep.violations
        diag = rep.extras["diagnostic_omega_below_4"]
        assert diag["holds"]
        assert diag["max_value"] <= diag["bound"] + 1e-7


def test_corollary_threshold_examples():
    assert corollary_threshold(6) == Fraction(81, 5)
    assert float(corollary_threshold(6)) == 16.2
    assert corollary_threshold(8) == Fraction(3200, 63)
    with pytest.raises(ValueError):
        corollary_threshold(5)


def test_verify_corollary_passes():
    for t in (6, 7, 8):
        rep = verify_corollary(t, FAST)
        assert rep.verdict == "pass"
        assert not rep.violations
        assert rep.instances_checked > 0


def test_corollary_beats_bp_bound_from_even_38():
    # exact-arithmetic comparison of the two clique-forcing thresholds
    for t in range(30, 38, 2):
        assert corollary_threshold(t) >= bp_bound(t, (t - 2) // 2, 3)
    for t in range(38, 81, 2):
        assert corollary_threshold(t) < bp_bound(t, (t - 2) // 2, 3)


# ---------------------------------------------------------- 4-clique-free


def test_clique_free_universe_is_star_of_vertex_1():
    for t in range(5, 9):
        universe = _clique_free_universe(t, 4)
        star = [e for e in all_triples(t) if e[0] == 1]
        assert universe == star


def test_k4_check_passes():
    for t in (5, 6, 7, 8):
        rep = proposition_k4_check(t, FAST)
        assert rep.verdict == "pass"
        assert not rep.violations
        assert rep.extras["max_edges_observed"] == binomial(t - 1, 2)
        assert rep.extras["max_edges_observed"] <= Fraction(2 * t**3, 27)


def test_k4_class_matches_brute_filter_at_t5():
    t = 5
    universe = _clique_free_universe(t, 4)
    restricted = {
        g.edges
        for m in range(0, len(universe) + 1)
        for g in enumerate_left_compressed(t, 3, m, universe=universe)
    }
    unrestricted = {
        g.edges
        for m in range(0, binomial(t, 3) + 1)
        for g in enumerate_left_compressed(t, 3, m)
        if clique_number(g) < 4
    }
    assert restricted == unrestricted


def test_bp_bound_examples():
    assert bp_bound(6, 4, 3) == 17
    assert bp_bound(6, 5, 3) == Fraction(75, 4)
    with pytest.raises(ValueError):
        bp_bound(6, 3, 3)
    with pytest.raises(ValueError):
        bp_bound(6, 4, 1)


def test_bp_bound_beats_k4_cap_from_t6():
    assert Fraction(2 * 5**3, 27) > bp_bound(5, 4, 3)
    for t in range(6, 31):
        assert Fraction(2 * t**3, 27) < bp_bound(t, 4, 3)


def test_bp_bound_monotone_in_p():
    # forbidding a larger clique is a weaker restriction
    for p in range(4, 10):
        assert bp_bound(12, p, 3) < bp_bound(12, p + 1, 3)


# ------------------------------------------------------------ theorem43


def test_theorem43_t6_a1():
    rep = theorem43_check(6, 1, FAST)
    assert rep.verdict == "pass"
    assert rep.params["m"] == 17
    assert rep.extras["pair_degree_cap_exact"] == "11/5"
    assert rep.instances_checked == 2
    assert rep.extras["target_value"] >= 0.082 - 1e-9


def test_theorem43_t7_a2():
    rep = theorem43_check(7, 2, FAST)
    assert rep.verdict == "pass"
    assert rep.params["m"] == binomial(6, 3) + binomial(5, 2) + 2
    assert rep.extras["pair_degree_cap_exact"] == "16/5"


def test_theorem43_rejects_bad_a():
    with pytest.raises(ValueError):
        theorem43_check(6, 0)
    with pytest.raises(ValueError):
        theorem43_check(6, 5)


# ------------------------------------------------------- report plumbing


def test_enumeration_guard():
    for check in (verify_theorem1, lemma_tal9_audit, proposition_k4_check):
        with pytest.raises(ValueError, match="guard"):
            check(9)
    # plateau never enumerates, so large t stays fine
    assert verify_colex_plateau(9, FAST).verdict == "pass"


def test_colex_plateau_guard_refuses_before_any_graph(monkeypatch, capsys):
    # [64] would build 1,892 graphs of 76,922,098 edges in all before the
    # first solve; the guard refuses the range from its edge count alone.
    def refuse(*_, **__):
        raise AssertionError("built a graph")

    monkeypatch.setattr(theorems, "colex_graph", refuse)
    for t in (28, 64, 10**6):
        with pytest.raises(ValueError, match="plateau guard"):
            verify_colex_plateau(t)
    assert cli.main(["verify", "colex-plateau", "--t", "64"]) == 3
    assert capsys.readouterr().err == (
        "usage error: colex plateau of [64] holds 76922098 edges, over the plateau guard "
        "(max_plateau_edges=1000000)\n"
    )
    # [24] (437,668 edges) and [27] (827,750) stay within it.
    for t, edges in ((24, 437_668), (27, 827_750), (28, 1_006_525)):
        assert sum(theorems.plateau_range(t).m_values()) == edges
        assert (edges <= theorems.MAX_PLATEAU_EDGES) == (t < 28)


def test_theorems_exports_what_the_package_takes_from_it():
    # Every name ``lagrangia`` imports from ``theorems`` and re-exports is
    # public there too.
    tree = ast.parse(inspect.getsource(lagrangia))
    taken = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "theorems"
        for alias in node.names
    }
    reexported = taken & set(lagrangia.__all__)
    assert "plateau_range" in reexported
    assert reexported <= set(theorems.__all__), reexported - set(theorems.__all__)


def test_reports_are_byte_identical_across_runs():
    a = verify_theorem1(5, FAST).to_json()
    b = verify_theorem1(5, FAST).to_json()
    assert a == b


def test_parallel_matches_serial():
    serial = verify_pz18(5, FAST)
    parallel = verify_pz18(5, VerifyOptions(parallelism=2, opt=FAST.opt))
    assert serial.to_json() == parallel.to_json()


def test_verifiers_never_read_opt_seed(monkeypatch):
    # Every instance is solved with the run's seed, VerifyOptions.seed,
    # in place of opt.seed: two options that differ only in opt.seed
    # give the same report, byte for byte.
    seeds = []
    real = theorems._solve_chunk

    def spy(task):
        seeds.append(task[1].seed)
        return real(task)

    monkeypatch.setattr(theorems, "_solve_chunk", spy)
    run = replace(FAST, seed=7)
    other = replace(run, opt=replace(run.opt, seed=12345))
    for check in (verify_theorem1, verify_pz18):
        seeds.clear()
        a = check(6, run).to_json()
        assert seeds and set(seeds) == {7}
        seeds.clear()
        assert check(6, other).to_json() == a
        assert seeds and set(seeds) == {7}


def test_a_graph_solves_alike_in_every_verifier(monkeypatch):
    # A result depends only on the graph and the options, not on which
    # verifier's filter let the graph through or where it fell in the
    # sweep: a graph on [6] that both pz18 and lemmaeq solve gets the
    # same record and the same weight bytes in each.
    solved = {}
    real = theorems._solve_chunk

    def spy(task):
        results = real(task)
        for g, res in zip(task[0], results):
            record = (res.to_record(), res.weighting.tobytes())
            solved.setdefault(g.edges, []).append(record)
        return results

    monkeypatch.setattr(theorems, "_solve_chunk", spy)
    run = replace(FAST, seed=3)
    pz18 = verify_pz18(6, run)
    in_pz18 = set(solved)
    lemmaeq_dichotomy_audit(6, run)
    assert pz18.instances_checked == len(in_pz18) > 0
    for edges in in_pz18:
        first, again = solved[edges]
        assert first == again


def test_pool_size_clamped_by_cpus_and_tasks(monkeypatch):
    # Arithmetic only: no process pool is started.
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    assert _pool_size(64, 11) == 2
    assert _pool_size(10**9, 11) == 2
    assert _pool_size(64, 1) == 1
    assert _pool_size(1, 11) == 1
    assert _pool_size(2, 0) == 1
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: None)
    assert _pool_size(64, 11) == 1


def test_seed_changes_report_seed_field_only_in_metadata():
    a = verify_colex_plateau(5, VerifyOptions(seed=1))
    assert a.seed == 1
    rec = a.to_record()
    assert rec["seed"] == 1
    assert rec["version"]


def test_report_json_shape():
    rep = verify_corollary(6, FAST)
    rec = json.loads(rep.to_json())
    for key in (
        "version",
        "theorem_id",
        "params",
        "search_space",
        "seed",
        "tolerances",
        "instances_checked",
        "violations",
        "indeterminate",
        "verdict",
    ):
        assert key in rec
    assert rec["tolerances"]["tol"] == pytest.approx(1e-7)


def test_report_text_contains_verdict():
    rep = verify_corollary(6, FAST)
    text = rep.to_text()
    assert "PASS" in text
    assert "corollary" in text

