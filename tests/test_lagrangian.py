"""Optimizer and closed-form tests: oracles are exact rationals and
brute-force small cases."""

import math
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from lagrangia import _kernels
from lagrangia.core import Hypergraph, colex_graph, complete_graph, binomial
from lagrangia.lagrangian import (
    OptOptions,
    ascend,
    ascend_multistart,
    as_weighting,
    certify,
    complete_lagrangian,
    evaluate,
    evaluate_exact,
    family_value,
    lagrangian,
    link_value,
    minimize_support,
    motzkin_straus,
    uniform_weighting,
)
from lagrangia.core import difference_link, pair_link, vertex_link
from lagrangia.structure import enumerate_left_compressed

# ``lagrangia.lagrangian`` is the function; the module is in sys.modules.
lagrangian_module = sys.modules["lagrangia.lagrangian"]


def random_graph(rng, r, n, m):
    pool = list(combinations(range(1, n + 1), r))
    return Hypergraph.from_edges(r, n, rng.sample(pool, m))


def random_weighting(rng, n):
    x = np.asarray([rng.random() for _ in range(n)])
    return x / x.sum()


class TestEvaluate:
    def test_single_edge(self):
        g = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
        assert evaluate(g, [1 / 3, 1 / 3, 1 / 3]) == pytest.approx(1 / 27, abs=1e-15)

    def test_complete_uniform(self):
        g = complete_graph(5, 3)
        assert evaluate(g, [0.2] * 5) == pytest.approx(0.08, abs=1e-15)

    def test_colex_17_construction_point(self):
        g = colex_graph(3, 17)
        x = [0.2, 0.2, 0.2, 0.2, 0.1, 0.1]
        assert evaluate(g, x) == pytest.approx(0.082, abs=1e-15)
        exact = evaluate_exact(g, [Fraction(1, 5)] * 4 + [Fraction(1, 10)] * 2)
        assert exact == Fraction(41, 500)

    def test_rejects_infeasible(self):
        g = complete_graph(4, 3)
        with pytest.raises(ValueError, match="negative"):
            evaluate(g, [0.5, 0.6, -0.1, 0.0])
        with pytest.raises(ValueError, match="sum"):
            evaluate(g, [0.3, 0.3, 0.3, 0.3])
        with pytest.raises(ValueError, match="length"):
            evaluate(g, [0.5, 0.5])

    def test_longer_weighting_allowed(self):
        g = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
        assert evaluate(g, [0.25, 0.25, 0.25, 0.25]) == pytest.approx(1 / 64, abs=1e-15)

    def test_exact_requires_unit_sum(self):
        g = complete_graph(4, 3)
        with pytest.raises(ValueError, match="sum"):
            evaluate_exact(g, [Fraction(1, 4)] * 3 + [Fraction(1, 8)])

    def test_exact_rejects_a_short_weighting(self):
        # The length rule of ``evaluate``: at least n weights.
        g = complete_graph(5, 3)
        with pytest.raises(ValueError, match="length"):
            evaluate_exact(g, [Fraction(1)])
        with pytest.raises(ValueError, match="length"):
            evaluate_exact(g, [Fraction(1, 4)] * 4)
        assert evaluate_exact(g, [Fraction(1, 5)] * 5 + [Fraction(0)]) == Fraction(2, 25)


class TestUniformWeighting:
    def test_uniform_on_given_vertices(self):
        assert uniform_weighting(4).tolist() == [0.25] * 4
        assert uniform_weighting(5, [2, 5]).tolist() == [0.0, 0.5, 0.0, 0.0, 0.5]
        assert uniform_weighting(3, range(1, 4)).tolist() == [1 / 3] * 3

    @pytest.mark.parametrize("on", [[], [1, 1], [0], [4], [-1], [1, 2, 2]])
    def test_rejects_a_bad_vertex_list(self, on):
        # Index -1 would weight vertex 3, and a repeat would sum to less than 1.
        with pytest.raises(ValueError, match="distinct vertices"):
            uniform_weighting(3, on)


class TestLinkValue:
    def test_complete_uniform_symmetry(self):
        for t, r in [(5, 3), (6, 3), (6, 4)]:
            g = complete_graph(t, r)
            expect = binomial(t - 1, r - 1) / t ** (r - 1)
            for i in (1, t):
                assert link_value(g, i, [1 / t] * t) == pytest.approx(expect, abs=1e-14)

    def test_single_edge(self):
        g = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
        assert link_value(g, 1, [0.5, 0.3, 0.2]) == pytest.approx(0.06, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            link_value(complete_graph(4, 3), 5, [0.25] * 4)

    def test_finite_difference(self):
        # The form is multilinear, so a coordinate difference quotient
        # equals the link value up to roundoff amplified by 1/h.
        rng = random.Random(31)
        for _ in range(10):
            g = random_graph(rng, 3, 6, rng.randint(1, 20))
            x = random_weighting(rng, 6)
            edges = g.edge_array()
            h = 1e-6
            for i in (1, 4):
                y = x.copy()
                y[i - 1] += h
                fd = (_kernels.eval_poly(y, edges) - _kernels.eval_poly(x, edges)) / h
                assert fd == pytest.approx(link_value(g, i, x), abs=1e-9)

    def test_one_pass_equals_one_vertex_sums(self):
        # The link values of every vertex from one pass over the edges
        # equal, bit for bit, the fsum over the colex-sorted edges of
        # each vertex alone.
        rng = random.Random(71)
        for r in (2, 3, 4):
            for _ in range(20):
                n = rng.randint(r, 9)
                g = random_graph(rng, r, n, rng.randint(0, binomial(n, r)))
                x = random_weighting(rng, n)
                got = lagrangian_module._link_values(g, x, g.vertices())
                for i in g.vertices():
                    want = math.fsum(
                        math.prod(x[v - 1] for v in edge if v != i)
                        for edge in g.edge_list() if i in edge
                    )
                    assert got[i] == want == link_value(g, i, x)

    def test_euler_identity(self):
        rng = random.Random(37)
        for r in (2, 3, 4):
            for _ in range(30):
                n = rng.randint(r, 8)
                g = random_graph(rng, r, n, rng.randint(0, binomial(n, r)))
                x = random_weighting(rng, n)
                lhs = math.fsum(x[i - 1] * link_value(g, i, x) for i in g.vertices())
                assert abs(lhs - r * evaluate(g, x)) <= 1e-12


class TestFamilyValue:
    def test_vertex_link_value_matches(self):
        g = colex_graph(3, 11)
        x = random_weighting(random.Random(5), g.n)
        for i in g.vertices():
            assert family_value(vertex_link(g, i), x) == pytest.approx(
                link_value(g, i, x), abs=1e-14
            )

    def test_pair_link_of_2graph_counts_edge(self):
        g = Hypergraph.from_edges(2, 3, [(1, 2)])
        x = [0.5, 0.3, 0.2]
        assert family_value(pair_link(g, 1, 2), x) == 1.0
        assert family_value(pair_link(g, 1, 3), x) == 0.0

    def test_short_weighting_is_a_value_error(self):
        # The pair link of 1, 2 in K_4^(3) is {3}, {4}: a weighting of
        # length 2 has no weight for either, as evaluate would say.
        link = pair_link(complete_graph(4, 3), 1, 2)
        with pytest.raises(ValueError, match="length 2"):
            family_value(link, [0.5, 0.5])
        with pytest.raises(ValueError, match="length 3"):
            family_value(link, [0.5, 0.25, 0.25])
        assert family_value(link, [0.25] * 4) == 0.5


class TestAscend:
    def test_triangle_converges_to_uniform(self):
        g = Hypergraph.from_edges(2, 3, [(1, 2), (1, 3), (2, 3)])
        res = ascend(g, [0.5, 0.3, 0.2])
        assert res.value == pytest.approx(1 / 3, abs=1e-9)
        assert np.allclose(res.weighting, 1 / 3, atol=1e-9)
        assert res.kkt_residual <= 1e-8

    def test_complete_uniform_is_stationary(self):
        g = complete_graph(5, 3)
        res = ascend(g, uniform_weighting(5))
        assert res.value == pytest.approx(0.08, abs=1e-12)
        assert res.kkt_residual < 1e-10
        assert res.iterations <= 2

    def test_empty_graph(self):
        res = ascend(Hypergraph.from_edges(3, 4, []), uniform_weighting(4))
        assert res.value == 0.0
        assert res.support == ()
        assert res.edge_cover_ok

    def test_dead_start_flags_empty_support(self):
        g = Hypergraph.from_edges(3, 5, [(1, 2, 3)])
        res = ascend(g, [0.0, 0.0, 0.0, 0.5, 0.5])
        assert res.value == 0.0
        assert res.support == ()

    def test_rejects_weight_beyond_vertices(self):
        g = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
        with pytest.raises(ValueError, match="beyond"):
            ascend(g, [0.5, 0.25, 0.15, 0.1])

    def test_never_below_start(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(3, 7)
            g = random_graph(rng, 3, n, rng.randint(1, binomial(n, 3)))
            x0 = random_weighting(rng, n)
            res = ascend(g, x0)
            assert res.value >= evaluate(g, x0) - 1e-14
            assert res.value == pytest.approx(evaluate(g, res.weighting), abs=1e-12)

    @pytest.mark.parametrize(
        "n, edges, value",
        [
            (6, "12 13 34 15 25 45 46 56", Fraction(1, 3)),
            (7, "12 13 23 14 34 15 45 16 46 56 17 27 37", Fraction(3, 8)),
        ],
        ids=["saddle-2-7", "saddle-1-3"],
    )
    def test_saddle_row_takes_the_pair_transfer(self, n, edges, value):
        # From uniform the gain stop fires near a saddle on a support
        # that is not a clique (at 2/7 and at 1/3), off stationarity,
        # and no face closes the row. Moving the weight of a support pair
        # inside no edge leaves that saddle without lowering P.
        g = Hypergraph.from_edges(2, n, [tuple(map(int, e)) for e in edges.split()])
        res = ascend(g, uniform_weighting(n))
        assert res.value == pytest.approx(float(value), abs=1e-14)
        assert res.kkt_residual <= 1e-14
        assert res.edge_cover_ok


class TestMultistart:
    def test_beats_every_start(self):
        rng = random.Random(43)
        for _ in range(10):
            n = rng.randint(4, 7)
            g = random_graph(rng, 3, n, rng.randint(1, binomial(n, 3)))
            best = ascend_multistart(g)
            assert best.value >= evaluate(g, uniform_weighting(n)) - 1e-14

    def test_escapes_uniform_fixed_point(self):
        # Two disjoint triangles: uniform is stationary at 1/6 but the
        # maximum is 1/3 on a single triangle.
        g = Hypergraph.from_edges(2, 6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        res = ascend_multistart(g)
        assert res.value == pytest.approx(1 / 3, abs=1e-9)

    def test_deterministic(self):
        g = colex_graph(3, 12)
        a = ascend_multistart(g, OptOptions(seed=11))
        b = ascend_multistart(g, OptOptions(seed=11))
        assert a.value == b.value
        assert np.array_equal(a.weighting, b.weighting)


def kkt_residual(x, edges, value, floor):
    """The stationarity residual of one point over its weights above
    ``floor``, from a one-row gradient plan: the reference for
    ``_kkt_rows``."""
    grad = _kernels._scatter(x, _kernels._plan(edges, x.shape[0], 1), 1)
    mask = x > floor
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(grad[mask] - edges.shape[1] * value)))


def reference_ascend(g, x0, opts):
    """One start at a time through ``ascent_loop``: the single-start ascent
    that the lockstep batch replaced, kept as the reference."""
    L = lagrangian_module
    edges = g.edge_array()
    form = _kernels.Form(edges, g.n)

    def loop(x, cap, tol):
        x, value, iters, worst = _kernels.ascent_loop(x, edges, cap, tol)
        assert worst >= -L.MONOTONE_SLACK
        return x, value, iters

    def kkt(x, value):
        return kkt_residual(x, edges, value, floor=L.TRIM)

    x, value, total = loop(as_weighting(x0, g.n)[: g.n].copy(), opts.max_iters, L.GAIN_TOL)
    residual = kkt(x, value)
    for _ in range(40):
        if residual <= L.KKT_TOL or total >= opts.max_iters:
            break
        x, value, it = loop(x, min(200, opts.max_iters - total), -1.0)
        total += it
        new_residual = kkt(x, value)
        if new_residual > 0.95 * residual:
            improved, x, value, steps = L._pg_polish(x, form, value, max_steps=30)
            total += steps
            if not improved:
                break
            x, value, it = loop(x, max(opts.max_iters - total, 1), L.GAIN_TOL)
            total += it
            new_residual = kkt(x, value)
        residual = new_residual
    return L._ascent_result(g, form, x[None, :], [total])


def merge_key(res):
    # The order in which multistart keeps a result: value desc, support
    # size asc, weights lex desc; the first of equal results wins.
    return (-res.value, res.support_size, tuple(-w for w in res.weighting))


class TestLockstepMultistart:
    """The lockstep start batch against one ascent per start."""

    def per_start(self, monkeypatch, g):
        opts = OptOptions()
        seen = {}
        real = lagrangian_module._ascend_rows

        def spy_rows(g, starts, opts):
            seen.setdefault("starts", [np.array(s) for s in starts])
            return real(g, starts, opts)

        monkeypatch.setattr(lagrangian_module, "_ascend_rows", spy_rows)
        batched = ascend_multistart(g, opts)
        monkeypatch.undo()
        best = None
        seen["results"] = []
        for x0 in seen["starts"]:
            res = ascend(g, x0, opts)
            # The face finish replaced the reference's long tails: it may
            # end elsewhere, but never lower and always stationary.
            ref = reference_ascend(g, x0, opts)
            assert res.value >= ref.value - 1e-12
            assert res.kkt_residual <= lagrangian_module.KKT_TOL
            seen["results"].append(res)
            best = res if best is None or merge_key(res) < merge_key(best) else best
        assert batched.value == best.value
        assert np.array_equal(batched.weighting, best.weighting)
        assert batched.iterations == best.iterations
        assert batched.support == best.support
        return seen

    def test_equals_per_start_ascend(self, monkeypatch):
        rng = random.Random(103)
        starts = 0
        for _ in range(20):
            n = rng.randint(4, 8)
            g = random_graph(rng, 3, n, rng.randint(1, binomial(n, 3)))
            starts += len(self.per_start(monkeypatch, g)["starts"])
        assert starts > 20 * 8

    def test_equals_per_start_ascend_with_rescue(self, monkeypatch):
        # Here the growth transform alone stalls near the K4 on 2346 while
        # vertex 1 decays; the reference needs 6048 iterations and
        # projected-gradient rescues from the uniform start and still
        # ends 3e-8 off stationarity. Newton steps on the face close
        # every start.
        g = Hypergraph.from_edges(
            3,
            6,
            [(1, 2, 4), (2, 3, 4), (1, 3, 5), (2, 3, 5), (1, 4, 5),
             (1, 2, 6), (1, 3, 6), (2, 3, 6), (2, 4, 6), (3, 4, 6)],
        )
        seen = self.per_start(monkeypatch, g)
        assert len(seen["starts"]) > 1
        assert all(res.kkt_residual <= 1e-14 for res in seen["results"])
        assert reference_ascend(g, seen["starts"][0], OptOptions()).iterations == 6048
        assert seen["results"][0].iterations < 200

    def test_gain_stopped_rows_get_a_face_finish(self, monkeypatch):
        # P = x1 (x2 x3 + x2 x4 + x3 x4): the gain stop fires while the
        # residual is still above KKT_TOL; a face closes those rows at
        # once.
        g = Hypergraph.from_edges(3, 4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
        seen = self.per_start(monkeypatch, g)
        assert all(res.iterations < 100 for res in seen["results"])
        assert all(res.kkt_residual <= 1e-14 for res in seen["results"])

    def test_equals_per_start_ascend_on_two_triangles(self, monkeypatch):
        # The uniform start sits on the 1/6 plateau; other starts leave it.
        g = Hypergraph.from_edges(2, 6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        seen = self.per_start(monkeypatch, g)
        assert len(seen["starts"]) > 1

    def test_equals_per_start_ascend_with_pair_transfer(self, monkeypatch):
        # The uniform row stops near the 2/7 saddle and takes the pair
        # transfer inside the batch; each row still ends as alone.
        g = Hypergraph.from_edges(
            2, 6, [(1, 2), (1, 3), (3, 4), (1, 5), (2, 5), (4, 5), (4, 6), (5, 6)]
        )
        seen = self.per_start(monkeypatch, g)
        assert seen["results"][0].value == pytest.approx(1 / 3, abs=1e-14)

    def test_duplicate_start_runs_once(self, monkeypatch):
        # A start bit-identical to an earlier one ends where it does, so
        # it runs once and the result is the same, bit for bit.
        g = Hypergraph.from_edges(
            3, 6, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 5), (1, 5, 6), (3, 4, 6)]
        )
        opts = OptOptions()
        x = np.random.default_rng(2).dirichlet(np.ones(6))
        calls = []
        real = _kernels.ascent_rows

        def spy(X, form, max_iters, tol):
            calls.append(X.shape[0])
            return real(X, form, max_iters, tol)

        monkeypatch.setattr(_kernels, "ascent_rows", spy)
        want = lagrangian_module._ascend_rows(g, [uniform_weighting(6), x], opts)
        first = calls[0]
        calls.clear()
        got = lagrangian_module._ascend_rows(g, [uniform_weighting(6), x, x.copy()], opts)
        assert calls[0] == first == 2
        assert np.array_equal(got.weighting, want.weighting)
        assert got.to_record() == want.to_record()

    def test_drop_step_candidates(self, monkeypatch):
        # minimize_support runs its two drop candidates as one batch. From
        # uniform, K4 plus 125 135 145 ends on all of [5], 5.7e-13 below
        # 1/16, with every support pair in an edge; dropping vertex 5
        # keeps the value, and 1/16 is the complete bound on four
        # vertices, so the bound lets the drop run.
        edges = list(combinations(range(1, 5), 3)) + [(1, 2, 5), (1, 3, 5), (1, 4, 5)]
        g = Hypergraph.from_edges(3, 5, edges)
        res = ascend(g, uniform_weighting(5))
        assert res.support == (1, 2, 3, 4, 5)
        calls = []
        real = lagrangian_module._ascend_rows

        def spy_rows(g, starts, opts):
            calls.append(len(starts))
            return real(g, starts, opts)

        monkeypatch.setattr(lagrangian_module, "_ascend_rows", spy_rows)
        out = minimize_support(g, res)
        assert 2 in calls
        assert out.support == (1, 2, 3, 4)


def face_mask(face, n):
    """The boolean mask of a face given by its 0-based coordinates."""
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(face, dtype=np.int64)] = True
    return mask


def one_face_newton(x, edges, value, face):
    """``_face_newton`` on a batch of one row: x on its face (0-based)."""
    n = x.shape[0]
    return lagrangian_module._face_newton(
        x[None, :], _kernels.Form(edges, n), np.asarray([value]), face_mask(face, n)[None, :]
    )[0]


def face_newton(edges, x, face):
    """``_face_newton`` from x on a face, both given 0-based."""
    edges = np.asarray(edges, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    value = _kernels.eval_poly(x, edges)
    return one_face_newton(x, edges, value, face)


class TestFaceNewton:
    """Each acceptance check of the face finish, with a case only it rejects."""

    TRIANGLE = [(0, 1), (0, 2), (1, 2)]

    def test_accepts_the_maximum_of_a_face(self):
        # The third weight is exactly zero, so its positive gap is ignored.
        y, value, steps = face_newton(self.TRIANGLE, [0.7, 0.3, 0.0], [0, 1])
        assert np.array_equal(y, [0.5, 0.5, 0.0])
        assert value == 0.25 and steps == 1

    def test_converges_to_the_complete_3graph(self):
        k4 = list(combinations(range(4), 3))
        y, value, steps = face_newton(k4, [0.3, 0.25, 0.25, 0.2], [0, 1, 2, 3])
        assert np.allclose(y, 0.25, atol=1e-15, rtol=0)
        assert abs(value - 1 / 16) <= 1e-16
        assert 1 <= steps <= lagrangian_module.NEWTON_STEPS

    def test_rejects_a_positive_coordinate_off_the_face(self):
        # (1/2, 1/2, 0) is the maximum of the face {1, 2} and above P(x),
        # but vertex 3 has weight in x and gap 1/2 there.
        assert face_newton(self.TRIANGLE, [0.7, 0.25, 0.05], [0, 1]) is None

    def test_rejects_a_saddle(self):
        # Two disjoint edges: the uniform point is stationary and above
        # P(x), but d = (1, 1, -1, -1) has tangent curvature d^T H d > 0.
        assert face_newton([(0, 1), (2, 3)], [0.3, 0.2, 0.25, 0.25], [0, 1, 2, 3]) is None

    def test_rejects_a_lower_value(self):
        # The face {2, 3} holds no edge: P = 0 is stationary there.
        x = [0.176, 0.416, 0.126, 0.282]
        assert face_newton([(0, 3)], x, [1, 2]) is None

    def test_rejects_an_unconverged_point(self):
        # The single edge 123 from far off its maximum: eight steps do not
        # reach stationarity, though the point stays positive and higher.
        assert face_newton([(0, 1, 2)], [0.647, 0.191, 0.162], [0, 1, 2]) is None

    def test_finish_drops_the_decaying_vertex(self):
        # Growth steps on 123 124 134 125 carry vertex 5 towards zero and
        # the rest towards (1/3, 2/9, 2/9, 2/9). On the full face Newton
        # runs off to (1/3, 1/3, 0, 0, 1/3), below P(x); the face without
        # vertex 5, the most negative gap, closes.
        edges = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 4)])
        x = np.array(
            [1 / 3, 0.22222873092377718, 0.22221866262562529, 0.2222186425312452,
             6.305860189381508e-07]
        )
        value = _kernels.eval_poly(x, edges)
        y, _, _ = lagrangian_module._face_finish(
            x[None, :], _kernels.Form(edges, 5), np.asarray([value])
        )[0]
        assert np.allclose(y, [1 / 3, 2 / 9, 2 / 9, 2 / 9, 0], atol=1e-15, rtol=0)
        assert y[4] == 0.0

    def test_rejects_a_negative_weight(self):
        # Newton reaches the face's stationary point (6, 9, 5, -3, 6)/23:
        # stationary and above P(x), but outside the simplex.
        edges = [(0, 1, 2), (0, 1, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4)]
        x = [0.299, 0.308, 0.216, 0.002, 0.175]
        assert face_newton(edges, x, [0, 1, 2, 3, 4]) is None


def full_edge_face_newton(x, edges, value, face):
    """``_face_newton`` on one row from one-shot gradient and Hessian plans:
    the face's bordered KKT system embedded in the graph's n + 1
    coordinates, each coordinate off the face pinned at 0 by an identity
    row, with masked Hessian, border and steps; a singular Jacobian takes
    the minimum-norm step. Kept as the reference; returns (result, the
    check that decided it)."""
    L = lagrangian_module
    r = edges.shape[1]
    n = x.shape[0]
    mask = face_mask(face, n)
    both = np.outer(mask, mask)
    y = np.where(mask, x, 0.0)
    y /= y.sum()
    mu = r * _kernels.eval_poly(y, edges)
    jac = np.zeros((n + 1, n + 1))
    jac[:n, n] = np.where(mask, -1.0, 0.0)
    jac[n, :n] = mask
    steps = 0
    singular = False
    for _ in range(L.NEWTON_STEPS):
        grad = _kernels._scatter(y, _kernels._plan(edges, y.shape[0], 1), 1)
        resid = np.append(np.where(mask, grad - mu, 0.0), y.sum() - 1.0)
        if np.max(np.abs(resid)) < L.NEWTON_TOL:
            break
        hess = _kernels._scatter(y, _kernels._plan(edges, n, 2), 2)
        jac[:n, :n] = np.where(both, hess, np.diag(~mask))
        # ``_solve_rows`` finds the matrices ``solve`` cannot factor by
        # the sign of ``slogdet``: the two must agree.
        zero_pivot = np.linalg.slogdet(jac).sign == 0.0
        try:
            step = np.linalg.solve(jac, -resid)
        except np.linalg.LinAlgError:
            assert zero_pivot
            singular = True
            step = np.linalg.pinv(jac) @ -resid
        else:
            assert not zero_pivot
        y += np.where(mask, step[:n], 0.0)
        mu += step[n]
        steps += 1
    if not np.all(y[mask] > 0.0):
        return None, "not positive"
    new_value = float(_kernels.eval_poly(y, edges))
    if not new_value >= value:
        return None, "lower value"
    gap = _kernels._scatter(y, _kernels._plan(edges, y.shape[0], 1), 1) - r * new_value
    if np.max(np.abs(gap[mask])) > L.KKT_TOL:
        return None, "not stationary"
    if np.any(gap[(x > 0.0) & ~mask] > L.KKT_TOL):
        return None, "off-face gap"
    tangent = np.where(both, np.eye(n) - 1.0 / mask.sum(), 0.0)
    hess = _kernels._scatter(y, _kernels._plan(edges, n, 2), 2)
    if np.linalg.eigvalsh(tangent @ hess @ tangent).max() > L.CURVATURE_TOL:
        return None, "saddle"
    return (y, new_value, steps), "accepted singular" if singular else "accepted"


def face_cases(seed, graphs):
    """(x, edges, faces) on random graphs, r = 2..4 and n = 3..9.

    Half of the points come from 300 growth steps, near a maximum, so
    that faces get accepted; a third of the points have exact zeros.
    Each graph gets several faces, run in turn on one gradient plan.
    """
    rng = random.Random(seed)
    for _ in range(graphs):
        n = rng.randint(3, 9)
        r = rng.randint(2, min(4, n))
        pool = list(combinations(range(n), r))
        edges = np.asarray(rng.sample(pool, rng.randint(1, len(pool))), dtype=np.int64)
        x = random_weighting(rng, n)
        if rng.random() < 0.5:
            x = _kernels.ascent_loop(x, edges, 300, -1.0)[0]
        support = np.flatnonzero(x > 0.0).tolist()
        if rng.random() < 1 / 3 and len(support) > 1:
            zeros = rng.sample(support, rng.randint(1, len(support) - 1))
            x[zeros] = 0.0
            x /= x.sum()
            support = [v for v in support if v not in zeros]
        faces = []
        for _ in range(4):
            face = rng.sample(support, rng.randint(1, len(support)))
            if rng.random() < 0.25 and len(support) < n:
                # A face holding a coordinate at exactly zero.
                face.append(rng.choice([v for v in range(n) if v not in support]))
            faces.append(np.asarray(sorted(face)))
        yield x, edges, faces


class TestFaceLocalNewton:
    """The embedded ``_face_newton`` against the full-edge reference."""

    EXAMPLES = [
        ([(0, 1), (0, 2), (1, 2)], [0.7, 0.3, 0.0], [0, 1]),
        ([(0, 1), (0, 2), (1, 2)], [0.7, 0.25, 0.05], [0, 1]),
        ([(0, 1), (2, 3)], [0.3, 0.2, 0.25, 0.25], [0, 1, 2, 3]),
        ([(0, 3)], [0.176, 0.416, 0.126, 0.282], [1, 2]),
        ([(0, 1, 2)], [0.647, 0.191, 0.162], [0, 1, 2]),
        ([(0, 1, 2), (0, 1, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4)],
         [0.299, 0.308, 0.216, 0.002, 0.175], [0, 1, 2, 3, 4]),
    ]

    def test_bit_identical_to_the_full_edge_newton(self):
        cases = [
            (np.asarray(x), np.asarray(edges, dtype=np.int64), [np.asarray(face)])
            for edges, x, face in self.EXAMPLES
        ]
        cases += face_cases(151, 150)
        reasons: dict[str, int] = {}
        shapes = {"no inner edge": 0, "k = 1": 0, "zero on the face": 0}
        for x, edges, faces in cases:
            value = _kernels.eval_poly(x, edges)
            for face in faces:
                with np.errstate(all="ignore"):
                    got = one_face_newton(x, edges, value, face)
                    want, reason = full_edge_face_newton(x, edges, value, face)
                reasons[reason] = reasons.get(reason, 0) + 1
                inner = np.isin(edges, face).all(axis=1).any()
                shapes["no inner edge"] += face.shape[0] > 1 and not inner
                shapes["k = 1"] += face.shape[0] == 1
                shapes["zero on the face"] += bool((x[face] == 0.0).any())
                if want is None:
                    assert got is None, reason
                    continue
                y, new_value, steps = got
                assert np.array_equal(y, want[0])
                assert new_value == want[1] and steps == want[2]
                # A pinned coordinate stays exactly 0, on every path.
                assert not y[~face_mask(face, x.shape[0])].any()
        assert set(reasons) == {
            "accepted", "accepted singular", "not positive", "lower value",
            "not stationary", "off-face gap", "saddle",
        }, reasons
        assert all(count > 0 for count in shapes.values()), shapes

    def test_batch_equals_one_row_calls(self):
        # Every face of the corpus from two points of its graph, all as
        # one batch whatever the face sizes, as a drop round of
        # ``_face_finish`` runs them; each row must equal a call on that
        # row alone.
        cases = [
            (np.asarray(x), np.asarray(edges, dtype=np.int64), [np.asarray(face)])
            for edges, x, face in self.EXAMPLES
        ]
        cases += face_cases(151, 150)
        outcomes = Counter()
        for x, edges, faces in cases:
            # The second point is 25 growth steps on, with its smallest
            # positive weight zeroed, so the rows of a batch differ in
            # their exact zeros too.
            y = _kernels.ascent_loop(x, edges, 25, -1.0)[0]
            if (y > 0.0).sum() > 1:
                y[np.flatnonzero(y > 0.0)[np.argmin(y[y > 0.0])]] = 0.0
                y /= y.sum()
            n = x.shape[0]
            attempts = [(p, face) for p in (x, y) for face in faces]
            X = np.asarray([p for p, _ in attempts])
            values = np.asarray([_kernels.eval_poly(p, edges) for p, _ in attempts])
            F = np.asarray([face_mask(face, n) for _, face in attempts])
            with np.errstate(all="ignore"):
                got = lagrangian_module._face_newton(
                    X, _kernels.Form(edges, n), values, F
                )
                want = [
                    one_face_newton(p, edges, v, face)
                    for (p, face), v in zip(attempts, values)
                ]
            sizes = len(set(F.sum(axis=1).tolist()))
            outcomes["mixed sizes" if sizes > 1 else "one size"] += 1
            for a, b in zip(got, want):
                if b is None:
                    assert a is None
                    outcomes["rejected"] += 1
                    continue
                outcomes["accepted"] += 1
                outcomes["accepted in a mixed batch"] += sizes > 1
                assert np.array_equal(a[0], b[0])
                assert a[1] == b[1] and a[2] == b[2]
        assert all(outcomes[key] > 50 for key in (
            "mixed sizes", "accepted", "rejected", "accepted in a mixed batch",
        )), outcomes

    def test_singular_row_takes_the_minimum_norm_step(self):
        # A triangle on 012 and a path 3-4-5. On the path's face the
        # bordered Jacobian has two equal rows, so the stacked solve fails
        # for the whole batch. The path's row takes the minimum-norm step
        # onto the plateau x4 = 1/2, x3 + x5 = 1/2 of P = x4 (x3 + x5),
        # where the tangent Hessian has a zero eigenvalue, and is
        # accepted; the triangle's rows are solved as they are alone.
        edges = np.asarray([(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
        X = np.asarray([
            [0.3, 0.3, 0.4, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.3, 0.4, 0.3],
            [0.5, 0.2, 0.3, 0.0, 0.0, 0.0],
        ])
        faces = np.asarray([face_mask(f, 6) for f in ([0, 1, 2], [3, 4, 5], [0, 1, 2])])
        path = np.asarray([[0, 1, 0, -1], [1, 0, 1, -1], [0, 1, 0, -1], [1, 1, 1, 0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(path, np.ones(4))
        values = np.asarray([_kernels.eval_poly(x, edges) for x in X])
        got = lagrangian_module._face_newton(X, _kernels.Form(edges, 6), values, faces)
        y, value, steps = got[1]
        assert np.allclose(y, [0, 0, 0, 0.25, 0.5, 0.25], atol=1e-15, rtol=0)
        assert y[4] == 0.5 and y[3] + y[5] == 0.5
        assert not y[:3].any()
        assert value == 0.25 and steps == 1
        for i in (0, 2):
            y, value, steps = got[i]
            assert np.allclose(y, [1 / 3] * 3 + [0] * 3, atol=1e-15, rtol=0)
            assert steps == 1
        for i, (y, value, steps) in enumerate(got):
            want = one_face_newton(X[i], edges, values[i], np.flatnonzero(faces[i]))
            assert np.array_equal(y, want[0]) and value == want[1] and steps == want[2]

    def test_solve_rows_splits_a_singular_stack_once(self):
        # Row 2 repeats a row of its matrix, so it is exactly singular
        # and the stacked solve raises. The other rows are solved as one
        # stack, each as alone; row 2 gets the minimum-norm least-squares
        # step.
        rng = np.random.default_rng(5)
        jac = rng.random((4, 5, 5))
        jac[2, 3] = jac[2, 1]
        rhs = rng.random((4, 5))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(jac, rhs[..., None])
        step = lagrangian_module._solve_rows(jac, rhs)
        for i in (0, 1, 3):
            assert np.array_equal(step[i], np.linalg.solve(jac[i], rhs[i]))
        assert np.array_equal(step[2], np.linalg.pinv(jac[2]) @ rhs[2])
        least_squares = np.linalg.lstsq(jac[2], rhs[2], rcond=None)[0]
        assert np.allclose(step[2], least_squares, atol=1e-12, rtol=0)

    def test_one_full_plan_per_batch_and_one_face_plan_per_face(self, monkeypatch):
        # The left-compressed 3-graph on [7] whose growth transform stops
        # 1.17e-7 off stationarity: its rows run KKT checks, face attempts
        # with Newton steps, and the drop step of support minimization.
        # Faces have no plans of their own: each ``_ascend_graphs`` call
        # builds one form, which plans the gradient on its first growth
        # chunk and the Hessian, at most once, on its first Newton batch;
        # every batch takes a prefix of their tilings.
        g = Hypergraph.from_edges(3, 7, [
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5),
            (1, 4, 5), (2, 4, 5), (1, 2, 6), (1, 3, 6), (2, 3, 6), (1, 4, 6), (1, 5, 6),
            (1, 2, 7), (1, 3, 7), (2, 3, 7), (1, 4, 7), (1, 5, 7), (1, 6, 7),
        ])
        L = lagrangian_module
        scope: list[str] = []  # the spied calls running, innermost last
        batches: list[Counter] = []  # per _ascend_graphs call: (callee, caller) counts
        rounds: list[int] = []  # _face_newton calls of each _face_finish call
        sizes: list[set] = []  # the face sizes of each _face_newton batch
        newton_steps: list[int] = []  # of each accepted face attempt

        def spy(owner, name):
            real = getattr(owner, name)

            def wrapped(*args, **kwargs):
                # A plan is counted by its derivative order.
                callee = f"_plan/{args[2]}" if name == "_plan" else name
                if name == "_ascend_graphs":
                    batches.append(Counter())
                elif "_ascend_graphs" in scope:
                    batches[-1][callee, scope[-1]] += 1
                if name == "_face_finish":
                    rounds.append(0)
                if name == "_face_newton":
                    rounds[-1] += 1
                    sizes.append(set(args[3].sum(axis=1).tolist()))
                scope.append(name)
                try:
                    out = real(*args, **kwargs)
                finally:
                    scope.pop()
                if name == "_face_newton":
                    newton_steps.extend(res[2] for res in out if res is not None)
                return out

            monkeypatch.setattr(owner, name, wrapped)

        for owner, name in [
            (L, "_ascend_graphs"), (L, "_certified"), (L, "_kkt_rows"), (L, "_face_finish"),
            (L, "_face_newton"), (_kernels, "ascent_rows"), (_kernels, "_plan"),
        ]:
            spy(owner, name)
        res = lagrangian(g)
        assert certify(g, res).ok
        # A call whose rows all stop stationary runs no face finish.
        ascend(complete_graph(5, 3), uniform_weighting(5))
        assert len(batches) > 2
        assert any(seen["_face_finish", "_ascend_graphs"] for seen in batches), batches
        assert not all(seen["_face_finish", "_ascend_graphs"] for seen in batches), batches
        for seen in batches:
            growth = seen["ascent_rows", "_ascend_graphs"]
            # One gradient plan for the batch, built on the first growth
            # chunk and shared by every later chunk, KKT check, face
            # attempt and the certificate.
            finish = 1 if seen["_face_finish", "_ascend_graphs"] else 0
            assert seen["_plan/1", "ascent_rows"] == 1, seen
            # One Hessian plan in a call that runs a face finish, on its
            # first Newton batch; none in any other.
            assert seen["_plan/2", "_face_newton"] == finish, seen
            # No other plan anywhere: none in a later chunk, the KKT
            # checks, the certificate or ``_face_finish`` itself.
            builds = sum(n for key, n in seen.items() if key[0].startswith("_plan"))
            assert builds == 1 + finish, seen
            # One loop: each pass runs one growth chunk, at most one KKT
            # batch and at most one face finish batch.
            assert seen["_face_finish", "_ascend_graphs"] <= growth, seen
            assert seen["_kkt_rows", "_ascend_graphs"] <= growth, seen
        # At most one ``_face_newton`` batch per drop round, and some batch
        # holds faces of different sizes and more than one row.
        assert rounds and max(rounds) <= L.FACE_DROPS + 1, rounds
        assert any(len(s) > 1 for s in sizes), sizes
        # The KKT checks after each phase run as one batch; one
        # ``_certified`` call per ``_ascend_graphs`` call certifies the kept
        # row, with a one-row ``_kkt_rows``.
        assert all(seen["_certified", "_ascend_graphs"] == 1 for seen in batches), batches
        assert all(seen["_kkt_rows", "_certified"] == 1 for seen in batches), batches
        assert sum(seen["_kkt_rows", "_ascend_graphs"] for seen in batches) > 0, batches
        assert sum(newton_steps) > 1


class TestPlateauFaces:
    """Plateaus, where twin vertices trade weight freely and the face
    Hessian is singular, close by Newton steps on a face."""

    def test_ascend_closes_a_plateau_face(self):
        # From the uniform start the growth transform heads for the
        # plateau of 126 136 247 467 at value 1/27; it used to take 223
        # iterations there, one 200-step burst included.
        g = Hypergraph.from_edges(3, 7, [(1, 2, 6), (1, 3, 6), (2, 4, 7), (4, 6, 7)])
        res = ascend(g, uniform_weighting(7))
        assert res.iterations <= 30
        assert abs(res.value - 1 / 27) <= 1e-16
        assert res.kkt_residual <= 1e-14

    @pytest.mark.parametrize("name", ["pz18", "colex-30"])
    def test_multistart_closes_twin_faces(self, name):
        # The pz18 graph, every triple of [5] and ab6 for ab in [4], and
        # colex_graph(3, 30), every triple of [6] and ab7 for ab in [5]:
        # in each the last two vertices are twins, with one link and no
        # common edge, so weight moves freely between them.
        if name == "pz18":
            edges = list(combinations(range(1, 6), 3))
            edges += [(a, b, 6) for a, b in combinations(range(1, 5), 2)]
            g = Hypergraph.from_edges(3, 6, edges)
        else:
            g = colex_graph(3, 30)
        res = ascend_multistart(g, OptOptions(seed=0))
        assert res.kkt_residual <= 1e-14

    def test_multistart_closes_beside_a_nearly_singular_face(self):
        # With seed 1 one start of colex_graph(3, 30) ends near a face
        # whose Jacobian is nearly singular: ``solve`` factors it and
        # Newton does not close it. Its twins 6 and 7 lie in no common
        # edge, so that row takes the pair transfer. The best start
        # ends stationary.
        res = ascend_multistart(colex_graph(3, 30), OptOptions(seed=1))
        assert res.kkt_residual <= 1e-14


class TestKKTRows:
    def test_equals_one_row_residuals(self):
        # Per graph of the face corpus: its point, the point 25 growth
        # steps on, the point with its largest weight zeroed and a row
        # with every weight at or below trim, as one batch.
        L = lagrangian_module
        trim = L.TRIM
        zero_rows = 0
        for x, edges, _ in face_cases(151, 150):
            n = x.shape[0]
            y = _kernels.ascent_loop(x, edges, 25, -1.0)[0]
            z = x.copy()
            z[np.argmax(z)] = 0.0
            X = np.asarray([x, y, z, np.full(n, trim) * (np.arange(n) % 2)])
            values = np.asarray([_kernels.eval_poly(row, edges) for row in X])
            got = L._kkt_rows(X, _kernels.Form(edges, n), values)
            want = [kkt_residual(row, edges, v, floor=trim) for row, v in zip(X, values)]
            assert got.tolist() == want
            zero_rows += got[3] == 0.0
        assert zero_rows == 150


class TestLagrangianDispatcher:
    def test_complete_closed_form(self):
        res = lagrangian(complete_graph(5, 3))
        assert res.method == "closed-form"
        assert res.value == pytest.approx(0.08, abs=1e-15)
        assert res.support == (1, 2, 3, 4, 5)
        assert res.kkt_residual <= 1e-12

    def test_2graph_closed_form(self):
        g = Hypergraph.from_edges(2, 5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        res = lagrangian(g)
        assert res.method == "closed-form"
        assert res.value == pytest.approx(1 / 3, abs=1e-15)
        assert res.support == (1, 2, 3)

    def test_plateau_values(self):
        target = float(complete_lagrangian(5, 3))
        for m in range(10, 17):
            res = lagrangian(colex_graph(3, m))
            assert res.value == pytest.approx(target, abs=1e-7), m

    def test_complete_plus_isolated_vertices(self):
        g = complete_graph(4, 3).with_vertex_count(6)
        res = lagrangian(g)
        assert res.method == "closed-form"
        assert res.value == pytest.approx(0.0625, abs=1e-15)
        assert res.support == (1, 2, 3, 4)

    def test_empty_graph(self):
        res = lagrangian(Hypergraph.from_edges(3, 4, []))
        assert res.value == 0.0
        assert res.support == ()
        assert res.method == "closed-form"

    def test_numeric_path_matches_motzkin_straus(self):
        rng = random.Random(47)
        for _ in range(12):
            n = rng.randint(3, 6)
            g = random_graph(rng, 2, n, rng.randint(1, binomial(n, 2)))
            numeric = ascend_multistart(g)
            assert abs(numeric.value - float(motzkin_straus(g))) <= 1e-7

    def test_subgraph_monotone(self):
        rng = random.Random(53)
        for _ in range(8):
            n = rng.randint(4, 8)
            m2 = rng.randint(2, binomial(n, 3))
            g2 = random_graph(rng, 3, n, m2)
            sub_edges = rng.sample(g2.edge_list(), rng.randint(1, m2))
            g1 = Hypergraph.from_edges(3, n, sub_edges)
            assert lagrangian(g1).value <= lagrangian(g2).value + 1e-7

    def test_isolated_vertex_invariance(self):
        rng = random.Random(59)
        for _ in range(6):
            n = rng.randint(4, 6)
            g = random_graph(rng, 3, n, rng.randint(1, binomial(n, 3)))
            a = lagrangian(g).value
            b = lagrangian(g.with_vertex_count(n + 1)).value
            assert abs(a - b) <= 1e-10


class TestMinimizeSupport:
    def test_isolated_vertex_leaves_support(self):
        g = complete_graph(4, 3).with_vertex_count(5)
        res = ascend(g, uniform_weighting(5))
        out = minimize_support(g, res)
        assert out.support == (1, 2, 3, 4)
        assert out.value == pytest.approx(0.0625, abs=1e-9)

    def test_triangle_with_isolated_vertex(self):
        g = Hypergraph.from_edges(2, 4, [(1, 2), (1, 3), (2, 3)])
        res = ascend(g, uniform_weighting(4))
        out = minimize_support(g, res)
        assert out.support == (1, 2, 3)
        assert out.value == pytest.approx(1 / 3, abs=1e-9)

    def test_two_triangles_from_uniform_plateau(self):
        g = Hypergraph.from_edges(2, 6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        stuck = ascend(g, uniform_weighting(6))
        assert stuck.value == pytest.approx(1 / 6, abs=1e-12)
        out = minimize_support(g, stuck)
        assert out.value == pytest.approx(1 / 3, abs=1e-9)
        assert out.support_size == 3
        assert out.method == "refined"
        assert out.edge_cover_ok

    def test_keeps_optimal_result(self):
        g = complete_graph(5, 3)
        res = ascend(g, uniform_weighting(5))
        out = minimize_support(g, res)
        assert out.support_size == 5
        assert out.value == pytest.approx(0.08, abs=1e-12)


def unbounded_minimize_support(g, res, opts):
    """``minimize_support`` without the complete-graph bound: every drop
    runs its ascent. Kept as the reference for the bound."""
    L = lagrangian_module
    form = _kernels.Form(g.edge_array(), g.n)
    best = res
    changed = False
    while len(best.support) > 1:
        pair = L._find_uncovered_pair(g, best.support)
        if pair is not None:
            cand = ascend(g, L._pair_transfer(best.weighting, form, pair), opts)
            if cand.value >= best.value - L.VALUE_TOL:
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
        starts = np.array([x / total, uniform_weighting(g.n, remaining)])
        cand = L._ascend_rows(g, starts, opts)
        if cand.value >= best.value - L.VALUE_TOL:
            best = cand
            changed = True
        else:
            break
    if changed:
        best = replace(best, method="refined", structured_only=res.structured_only)
    return best


class TestSupportBound:
    """The complete-graph bound that settles a support drop unrun."""

    def drop_calls(self, monkeypatch):
        calls = []
        real = lagrangian_module._ascend_rows

        def spy_rows(g, starts, opts):
            res = real(g, starts, opts)
            calls.append((len(starts), res))
            return res

        monkeypatch.setattr(lagrangian_module, "_ascend_rows", spy_rows)
        return calls

    def test_equals_the_unbounded_loop(self, monkeypatch):
        # Each graph from its multistart result and from the uniform
        # start: every left-compressed 3-graph on [6] and [7], and random
        # 3- and 4-graphs on 5 to 8 vertices.
        rng = random.Random(61)
        graphs = [
            g for t in (6, 7) for m in range(1, binomial(t, 3) + 1)
            for g in enumerate_left_compressed(t, 3, m)
        ]
        for _ in range(60):
            r = rng.choice((3, 4))
            n = rng.randint(5, 8)
            graphs.append(random_graph(rng, r, n, rng.randint(1, binomial(n, r))))
        opts = OptOptions()
        calls = self.drop_calls(monkeypatch)
        ran = settled = kept = 0
        for g in graphs:
            for res in (ascend_multistart(g, opts), ascend(g, uniform_weighting(g.n), opts)):
                calls.clear()
                want = unbounded_minimize_support(g, res, opts)
                unbounded = sum(k == 2 for k, _ in calls)
                calls.clear()
                got = minimize_support(g, res, opts)
                assert got.to_record() == want.to_record(), g.edge_list()
                assert np.array_equal(got.weighting, want.weighting)
                drops = [out for k, out in calls if k == 2]
                ran += len(drops)
                settled += unbounded - len(drops)
                # A drop kept last: the result holds its weighting.
                kept += any(got.weighting is out.weighting for out in drops)
        # The bound settles most drops, and some drops run and are kept.
        assert settled > ran > 0 and kept > 0, (settled, ran, kept)

    def test_settled_drop_makes_no_ascent_call(self, monkeypatch):
        # On K5 every pair is covered, and no weighting on four vertices
        # reaches 0.08: the complete bound there is 1/16.
        g = complete_graph(5, 3)
        res = ascend(g, uniform_weighting(5))
        calls = self.drop_calls(monkeypatch)
        assert minimize_support(g, res) is res
        assert calls == []

    def test_no_drop_below_the_arity(self, monkeypatch):
        # A single edge: two vertices carry no edge, so the bound is 0.
        g = Hypergraph.from_edges(3, 4, [(1, 2, 3)])
        res = ascend(g, uniform_weighting(4))
        assert res.support == (1, 2, 3)
        calls = self.drop_calls(monkeypatch)
        assert minimize_support(g, res) is res
        assert calls == []

    def test_ceiling_bounds_every_weighting(self):
        # No computed value on k vertices exceeds the ceiling: the
        # complete r-graph at uniform and at random weightings, the
        # largest there is, and 0 below the arity.
        L = lagrangian_module
        rng = np.random.default_rng(67)
        for r in (2, 3, 4):
            for k in range(1, 13):
                ceiling = L._complete_ceiling(k, r)
                if k < r:
                    assert ceiling == 0.0
                    continue
                exact = complete_lagrangian(k, r)
                assert float(exact) <= ceiling <= float(exact) * (1 + 1e-12)
                edges = complete_graph(k, r).edge_array()
                points = [np.full(k, 1.0 / k)] + list(rng.dirichlet(np.ones(k), size=50))
                for x in points:
                    x = np.where(x > 0.0, x, 0.0)
                    x = x / x.sum()
                    assert _kernels.eval_poly(x, edges) <= ceiling


class TestClosedForms:
    def test_motzkin_straus_values(self):
        k3 = Hypergraph.from_edges(2, 3, [(1, 2), (1, 3), (2, 3)])
        assert motzkin_straus(k3) == Fraction(1, 3)
        k2 = Hypergraph.from_edges(2, 2, [(1, 2)])
        assert motzkin_straus(k2) == Fraction(1, 4)
        c5 = Hypergraph.from_edges(2, 5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert motzkin_straus(c5) == Fraction(1, 4)
        assert motzkin_straus(Hypergraph.from_edges(2, 3, [])) == 0

    def test_motzkin_straus_requires_2graph(self):
        with pytest.raises(ValueError):
            motzkin_straus(complete_graph(4, 3))

    def test_complete_lagrangian(self):
        assert complete_lagrangian(5, 3) == Fraction(10, 125)
        assert float(complete_lagrangian(4, 3)) == 0.0625
        with pytest.raises(ValueError):
            complete_lagrangian(2, 3)

    def test_complete_3graph_product_form(self):
        # C(t,3)/t^3 = (t-1)(t-2)/(6 t^2) as exact rationals
        for t in range(3, 41):
            assert complete_lagrangian(t, 3) == Fraction((t - 1) * (t - 2), 6 * t**2)


class TestUncoveredPair:
    def test_matches_brute_force(self):
        # The first support pair in lexicographic order that lies in no
        # edge, or None: r = 2..4, n <= 9, with empty, singleton, full
        # and random supports given in any order.
        rng = random.Random(73)
        find = lagrangian_module._find_uncovered_pair
        cases = found = 0
        for r in (2, 3, 4):
            for _ in range(60):
                n = rng.randint(r, 9)
                g = random_graph(rng, r, n, rng.randint(0, binomial(n, r)))
                edges = [set(e) for e in g.edge_list()]
                supports = [(), (rng.randint(1, n),), tuple(range(1, n + 1))]
                supports.append(tuple(rng.sample(range(1, n + 1), rng.randint(2, n))))
                for support in supports:
                    want = next(
                        (
                            (i, j) for i, j in combinations(sorted(support), 2)
                            if not any(i in e and j in e for e in edges)
                        ),
                        None,
                    )
                    assert find(g, support) == want, (g.edge_list(), support)
                    cases += 1
                    found += want is not None
        assert 0 < found < cases

    def test_far_vertices(self):
        # Bit 63 holds vertex 64.
        g = Hypergraph.from_edges(3, 64, [(1, 63, 64), (2, 63, 64)])
        assert lagrangian_module._find_uncovered_pair(g, (63, 64)) is None
        assert lagrangian_module._find_uncovered_pair(g, (1, 2, 63, 64)) == (1, 2)
        assert lagrangian_module._find_uncovered_pair(g, (64, 3, 63)) == (3, 63)


class TestCertify:
    def test_complete_uniform_passes(self):
        g = complete_graph(5, 3)
        res = lagrangian(g)
        cert = certify(g, res, 1e-10)
        assert cert.ok
        assert cert.kkt_ok and cert.edge_cover_ok
        assert cert.left_compressed and cert.monotone_ok and cert.difference_ok

    def test_pendant_vertex_cover_on_support(self):
        g = Hypergraph.from_edges(2, 4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        res = lagrangian(g)
        assert res.support == (1, 2, 3)
        cert = certify(g, res, 1e-8)
        assert cert.edge_cover_ok

    def test_left_compressed_monotone_weights(self):
        g = colex_graph(3, 13)
        res = lagrangian(g)
        cert = certify(g, res, 1e-8)
        assert cert.left_compressed
        assert cert.monotone_ok
        assert cert.difference_ok

    def test_every_left_compressed_graph_on_6(self):
        for m in range(binomial(6, 3) + 1):
            for g in enumerate_left_compressed(6, 3, m):
                assert certify(g, lagrangian(g)).ok, g.edge_list()

    def test_left_compressed_graph_on_7_is_stationary(self):
        # The growth transform left this one 1.2e-7 off stationarity.
        edges = [
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5),
            (1, 4, 5), (2, 4, 5), (1, 2, 6), (1, 3, 6), (2, 3, 6), (1, 4, 6), (1, 5, 6),
            (1, 2, 7), (1, 3, 7), (2, 3, 7), (1, 4, 7), (1, 5, 7), (1, 6, 7),
        ]
        g = Hypergraph.from_edges(3, 7, edges)
        cert = certify(g, lagrangian(g))
        assert cert.left_compressed and cert.ok

    def test_every_left_compressed_graph_on_7(self):
        residual = 0.0
        for m in range(1, binomial(7, 3) + 1):
            for g in enumerate_left_compressed(7, 3, m):
                res = lagrangian(g)
                cert = certify(g, res)
                assert cert.ok, g.edge_list()
                residual = max(residual, res.kkt_residual, cert.kkt_residual)
        assert residual <= 1e-13

    def test_sorted_weights_within_rounding(self):
        # Vertex 1 with the link 23 and {2, 3} x {4, 5, 6}: the maximum
        # 4/81 is a plateau on which 4, 5 and 6 share 2/9. This optimal
        # weighting on {1, 2, 3, 6} evaluates one ulp above its sort, so
        # a strict tie rule kept it unsorted and certify's monotone check
        # failed; the sorted weighting is reported.
        g = Hypergraph.from_edges(
            3, 6, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 5), (1, 3, 5), (1, 2, 6), (1, 3, 6)]
        )
        x = np.array([
            0.3333333333333333, 0.22222222222222213, 0.22222222222222218, 0.0, 0.0,
            0.22222222222222246,
        ])
        value = evaluate(g, x)
        res = replace(lagrangian(g), value=value, weighting=x, support=(1, 2, 3, 6))
        ordered = np.sort(x)[::-1]
        assert evaluate(g, ordered) == value - math.ulp(value)
        assert not certify(g, res).monotone_ok
        out = lagrangian_module._sorted_weights(g, res)
        assert np.array_equal(out.weighting, ordered)
        assert out.value == evaluate(g, ordered) and out.support == (1, 2, 3, 4)
        assert certify(g, out).ok
        # A sort that lowers P beyond rounding, possible only off the
        # left-compressed class, keeps the result.
        g = Hypergraph.from_edges(3, 6, [(4, 5, 6)])
        res = lagrangian(g)
        assert lagrangian_module._sorted_weights(g, res) is res

    def test_difference_sides_match_the_link_path(self):
        # Both sides of every support pair's identity, from one pass over
        # the edges, bit for bit as pair_link and difference_link give
        # them: the optimum and a full-support draw of every
        # left-compressed 3- and 4-graph on [6].
        rng = np.random.default_rng(6)
        pairs = 0
        for r, m in [(r, m) for r in (3, 4) for m in range(binomial(6, r) + 1)]:
            for g in enumerate_left_compressed(6, r, m):
                for x in (lagrangian(g).weighting, rng.dirichlet(np.ones(6))):
                    support = lagrangian_module._support(x)
                    sides = lagrangian_module._difference_sides(g, x, support)
                    assert list(sides) == list(combinations(support, 2))
                    for i, j in sides:
                        lhs = (x[i - 1] - x[j - 1]) * family_value(pair_link(g, i, j), x)
                        rhs = family_value(difference_link(g, i, j), x)
                        assert sides[i, j] == (lhs, rhs), (g.edge_list(), i, j)
                        pairs += rhs != 0.0
        assert pairs > 0

    def test_non_compressed_skips_order_checks(self):
        g = Hypergraph.from_edges(3, 4, [(2, 3, 4)])
        res = lagrangian(g)
        cert = certify(g, res, 1e-8)
        assert not cert.left_compressed
        assert cert.monotone_ok is None
        assert cert.difference_ok is None

    def test_record_round_trip(self):
        import json

        g = colex_graph(3, 12)
        res = lagrangian(g)
        rec = res.to_record()
        text = json.dumps(rec, sort_keys=True)
        assert json.loads(text)["value"] == res.value
        cert_rec = certify(g, res, 1e-8).to_record()
        json.dumps(cert_rec, sort_keys=True)


class TestWeightingValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_is_rejected(self, bad):
        x = [bad, 0.5, 0.5, 0.0, 0.0]
        g = Hypergraph.from_edges(3, 5, [(1, 2, 3), (3, 4, 5)])
        with pytest.raises(ValueError, match="sum"):
            evaluate(g, x)
        with pytest.raises(ValueError, match="sum"):
            link_value(g, 1, x)
        with pytest.raises(ValueError, match="sum"):
            ascend(g, x)
        # Not left-compressed, so only the KKT and pair-cover checks run.
        res = replace(lagrangian(g), weighting=np.asarray(x))
        with pytest.raises(ValueError, match="sum"):
            certify(g, res)

    def test_as_weighting(self):
        arr = as_weighting([0.5, 0.3, 0.2], 3)
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            as_weighting([[0.5], [0.5]], 2)
