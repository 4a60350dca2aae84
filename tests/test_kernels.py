"""The numpy kernels against plain-Python sums over edges, and ascent invariants."""

import math
import random
from itertools import combinations

import numpy as np
import pytest

from lagrangia import _kernels
from lagrangia.core import Hypergraph, binomial, complete_graph
from lagrangia.lagrangian import ascend, lagrangian, minimize_support, uniform_weighting


def random_case(rng, r, n, m):
    pool = list(combinations(range(n), r))
    edges = np.asarray(rng.sample(pool, m), dtype=np.int64)
    x = np.asarray([rng.random() for _ in range(n)])
    return x / x.sum(), edges


def cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 9)
        r = rng.randint(2, min(4, n))
        yield random_case(rng, r, n, rng.randint(1, binomial(n, r)))


def python_value(x, edges):
    return math.fsum(math.prod(float(x[v]) for v in e) for e in edges.tolist())


def python_grad(x, edges):
    out = [[] for _ in range(x.shape[0])]
    for e in edges.tolist():
        for v in e:
            out[v].append(math.prod(float(x[u]) for u in e if u != v))
    return [math.fsum(terms) for terms in out]


def python_hessian(x, edges):
    n = x.shape[0]
    out = [[[] for _ in range(n)] for _ in range(n)]
    for e in edges.tolist():
        for u in e:
            for v in e:
                if u != v:
                    out[u][v].append(math.prod(float(x[w]) for w in e if w not in (u, v)))
    return [[math.fsum(terms) for terms in row] for row in out]


def plan_grad(x, edges):
    """The gradient at one vector from its one-row plan."""
    return _kernels._scatter(x, _kernels._plan(edges, x.shape[0], 1), 1)


def plan_hess(x, edges):
    """The Hessian at one vector from its one-row plan."""
    return _kernels._scatter(x, _kernels._plan(edges, x.shape[0], 2), 2)


class TestBackendEquivalence:
    """The numpy backend against a plain-Python reference."""

    def test_eval_matches(self):
        for x, edges in cases(61, 60):
            assert abs(_kernels.eval_poly(x, edges) - python_value(x, edges)) <= 1e-15

    def test_grad_matches(self):
        for x, edges in cases(67, 60):
            got = plan_grad(x, edges)
            assert got.shape == x.shape
            assert np.allclose(got, python_grad(x, edges), atol=1e-15, rtol=0)

    def test_hessian_matches(self):
        # Same cases as the gradient, so every r = 2..4 and n = 3..9 occurs.
        for x, edges in cases(67, 60):
            got = plan_hess(x, edges)
            assert got.shape == (x.shape[0], x.shape[0])
            assert np.allclose(got, python_hessian(x, edges), atol=1e-15, rtol=0)

    def test_face_plans_match_the_full_derivatives(self):
        # Off a face y is exactly 0, so the edges leaving the face add only
        # +-0.0 to the face's bins: the graph's own plans give g_S and H_SS
        # bit for bit as the plans of the face's own edges, relabelled
        # 0..k-1, would. A form tiled for four rows gives every row of a
        # three-row batch whose rows have different faces as one-row
        # calls do. Weights on a face may be negative, as at a Newton
        # iterate.
        rng = random.Random(79)
        inner_free = 0
        for x, edges in cases(67, 60):
            n = x.shape[0]
            Y = np.zeros((3, n))
            faces = []
            for y in Y:
                face = np.asarray(sorted(rng.sample(range(n), rng.randint(1, n))))
                y[face] = [rng.uniform(-0.5, 1.0) for _ in range(face.shape[0])]
                faces.append(face)
            form = _kernels.Form(edges, n)
            form.plan(1, np.zeros((4, n)))
            form.plan(2, np.zeros((4, n)))
            grads = form.grad(Y)
            hessians = form.hess(Y)
            assert hessians.shape == (3, n, n)
            for y, face, grad, hess in zip(Y, faces, grads, hessians):
                assert np.array_equal(grad, plan_grad(y, edges))
                assert np.array_equal(hess, plan_hess(y, edges))
                k = face.shape[0]
                label = np.full(n, -1)
                label[face] = np.arange(k)
                local = label[edges]
                local = local[(local >= 0).all(axis=1)]
                inner_free += local.shape[0] == 0
                z = y[face]
                got = plan_hess(z, local)
                assert np.array_equal(got, hess[np.ix_(face, face)])
                got = plan_grad(z, local)
                assert np.array_equal(got, grad[face])
        assert inner_free > 0

    def test_every_arity_and_size_covered(self):
        seen = {(edges.shape[1], x.shape[0]) for x, edges in cases(67, 60)}
        assert {r for r, _ in seen} == {2, 3, 4}
        assert {n for _, n in seen} == set(range(3, 10))

    def test_ascent_matches(self):
        # Fixed-length runs (tol < 0 disables the gain stop) of the plain
        # growth transform x_i <- x_i g_i / sum_j x_j g_j.
        for x, edges in cases(71, 20):
            xr, val, iters, _ = _kernels.ascent_loop(x, edges, 60, -1.0)
            y = [float(v) for v in x]
            for _ in range(60):
                g = python_grad(np.asarray(y), edges)
                denom = math.fsum(a * b for a, b in zip(y, g))
                y = [a * b / denom for a, b in zip(y, g)]
            assert iters == 60
            assert np.allclose(xr, y, atol=1e-13, rtol=0)
            assert abs(val - python_value(np.asarray(y), edges)) <= 1e-13

    def test_zero_weight_coordinates_stay_exact(self):
        # Leave-one-out products must not divide by a zero weight.
        x = np.array([0.5, 0.5, 0.0, 0.0])
        edges = np.asarray([[0, 1, 2], [0, 1, 3]], dtype=np.int64)
        g = plan_grad(x, edges)
        assert g[2] == 0.25 and g[3] == 0.25
        assert g[0] == 0.0 and g[1] == 0.0

    def test_empty_edge_set(self):
        x = np.array([0.5, 0.5])
        edges = np.empty((0, 2), dtype=np.int64)
        assert _kernels.eval_poly(x, edges) == 0.0
        assert np.array_equal(plan_grad(x, edges), np.zeros(2))
        assert np.array_equal(plan_hess(x, edges), np.zeros((2, 2)))
        _, val, iters, worst = _kernels.ascent_loop(x, edges, 100, 1e-12)
        assert val == 0.0 and iters == 0 and worst == 0.0


class TestAscentLoop:
    def test_returns_value_of_returned_point(self):
        for x, edges in cases(73, 30):
            for tol in (1e-12, -1.0):
                x0 = x.copy()
                xr, val, iters, worst = _kernels.ascent_loop(x, edges, 500, tol)
                assert np.array_equal(x, x0)  # the input is not modified
                assert val == _kernels.eval_poly(xr, edges)
                assert type(iters) is int and 0 <= iters <= 500
                assert worst >= -1e-14
                assert abs(xr.sum() - 1.0) <= 1e-12

    def test_value_never_below_start(self):
        for x, edges in cases(79, 30):
            _, val, _, _ = _kernels.ascent_loop(x, edges, 500, 1e-12)
            assert val >= _kernels.eval_poly(x, edges) - 1e-14

    def test_negative_tol_runs_every_iteration(self):
        for x, edges in cases(83, 10):
            _, _, iters, _ = _kernels.ascent_loop(x, edges, 37, -1.0)
            assert iters == 37

    def test_monotone_gain_tracking(self):
        rng = random.Random(73)
        for _ in range(10):
            n = rng.randint(3, 7)
            x, edges = random_case(rng, 3, n, rng.randint(1, binomial(n, 3)))
            _, _, _, worst = _kernels.ascent_loop(x, edges, 2000, 1e-12)
            assert worst >= -1e-14


def one_row(x, edges, cap, tol):
    """The growth transform on one vector, as a plain loop over one-row
    gradient scatters."""
    r = edges.shape[1]
    plan = _kernels._plan(edges, x.shape[0], 1)
    x = x.copy()
    g = _kernels._scatter(x, plan, 1)
    denom = (x * g).sum()
    val = denom / r
    worst, it = 0.0, 0
    while it < cap and denom > 0.0:
        x = x * g / denom
        x /= x.sum()
        g = _kernels._scatter(x, plan, 1)
        denom = (x * g).sum()
        gain = denom / r - val
        worst = min(worst, gain)
        val = denom / r
        it += 1
        if gain < tol:
            break
    return x, _kernels.eval_poly(x, edges), it, worst


def batch(rng, n, k):
    """k simplex rows: dense, sparse, and one dead row (weight on one vertex)."""
    rows = []
    for i in range(k):
        if i == 1:
            x = np.zeros(n)
            x[rng.randrange(n)] = 1.0
        else:
            x = np.asarray([rng.random() if rng.random() < 0.7 else 0.0 for _ in range(n)])
            x[rng.randrange(n)] += 0.5
        rows.append(x / x.sum())
    return np.asarray(rows)


class TestAscentRows:
    def assert_row_equals(self, got, want):
        x, val, iters, worst = got
        wx, wval, witers, wworst = want
        assert np.array_equal(x, wx)
        assert val == wval and iters == witers and worst == wworst

    def test_rows_equal_one_row_runs_bit_for_bit(self):
        rng = random.Random(89)
        seen = set()
        for n in range(3, 10):
            for r in range(2, min(4, n) + 1):
                pool = list(combinations(range(n), r))
                for tol in (1e-12, -1.0):
                    edges = np.asarray(
                        rng.sample(pool, rng.randint(1, len(pool))), dtype=np.int64
                    )
                    X = batch(rng, n, 6)
                    caps = np.asarray([0, 1, rng.randint(2, 9), 3000, 40, 1], dtype=np.int64)
                    X0 = X.copy()
                    # A form tiled for 6 rows or more: the batch takes its
                    # prefix.
                    form = _kernels.Form(edges, n)
                    form.plan(1, np.zeros((6 + n % 3, n)))
                    Xr, vals, iters, worst = _kernels.ascent_rows(X, form, caps, tol)
                    assert np.array_equal(X, X0)  # the input is not modified
                    assert Xr.shape == X.shape and vals.shape == iters.shape == (6,)
                    for k in range(6):
                        want = one_row(X0[k], edges, int(caps[k]), tol)
                        got = (Xr[k], vals[k], iters[k], worst[k])
                        self.assert_row_equals(got, want)
                        self.assert_row_equals(
                            _kernels.ascent_loop(X0[k], edges, int(caps[k]), tol), want
                        )
                    assert iters[0] == 0 and iters[1] == 0  # cap 0; dead row
                    assert (iters <= caps).all()
                    seen.add((r, n))
        assert {r for r, _ in seen} == {2, 3, 4}
        assert {n for _, n in seen} == set(range(3, 10))

    def test_rows_match_python_reference(self):
        # Fixed-length runs of the plain growth transform, every row at once.
        for x, edges in cases(97, 12):
            rng = random.Random(x.shape[0])
            X = np.vstack([x, batch(rng, x.shape[0], 3)])
            form = _kernels.Form(edges, x.shape[0])
            Xr, vals, iters, _ = _kernels.ascent_rows(X, form, 40, -1.0)
            for k, row in enumerate(X):
                y = [float(v) for v in row]
                steps = 0
                for _ in range(40):
                    g = python_grad(np.asarray(y), edges)
                    denom = math.fsum(a * b for a, b in zip(y, g))
                    if not denom > 0.0:
                        break
                    y = [a * b / denom for a, b in zip(y, g)]
                    steps += 1
                assert iters[k] == steps
                assert np.allclose(Xr[k], y, atol=1e-13, rtol=0)
                assert abs(vals[k] - python_value(np.asarray(y), edges)) <= 1e-13

    def test_single_row_and_int_cap(self):
        for x, edges in cases(101, 10):
            for tol in (1e-12, -1.0):
                Xr, vals, iters, worst = _kernels.ascent_rows(
                    x[None, :], _kernels.Form(edges, x.shape[0]), 300, tol
                )
                self.assert_row_equals(
                    (Xr[0], vals[0], iters[0], worst[0]), one_row(x, edges, 300, tol)
                )

    def test_empty_edge_set(self):
        X = np.asarray([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        edges = np.empty((0, 2), dtype=np.int64)
        form = _kernels.Form(edges, 3)
        Xr, vals, iters, worst = _kernels.ascent_rows(X, form, np.asarray([5, 0]), 1e-12)
        assert np.array_equal(Xr, X)
        assert vals.tolist() == [0.0, 0.0]
        assert iters.tolist() == [0, 0] and worst.tolist() == [0.0, 0.0]


class TestForm:
    """``Form`` against one-row plans: every layout of a batch gives each
    row's derivatives and value bit for bit."""

    def one_row(self, x, edges):
        return plan_grad(x, edges), plan_hess(x, edges), _kernels.eval_poly(x, edges)

    def assert_rows_equal(self, form, X, edges):
        grads, hessians, values = form.grad(X), form.hess(X), form.values(X)
        assert grads.shape == X.shape and hessians.shape == X.shape + (X.shape[1],)
        assert values.shape == (X.shape[0],)
        for x, grad, hess, value in zip(X, grads, hessians, values):
            want = self.one_row(x, edges)
            assert np.array_equal(grad, want[0]) and np.array_equal(hess, want[1])
            assert value == want[2]

    def test_batches_and_vectors_equal_one_row_calls(self):
        rng = random.Random(107)
        seen = set()
        for x, edges in cases(109, 60):
            n = x.shape[0]
            form = _kernels.Form(edges, n)
            X = np.vstack([x, batch(rng, n, 4)])
            # Every prefix length, the longest last and again first.
            for k in (5, 1, 3, 5):
                self.assert_rows_equal(form, X[:k], edges)
            grad, hess, value = self.one_row(x, edges)
            assert np.array_equal(form.grad(x), grad) and np.array_equal(form.hess(x), hess)
            assert form.values(x) == value and type(form.values(x)) is float
            seen.add(edges.shape[1])
        assert seen == {2, 3, 4}

    def test_longer_batch_tiles_again(self):
        # A form tiled for two rows takes a batch of seven; the plans are
        # tiled again, and the shorter prefixes still hold.
        rng = random.Random(113)
        for x, edges in cases(127, 20):
            n = x.shape[0]
            form = _kernels.Form(edges, n)
            X = batch(rng, n, 7)
            self.assert_rows_equal(form, X[:2], edges)
            self.assert_rows_equal(form, X, edges)
            self.assert_rows_equal(form, X[:2], edges)
            self.assert_rows_equal(form, X[:6], edges)
        empty = _kernels.Form(np.empty((0, 3), dtype=np.int64), 4)
        X = batch(rng, 4, 3)
        assert np.array_equal(empty.grad(X), np.zeros((3, 4)))
        assert np.array_equal(empty.hess(X), np.zeros((3, 4, 4)))
        assert empty.values(X).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("rows", [None, 3])
    def test_edgeless_derivatives_are_float_zeros(self, r, rows):
        # np.bincount with no bins returns integers, whatever its weights.
        form = _kernels.Form(np.empty((0, r), dtype=np.int64), 5)
        X = np.full(5 if rows is None else (rows, 5), 0.2)
        for got, shape in ((form.grad(X), X.shape), (form.hess(X), X.shape + (5,))):
            assert got.dtype == np.float64 and got.shape == shape
            assert not got.any()

    def spy_plans(self, monkeypatch):
        """The orders of the plans built from now on, in order."""
        built = []
        real = _kernels._plan

        def spy(edges, n, order):
            built.append(order)
            return real(edges, n, order)

        monkeypatch.setattr(_kernels, "_plan", spy)
        return built

    def test_hessian_plan_built_on_first_hess(self, monkeypatch):
        built = self.spy_plans(monkeypatch)
        x, edges = next(cases(131, 1))
        form = _kernels.Form(edges, x.shape[0])
        X = np.vstack([x, x[::-1], np.roll(x, 1)])
        form.values(X)
        assert built == []  # a fresh form holds no plan
        form.grad(X)
        assert built == [1]
        form.hess(X[:2])
        assert built == [1, 2]
        form.hess(X)  # a longer batch tiles the Hessian plan again
        form.hess(x)
        form.grad(X[:1])
        assert built == [1, 2]

    def test_closed_form_result_plans_one_gradient(self, monkeypatch):
        # A 2-graph's result is certified by one KKT residual: one
        # gradient, no Hessian.
        g = Hypergraph.from_edges(2, 5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        built = self.spy_plans(monkeypatch)
        res = lagrangian(g)
        assert res.method == "closed-form" and res.support == (1, 2, 3)
        assert built == [1]

    def test_minimize_support_without_pair_transfer_plans_nothing(self, monkeypatch):
        # Every pair of K_5^(3) lies in an edge, and the complete-graph
        # bound settles the drop: no move runs, so no derivative is taken.
        g = complete_graph(5, 3)
        res = ascend(g, uniform_weighting(5))
        built = self.spy_plans(monkeypatch)
        assert minimize_support(g, res) is res
        assert built == []
