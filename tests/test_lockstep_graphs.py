"""Many graphs in one lockstep: ``lagrangians`` and the verifiers' chunks
give every graph the bytes of its own ``lagrangian``."""

import sys
from dataclasses import replace
from itertools import combinations, groupby

import numpy as np
import pytest

from lagrangia import _kernels, theorems
from lagrangia.core import Hypergraph, binomial, colex_graph
from lagrangia.lagrangian import OptOptions, lagrangian, lagrangians, uniform_weighting
from lagrangia.structure import enumerate_left_compressed, maximum_cliques

L = sys.modules["lagrangia.lagrangian"]


def same_bytes(a, b):
    return a.to_record() == b.to_record() and a.weighting.tobytes() == b.weighting.tobytes()


def every_left_compressed(t):
    return [g for m in range(1, binomial(t, 3) + 1) for g in enumerate_left_compressed(t, 3, m)]


def plateau(t):
    return [colex_graph(3, m) for m in theorems.plateau_range(t).m_values()]


def full_starts(g, opts):
    """Uniform, uniform on every maximum clique, the initial segments and
    the seeded Dirichlet draws."""
    n = g.n
    starts = [uniform_weighting(n)]
    starts += [uniform_weighting(n, clique) for clique in maximum_cliques(g)]
    starts += [uniform_weighting(n, range(1, k + 1)) for k in range(g.r, n + 1)]
    rng = np.random.default_rng(opts.seed)
    starts += [rng.dirichlet(np.ones(n)) for _ in range(opts.random_starts)]
    return np.array(starts)


@pytest.mark.parametrize("t", [5, 6, 7])
def test_batched_equals_per_graph_on_every_left_compressed_graph(t):
    graphs = every_left_compressed(t)
    got = lagrangians(graphs)
    assert len(got) == len(graphs)
    for g, res in zip(graphs, got):
        assert same_bytes(res, lagrangian(g)), g.edge_list()


@pytest.mark.parametrize("t", [5, 6, 7, 8])
def test_batched_equals_per_graph_on_the_plateau(t):
    # The first graph is the complete graph on [t - 1], a closed form on a
    # smaller n; the others share [t] and run as one lockstep.
    graphs = plateau(t)
    assert graphs[0].n == t - 1 and {g.n for g in graphs[1:]} == {t}
    got = lagrangians(graphs, OptOptions(seed=t))
    assert got[0].method == "closed-form"
    for g, res in zip(graphs, got):
        assert same_bytes(res, lagrangian(g, OptOptions(seed=t))), g.edge_list()


def test_graphs_on_several_ground_sets_and_random_starts(monkeypatch):
    # Graphs that are not left-compressed run their full start sets, with
    # the Dirichlet draws, in the same lockstep as the corner sets of
    # left-compressed graphs of the same r on the same n; the 4-graphs on
    # [6] run apart from the 3-graphs there.
    rng = np.random.default_rng(5)
    graphs = []
    for r, n in ((3, 5), (3, 6), (4, 6), (3, 7), (4, 6), (3, 6), (3, 5), (3, 7)):
        sets = [e for e in combinations(range(1, n + 1), r) if rng.random() < 0.6]
        graphs.append(Hypergraph.from_edges(r, n, sets))
    graphs += every_left_compressed(6)[10:30]
    assert any(not g.left_compressed for g in graphs)
    assert not any(L._closed_form(g) for g in graphs[:8])
    opts = OptOptions(seed=9, random_starts=3)
    kinds = []
    real = L._ascend_graphs

    def spy(jobs, opts):
        kinds.append({(g.r, g.n) for g, _ in jobs})
        return real(jobs, opts)

    monkeypatch.setattr(L, "_ascend_graphs", spy)
    got = lagrangians(graphs, opts)
    monkeypatch.undo()
    assert all(len(kind) == 1 for kind in kinds) and {(4, 6)} in kinds, kinds
    for g, res in zip(graphs, got):
        assert same_bytes(res, lagrangian(g, opts)), g.edge_list()


def test_a_batch_refuses_forms_of_another_r_or_n():
    three = _kernels.Form(every_left_compressed(6)[20].edge_array(), 6)
    four = _kernels.Form(np.array([[0, 1, 2, 3], [1, 2, 3, 4]]), 6)
    other_n = _kernels.Form(np.array([[0, 1, 2]]), 7)
    for forms in ([three, four], [three, other_n]):
        with pytest.raises(ValueError):
            _kernels.Batch(forms, [1, 1])


def test_lockstep_row_bound_splits_a_group(monkeypatch):
    # A bound of 20 rows puts the 65 graphs on [6] into many locksteps; a
    # graph whose starts alone exceed it runs alone. Bytes never move.
    graphs = every_left_compressed(6)
    want = lagrangians(graphs)
    sizes = []
    real = L._ascend_graphs

    def spy(jobs, opts):
        sizes.append(sum(len(starts) for _, starts in jobs))
        return real(jobs, opts)

    monkeypatch.setattr(L, "_ascend_graphs", spy)
    monkeypatch.setattr(L, "LOCKSTEP_ROWS", 20)
    got = lagrangians(graphs)
    assert all(same_bytes(a, b) for a, b in zip(got, want))
    batched = [k for k in sizes if k > 5]
    assert batched and max(batched) <= 20


def test_escalation_inside_a_chunk(monkeypatch):
    # One graph of a lockstep is forced off stationarity: it takes the
    # full start set and gets that set's bytes, untagged; the others keep
    # their own.
    graphs = [g for g in every_left_compressed(6) if L._closed_form(g) is None][:12]
    target = graphs[5]
    opts = OptOptions(seed=4)
    real = L._ascend_graphs

    def forced(jobs, opts):
        out = real(jobs, opts)
        if len(jobs) == 1:  # a lone graph: escalation and support drops
            return out
        return [
            replace(res, kkt_residual=1.0) if g is target else res
            for (g, _), res in zip(jobs, out)
        ]

    monkeypatch.setattr(L, "_ascend_graphs", forced)
    got = lagrangians(graphs, opts)
    monkeypatch.undo()
    full = L._ascend_rows(target, full_starts(target, opts), opts)
    want = L._sorted_weights(target, L.minimize_support(target, full, opts))
    assert not got[5].structured_only
    assert same_bytes(got[5], want)
    for i, g in enumerate(graphs):
        if i != 5:
            assert got[i].structured_only and same_bytes(got[i], lagrangian(g, opts))


def test_starts_never_merge_across_graphs(monkeypatch):
    # Every graph on [6] has the same corner starts; each keeps its rows.
    graphs = [g for g in every_left_compressed(6) if L._closed_form(g) is None][:8]
    rows = []
    real = _kernels.ascent_rows

    def spy(X, form, max_iters, tol):
        rows.append(X.shape[0])
        return real(X, form, max_iters, tol)

    monkeypatch.setattr(_kernels, "ascent_rows", spy)
    lagrangians(graphs)
    # u_3, u_4, u_5 and u_6, which is the uniform start: four rows a graph
    assert rows[0] == 4 * len(graphs)


@pytest.mark.parametrize("verifier", [theorems.lemmaeq_dichotomy_audit, theorems.lemma_tal9_audit])
def test_parallel_equals_serial_across_chunk_boundaries(verifier, monkeypatch):
    # Locksteps of 50 rows, ten graphs of five corner rows on [7]: their
    # boundaries fall inside m-groups, and at parallelism 2 each worker
    # takes every other graph.
    graphs = theorems._left_compressed(7, range(1, binomial(7, 3) + 1))
    sizes = [len(list(group)) for _, group in groupby(g.m for g in graphs)]
    assert max(sizes) > 10
    default = verifier(7, theorems.VerifyOptions(seed=2, parallelism=1)).to_json()
    monkeypatch.setattr(L, "LOCKSTEP_ROWS", 50)
    for parallelism in (1, 2):
        run = theorems.VerifyOptions(seed=2, parallelism=parallelism)
        assert verifier(7, run).to_json() == default


def test_batch_layout_matches_each_graph_form():
    # Rows grouped by graph, then a subset of them: every derivative and
    # value is bit for bit that of the row under its own graph's form.
    rng = np.random.default_rng(3)
    graphs = every_left_compressed(6)[20:24]
    forms = [_kernels.Form(g.edge_array(), 6) for g in graphs]
    counts = [3, 1, 4, 2]
    X = rng.dirichlet(np.ones(6), size=sum(counts))
    owner = np.repeat(np.arange(4), counts)
    batch = _kernels.Batch(forms, counts)
    for rows in (np.arange(10), np.array([0, 2, 4, 5, 9]), np.array([4, 5, 6])):
        layout = batch.take(rows)
        Y = X[rows]
        grads, hessians, values = layout.grad(Y), layout.hess(Y), layout.values(Y)
        for i, k in enumerate(rows):
            form = forms[owner[k]]
            assert grads[i].tobytes() == form.grad(Y[i]).tobytes()
            assert hessians[i].tobytes() == form.hess(Y[i]).tobytes()
            assert values[i] == form.values(Y[i])
    # Rows of one graph only take that graph's plan, not a copy.
    alone = batch.take(np.array([6, 7]))
    assert alone.plan(1)[0] is forms[2].prefix(1, 2)[0]
