"""Compression, clique, and enumeration tests against brute-force oracles."""

import pickle
import random
import re
from itertools import combinations

import numpy as np
import pytest

from lagrangia import core, structure
from lagrangia.core import (
    Hypergraph,
    binomial,
    colex_graph,
    colex_key,
    colex_rank,
    complete_graph,
    difference_link,
    edge_mask,
    mask_to_edge,
)
from lagrangia.lagrangian import certify, lagrangian
from lagrangia.structure import (
    CompressionTrace,
    clique_number,
    compress,
    contains_clique,
    count_left_compressed,
    dominance_le,
    enumerate_left_compressed,
    is_left_compressed,
    maximum_cliques,
)


def g3(n, *edges):
    return Hypergraph.from_edges(3, n, edges)


def brute_left_compressed(g):
    """Definitional check: every dominated valid r-set of an edge is an edge."""
    all_sets = list(combinations(range(1, g.n + 1), g.r))
    for e in g.edge_list():
        for cand in all_sets:
            if dominance_le(cand, e) and not g.has_edge(cand):
                return False
    return True


def brute_clique_number(g):
    for t in range(g.n, g.r - 1, -1):
        for sub in combinations(range(1, g.n + 1), t):
            if all(g.has_edge(c) for c in combinations(sub, g.r)):
                return t
    return g.r - 1


def brute_maximum_cliques(g):
    w = brute_clique_number(g)
    if not g.edges:
        return []
    return [
        sub
        for sub in combinations(range(1, g.n + 1), w)
        if all(g.has_edge(c) for c in combinations(sub, g.r))
    ]


def brute_enumerate(t, r, m):
    """Filter every m-edge r-graph on [t] by the definitional test."""
    pool = list(combinations(range(1, t + 1), r))
    out = []
    for pick in combinations(pool, m):
        g = Hypergraph.from_edges(r, t, pick)
        if brute_left_compressed(g):
            out.append(g.edges)
    return out


# A downward-closed universe: the triples of [6] dominated by {3, 4, 6}.
BELOW_346 = [c for c in combinations(range(1, 7), 3) if dominance_le(c, (3, 4, 6))]


def random_graph(rng, r, n, m):
    pool = list(combinations(range(1, n + 1), r))
    return Hypergraph.from_edges(r, n, rng.sample(pool, m))


class TestIsLeftCompressed:
    def test_examples(self):
        assert is_left_compressed(g3(4, (1, 2, 3), (1, 2, 4)))
        assert not is_left_compressed(g3(4, (1, 2, 3), (1, 3, 4)))
        for t in (3, 4, 5, 6):
            assert is_left_compressed(complete_graph(t, 3))

    def test_empty_graph(self):
        assert is_left_compressed(Hypergraph.from_edges(3, 5, []))

    def test_agrees_with_definition(self):
        # r = 2..5, n up to 9, the compressed image of each graph and that
        # image less one edge, so edges at vertex 1 and vertex n meet both
        # outcomes of the bit test and near misses meet the closure test.
        rng = random.Random(3)
        for r in (2, 3, 4, 5):
            for _ in range(40):
                n = rng.randint(r, 9)
                g = random_graph(rng, r, n, rng.randint(0, binomial(n, r)))
                h = compress(g)[0]
                cases = [g, h]
                if h.edges:
                    cases.append(Hypergraph(r, n, h.edges - {rng.choice(sorted(h.edges))}))
                for k in cases:
                    assert is_left_compressed(k) == brute_left_compressed(k)

    def test_colex_graphs_are_left_compressed(self):
        for m in range(1, 36):
            assert is_left_compressed(colex_graph(3, m))


class TestCompress:
    def test_single_shift(self):
        out, trace = compress(g3(4, (1, 2, 3), (1, 3, 4)))
        assert out.edges == g3(4, (1, 2, 3), (1, 2, 4)).edges
        assert not trace.fixed_point
        assert trace.steps == (((1, 3, 4), (1, 2, 4)),)

    def test_fixed_point(self):
        g = g3(4, (1, 2, 3), (1, 2, 4))
        out, trace = compress(g)
        assert out.edges == g.edges
        assert trace.fixed_point
        assert trace.steps == ()

    def test_single_edge(self):
        out, _ = compress(g3(4, (2, 3, 4)))
        assert out.edge_list() == [(1, 2, 3)]

    def test_steps_decrease_colex_rank(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(4, 7)
            g = random_graph(rng, 3, n, rng.randint(1, binomial(n, 3)))
            _, trace = compress(g)
            for before, after in trace.steps:
                assert colex_rank(after) < colex_rank(before)

    @pytest.mark.parametrize("n", [4, 5])
    def test_exhaustive_small(self, n):
        pool = list(combinations(range(1, n + 1), 3))
        for bits in range(1 << len(pool)):
            picked = [pool[i] for i in range(len(pool)) if bits >> i & 1]
            g = Hypergraph.from_edges(3, n, picked)
            out, trace = compress(g)
            assert out.m == g.m
            assert is_left_compressed(out)
            assert trace.fixed_point == (out.edges == g.edges)

    def test_clique_never_shrinks(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(4, 7)
            g = random_graph(rng, 3, n, rng.randint(0, binomial(n, 3)))
            out, _ = compress(g)
            assert clique_number(out) >= clique_number(g)


class TestCliqueNumber:
    def test_complete(self):
        assert clique_number(complete_graph(5, 3)) == 5

    def test_near_complete(self):
        g = Hypergraph.from_edges(3, 4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
        assert clique_number(g) == 3

    def test_colex_11(self):
        assert clique_number(colex_graph(3, 11)) == 5

    def test_empty(self):
        assert clique_number(Hypergraph.from_edges(3, 5, [])) == 2
        assert clique_number(Hypergraph.from_edges(2, 4, [])) == 1

    def test_agrees_with_brute_force(self):
        rng = random.Random(17)
        for r in (2, 3):
            for _ in range(40):
                n = rng.randint(r, 7)
                g = random_graph(rng, r, n, rng.randint(0, binomial(n, r)))
                assert clique_number(g) == brute_clique_number(g)

    def test_size_only_search_matches_brute_force(self):
        # The size-only search (no ties) gives the clique number and one
        # maximum clique; the tie-collecting search gives all of them.
        rng = random.Random(31)
        for r in (2, 3, 4, 5):
            for _ in range(40):
                n = rng.randint(r, 9)
                total = binomial(n, r)
                # Mostly dense graphs, where large cliques and many ties live.
                m = rng.randint(total // 2 if rng.random() < 0.7 else 0, total)
                g = random_graph(rng, r, n, m)
                w = brute_clique_number(g)
                size, found = structure._max_cliques(g, ties=False)
                assert size == clique_number(g) == w
                assert found == brute_maximum_cliques(g)[:1]
                assert maximum_cliques(g) == brute_maximum_cliques(g)
                for t in range(r, n + 1):
                    hit = structure._max_cliques(g, stop_at=t, ties=False)[0] >= t
                    assert hit == (t <= w)


class TestContainsClique:
    def test_examples(self):
        assert contains_clique(complete_graph(5, 3), 5)
        assert not contains_clique(complete_graph(5, 3), 6)
        assert contains_clique(colex_graph(3, 13), 5)

    def test_requires_t_at_least_r(self):
        with pytest.raises(ValueError):
            contains_clique(complete_graph(4, 3), 2)

    def test_matches_clique_number(self):
        # Compressed images take the top-set path, the rest branch-and-bound.
        rng = random.Random(23)
        for r in (2, 3, 4):
            for _ in range(40):
                n = rng.randint(r, 9)
                g = random_graph(rng, r, n, rng.randint(0, binomial(n, r)))
                for h in (g, compress(g)[0]):
                    w = clique_number(h)
                    for t in range(r, n + 2):
                        assert contains_clique(h, t) == (t <= w)

    def test_left_compressed_prefix_equivalence(self):
        # For shifted families a clique of size t exists iff [t] is one.
        for r, n in ((2, 9), (3, 7), (4, 7)):
            for m in range(0, binomial(n, r) + 1):
                for g in enumerate_left_compressed(n, r, m):
                    w = brute_clique_number(g)
                    for t in range(r, n + 1):
                        prefix = all(
                            g.has_edge(c) for c in combinations(range(1, t + 1), r)
                        )
                        assert contains_clique(g, t) == prefix
                        assert prefix == (w >= t)


class TestEnumerate:
    def test_unique_two_edge_family(self):
        out = list(enumerate_left_compressed(4, 3, 2))
        assert len(out) == 1
        assert out[0].edges == g3(4, (1, 2, 3), (1, 2, 4)).edges

    def test_full_family(self):
        for t in (3, 4, 5, 6):
            out = list(enumerate_left_compressed(t, 3, binomial(t, 3)))
            assert len(out) == 1
            assert out[0].edges == complete_graph(t, 3).edges

    def test_three_edges_on_five(self):
        out = {g.edges for g in enumerate_left_compressed(5, 3, 3)}
        expect = {
            g3(5, (1, 2, 3), (1, 2, 4), (1, 3, 4)).edges,
            g3(5, (1, 2, 3), (1, 2, 4), (1, 2, 5)).edges,
        }
        assert out == expect

    @pytest.mark.parametrize("t", [4, 5])
    def test_matches_brute_force(self, t):
        for m in range(0, binomial(t, 3) + 1):
            got = [g.edges for g in enumerate_left_compressed(t, 3, m)]
            assert len(got) == len(set(got)), "duplicate family"
            assert set(got) == set(brute_enumerate(t, 3, m))

    @pytest.mark.parametrize("t, r", [(5, 2), (5, 3), (6, 4)])
    def test_listed_graphs_are_distinct_and_correct(self, t, r):
        # list() keeps every graph while the search goes on, so a graph
        # that shared the search's path would change under it here; m past
        # the halfway point takes the complement path.
        for m in range(binomial(t, r) + 1):
            graphs = list(enumerate_left_compressed(t, r, m))
            got = [g.edges for g in graphs]
            assert len(set(got)) == len(got)
            assert set(got) == set(brute_enumerate(t, r, m))
            assert all(g.m == m and g.n == t and g.r == r for g in graphs)

    def test_every_output_is_left_compressed(self, monkeypatch):
        # Enumerated graphs carry the fact, so the scan runs on a graph
        # rebuilt from the same edges. Every m, so m past the halfway
        # point takes the complement path; a restricted universe takes
        # the direct path for every m. No enumerated graph runs the
        # per-edge check, yet each equals the graph that check passes.
        def no_edge_check(self):
            raise AssertionError("an enumerated graph ran the per-edge check")

        cases = [(t, r, None) for t, r in [(6, 3), (7, 3), (6, 4), (8, 2)]]
        cases.append((6, 3, BELOW_346))
        for t, r, universe in cases:
            total = binomial(t, r) if universe is None else len(universe)
            for m in range(total + 1):
                with monkeypatch.context() as patch:
                    patch.setattr(Hypergraph, "__post_init__", no_edge_check)
                    graphs = list(enumerate_left_compressed(t, r, m, universe=universe))
                for g in graphs:
                    checked = Hypergraph(g.r, g.n, g.edges)
                    assert g == checked
                    assert g.left_compressed is True
                    assert is_left_compressed(checked)
                    assert g.m == m
                    assert g.n == t
                    for j in range(2, t + 1):
                        for i in range(1, j):
                            assert len(difference_link(g, j, i)) == 0

    def test_compression_scan_runs_at_most_once_per_graph(self, monkeypatch):
        scans = []

        def counted(edges):
            scans.append(edges)
            return closed_under_covers(edges)

        closed_under_covers = core._closed_under_covers
        monkeypatch.setattr(core, "_closed_under_covers", counted)

        # Enumerated graphs, direct and complement path, are known
        # left-compressed: the clique filter, the solver and the
        # certificate scan nothing. Neither graph is complete, so
        # lagrangian runs the ascent and the sort.
        (g,) = enumerate_left_compressed(5, 3, 9)
        small = next(enumerate_left_compressed(5, 3, 5))
        for h in (g, small):
            assert contains_clique(h, 4) == (clique_number(h) >= 4)
            res = lagrangian(h)
            assert certify(h, res).left_compressed
        assert scans == []

        # A graph built from edge tuples scans once, then keeps the answer.
        f = Hypergraph.from_edges(3, 5, g.edge_list())
        assert f == g and hash(f) == hash(g)
        assert certify(f, lagrangian(f)).ok
        assert is_left_compressed(f) and contains_clique(f, 4)
        assert scans == [g.edges]

        # Equal graphs built separately share no state: one scan each.
        scans.clear()
        a = Hypergraph.from_edges(3, 4, [(1, 2, 3), (1, 3, 4)])
        b = Hypergraph.from_edges(3, 4, [(1, 3, 4), (1, 2, 3)])
        assert a == b
        assert not is_left_compressed(a) and not is_left_compressed(b)
        assert not is_left_compressed(a)
        assert len(scans) == 2

        # A pickled copy, as the process pool sends it, keeps the answer.
        for h in (g, small, f, a, Hypergraph(3, 4, a.edges)):
            copy = pickle.loads(pickle.dumps(h))
            assert copy == h
            assert is_left_compressed(copy) == brute_left_compressed(h)

    def test_deterministic_order(self):
        a = [g.edges for g in enumerate_left_compressed(6, 3, 8)]
        b = [g.edges for g in enumerate_left_compressed(6, 3, 8)]
        assert a == b

    def test_complement_path_matches_direct(self):
        # m just past the halfway point exercises the reflection trick;
        # compare against the restricted path which never reflects.
        t, r = 5, 3
        universe = list(combinations(range(1, t + 1), r))
        for m in (6, 7, 9, 10):
            direct = {g.edges for g in enumerate_left_compressed(t, r, m, universe=universe)}
            tricked = {g.edges for g in enumerate_left_compressed(t, r, m)}
            assert tricked == direct

    def test_restricted_universe(self):
        # Families inside the triples containing vertex 1.
        t = 5
        universe = [c for c in combinations(range(1, t + 1), 3) if 1 in c]
        for m in range(0, len(universe) + 1):
            got = {g.edges for g in enumerate_left_compressed(t, 3, m, universe=universe)}
            expect = {
                g.edges
                for g in enumerate_left_compressed(t, 3, m)
                if all(e[0] == 1 for e in g.edge_list())
            }
            assert got == expect

    def test_rejects_bad_universe(self):
        with pytest.raises(ValueError, match="closed downward"):
            list(enumerate_left_compressed(5, 3, 1, universe=[(2, 3, 4), (1, 2, 3)]))
        # Enumerated graphs check no edge of their own, so a member that
        # is no r-set of [t] must be refused with the universe.
        for bad in [(1, 1, 2), (1, 2, 3, 4), (1, 2), (0, 1, 2), (1, 2, 6)]:
            message = rf"universe member {re.escape(str(bad))} is not an r-subset of \[5\]"
            with pytest.raises(ValueError, match=message):
                next(enumerate_left_compressed(5, 3, 1, universe=[bad]))
            with pytest.raises(ValueError, match=message):
                count_left_compressed(5, 3, 1, universe=[bad])
        with pytest.raises(TypeError):
            next(enumerate_left_compressed(5, 3, 1, universe=[(1, 2, 3.0)]))

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            list(enumerate_left_compressed(5, 3, 11))
        with pytest.raises(ValueError):
            list(enumerate_left_compressed(5, 3, -1))

    def test_universe_vertices_become_ints(self):
        # numpy rows give numpy vertices, whose masks overflow at vertex 64.
        rows = np.array([(1, 2, v) for v in range(3, 65)])
        plain = [tuple(map(int, row)) for row in rows]
        for m in (1, len(rows)):
            got = list(enumerate_left_compressed(64, 3, m, universe=rows))
            assert got == list(enumerate_left_compressed(64, 3, m, universe=plain))
            assert all(type(mask) is int for g in got for mask in g.edges)

    def test_refuses_too_many_vertices_before_the_universe(self, monkeypatch):
        def no_universe(t, r):
            raise AssertionError("built the universe")

        monkeypatch.setattr(structure, "_colex_universe", no_universe)
        message = f"at most {core.MAX_VERTICES} vertices supported, got n=65"
        with pytest.raises(ValueError, match=message):
            next(enumerate_left_compressed(65, 3, 1))
        with pytest.raises(ValueError, match=message):
            count_left_compressed(65, 3, 1)

    def test_count_matches_stream(self, monkeypatch):
        # Full universe on both sides of the halfway point (the stream
        # reflects past it, the count does not build graphs at all), and
        # a restricted universe, which never reflects: its counts are not
        # symmetric in m, so counting the smaller side there would show.
        cases = [(5, 3, m, None) for m in range(0, 11)]
        cases += [(6, 3, m, None) for m in range(0, 21)]
        cases += [(6, 3, m, BELOW_346) for m in range(0, len(BELOW_346) + 1)]
        streamed = [
            sum(1 for _ in enumerate_left_compressed(t, r, m, universe=u))
            for t, r, m, u in cases
        ]

        def no_graphs(*args, **kwargs):
            raise AssertionError("count_left_compressed built a Hypergraph")

        monkeypatch.setattr(structure, "Hypergraph", no_graphs)
        counted = [count_left_compressed(t, r, m, universe=u) for t, r, m, u in cases]
        assert counted == streamed


def reference_ideals(preds, m):
    """The plain scan DFS: try every later element, admit it when its
    predecessors are all chosen."""
    if m == 0:
        yield 0
        return
    n = len(preds)

    def rec(start, chosen, need):
        for j in range(start, n - need + 1):
            if preds[j] & ~chosen:
                continue
            grown = chosen | (1 << j)
            if need == 1:
                yield grown
            else:
                yield from rec(j + 1, grown, need - 1)

    yield from rec(0, 0, m)


@pytest.mark.parametrize(
    "r, t, universe",
    [(2, 8, None)]
    + [(3, t, None) for t in range(4, 9)]
    + [(4, 7, None), (3, 6, BELOW_346)],
)
def test_ideals_match_reference_order(r, t, universe):
    # Verifier reports list instances in this order, so it must not drift.
    elements = (
        structure._colex_universe(t, r)
        if universe is None
        else sorted(universe, key=colex_key)
    )
    preds = structure._cover_masks(elements)
    for m in range(len(elements) + 1):
        # The path is one list that the search keeps changing, so each
        # yield is checked before the next one.
        paths = structure._ideals(preds, m, elements)
        for chosen in reference_ideals(preds, m):
            assert next(paths) == [e for j, e in enumerate(elements) if chosen >> j & 1]
        assert next(paths, None) is None


def random_down_closed(rng, t, r):
    """The down-closure, under cover steps, of a few random r-subsets of [t]."""
    tops = rng.sample(list(combinations(range(1, t + 1), r)), rng.randint(1, 4))
    closed = set()
    todo = [edge_mask(e) for e in tops]
    while todo:
        mask = todo.pop()
        if mask not in closed:
            closed.add(mask)
            todo.extend(structure._COVERS[mask])
    return [mask_to_edge(mask) for mask in closed]


@pytest.mark.parametrize("seed", range(40))
def test_ideals_match_reference_order_on_random_universes(seed):
    test_ideals_match_reference_order(3, 7, random_down_closed(random.Random(seed), 7, 3))


class CountingValues:
    """A sequence of the indices themselves that counts its lookups: the
    search looks up one value per node it enters."""

    def __init__(self, n):
        self.n = n
        self.lookups = 0

    def __len__(self):
        return self.n

    def __getitem__(self, j):
        self.lookups += 1
        return j


@pytest.mark.parametrize(
    "r, t, universe", [(2, 8, None), (3, 7, None), (4, 7, None), (3, 6, BELOW_346)]
)
def test_ideals_enter_no_dead_end(r, t, universe):
    # Every node entered lies on the path of some yielded down-set, so
    # the nodes are exactly the distinct non-empty prefixes of the paths.
    elements = (
        structure._colex_universe(t, r)
        if universe is None
        else sorted(universe, key=colex_key)
    )
    preds = structure._cover_masks(elements)
    for m in range(len(elements) + 1):
        values = CountingValues(len(elements))
        paths = [tuple(path) for path in structure._ideals(preds, m, values)]
        prefixes = {path[:k] for path in paths for k in range(1, m + 1)}
        assert values.lookups == len(prefixes), (m, values.lookups, len(prefixes))


@pytest.mark.parametrize(
    "r, totals",
    [
        (2, {t: 2 ** (t - 1) for t in range(2, 9)}),
        (3, dict(zip(range(3, 11), [2, 5, 16, 66, 352, 2431, 21760, 252586]))),
        (4, dict(zip(range(4, 9), [2, 6, 32, 352, 9304]))),
    ],
)
def test_left_compressed_totals(r, totals):
    # Every left-compressed r-graph on [t], the empty one included; the
    # count of each size equals that of its complement's size.
    for t, total in totals.items():
        size = binomial(t, r)
        counts = [count_left_compressed(t, r, m) for m in range(size + 1)]
        assert counts == counts[::-1]
        assert sum(counts) == total
