"""Combinatorial substrate tests: colex order, links, edge-list format."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrangia import core
from lagrangia.core import (
    MAX_EDGES,
    MAX_VERTICES,
    EdgeListFormatError,
    Hypergraph,
    binomial,
    colex_compare,
    colex_graph,
    colex_key,
    colex_rank,
    colex_unrank,
    complete_graph,
    difference_link,
    format_edge_list,
    load_edge_list,
    pair_link,
    parse_edge_list,
    save_edge_list,
    vertex_link,
)

# First 21 triples in colex order, the ground truth every ranking
# function must reproduce.
FIRST_TRIPLES = [
    (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5),
    (2, 3, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5), (1, 2, 6), (1, 3, 6),
    (2, 3, 6), (1, 4, 6), (2, 4, 6), (3, 4, 6), (1, 5, 6), (2, 5, 6),
    (3, 5, 6), (4, 5, 6), (1, 2, 7),
]


def sorted_r_set(r, max_v=40):
    return st.sets(st.integers(1, max_v), min_size=r, max_size=r).map(
        lambda s: tuple(sorted(s))
    )


def random_graph(rng, r, n, m):
    pool = list(combinations(range(1, n + 1), r))
    return Hypergraph.from_edges(r, n, rng.sample(pool, m))


class TestBinomial:
    def test_values(self):
        assert binomial(5, 3) == 10
        assert binomial(4, 2) == 6
        assert binomial(3, 5) == 0
        assert binomial(0, 0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 2)
        with pytest.raises(ValueError):
            binomial(3, -1)


class TestColexOrder:
    def test_compare_examples(self):
        assert colex_compare((2, 4, 6), (1, 5, 6)) == -1
        assert colex_compare((1, 2, 3), (1, 2, 3)) == 0
        assert colex_compare((1, 2, 4), (1, 3, 4)) == -1
        assert colex_compare((1, 3, 4), (1, 2, 4)) == 1

    def test_compare_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            colex_compare((1, 2), (1, 2, 3))

    def test_rank_examples(self):
        assert colex_rank((1, 2, 3)) == 0
        assert colex_rank((2, 3, 4)) == 3
        assert colex_rank((1, 2, 6)) == 10

    def test_unrank_examples(self):
        assert colex_unrank(3, 0) == (1, 2, 3)
        assert colex_unrank(3, 9) == (3, 4, 5)
        assert colex_unrank(3, 16) == (1, 5, 6)

    def test_listing_prefix(self):
        assert [colex_unrank(3, k) for k in range(21)] == FIRST_TRIPLES
        assert [colex_rank(t) for t in FIRST_TRIPLES] == list(range(21))

    def test_listing_matches_comparator_sort(self):
        # Independent oracle: sort all triples of [7] by the pairwise
        # comparator and check rank enumerates them in the same order.
        triples = sorted(combinations(range(1, 8), 3), key=colex_key)
        assert [colex_unrank(3, k) for k in range(len(triples))] == triples

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_rank_unrank_inverse_exhaustive(self, r):
        for k in range(10_000):
            edge = colex_unrank(r, k)
            assert len(edge) == r
            assert list(edge) == sorted(set(edge))
            assert colex_rank(edge) == k

    @given(sorted_r_set(3), sorted_r_set(3))
    def test_compare_agrees_with_rank(self, a, b):
        cmp = colex_compare(a, b)
        ra, rb = colex_rank(a), colex_rank(b)
        assert cmp == (ra > rb) - (ra < rb)

    @given(st.integers(2, 4).flatmap(lambda r: st.tuples(st.just(r), sorted_r_set(r))))
    def test_rank_round_trip_random(self, r_and_edge):
        r, edge = r_and_edge
        assert colex_unrank(r, colex_rank(edge)) == edge

    def test_unrank_far_ranks(self):
        # Each coordinate is found by doubling and bisection, so huge
        # ranks cost no more than a few hundred binomials.
        assert colex_unrank(1, 10**12) == (10**12 + 1,)
        assert colex_unrank(2, binomial(10**9, 2)) == (1, 10**9 + 1)
        for r in (3, 7):
            edge = colex_unrank(r, 10**40)
            assert list(edge) == sorted(set(edge))
            assert colex_rank(edge) == 10**40
            assert colex_rank(colex_unrank(r, 10**40 - 1)) == 10**40 - 1

    def test_unrank_gallops_above_the_answer(self, monkeypatch):
        # Doubling the offset a - p rather than a keeps every binomial
        # below twice the answer's top vertex, so a large arity stays
        # cheap: C(2r, r) for r in the millions would take tens of seconds.
        evaluated = []

        def counting(n, k):
            evaluated.append(n)
            return binomial(n, k)

        monkeypatch.setattr(core, "binomial", counting)
        for r, k in [(1000, 1), (200, 5000), (3, 10**12), (12, 10**30)]:
            evaluated.clear()
            top = colex_unrank(r, k)[-1]
            assert max(evaluated) <= 2 * top - r, (r, k)

    def test_unrank_rejects_bad_input(self):
        with pytest.raises(ValueError):
            colex_unrank(0, 5)
        with pytest.raises(ValueError):
            colex_unrank(3, -1)


def reference_mask_to_edge(mask):
    """The bit-by-bit scan: vertex v for each set bit v - 1."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def test_mask_to_edge_matches_bit_scan():
    rng = random.Random(12)
    masks = list(range(1 << 12)) + [rng.getrandbits(64) for _ in range(300)]
    masks += [1 << 63, (1 << 64) - 1]
    for mask in masks:
        assert core.mask_to_edge(mask) == reference_mask_to_edge(mask)


class TestHypergraph:
    def test_from_edges_basic(self):
        g = Hypergraph.from_edges(3, 5, [(1, 2, 3), (3, 4, 5)])
        assert g.m == 2
        assert g.has_edge((1, 2, 3))
        assert g.has_edge((5, 4, 3))
        assert not g.has_edge((1, 2, 4))

    def test_edge_list_colex_sorted(self):
        g = Hypergraph.from_edges(3, 5, [(3, 4, 5), (1, 2, 5), (1, 2, 3)])
        assert g.edge_list() == [(1, 2, 3), (1, 2, 5), (3, 4, 5)]

    def test_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Hypergraph.from_edges(3, 5, [(1, 2, 3), (3, 2, 1)])
        with pytest.raises(ValueError, match="arity"):
            Hypergraph.from_edges(3, 5, [(1, 2)])
        with pytest.raises(ValueError, match="range"):
            Hypergraph.from_edges(3, 5, [(1, 2, 6)])
        with pytest.raises(ValueError, match="r must be >= 2"):
            Hypergraph.from_edges(1, 5, [])
        with pytest.raises(ValueError, match="n >= r"):
            Hypergraph.from_edges(3, 2, [])

    def test_edges_must_be_a_frozenset(self):
        # A list may hold an edge twice, and a set may change after facts
        # about the graph are cached on it.
        for edges in ([7, 7], [7, 11], {7}, (7,)):
            with pytest.raises(TypeError, match="frozenset"):
                Hypergraph(3, 5, edges)
        g = Hypergraph(3, 5, frozenset([7, 7]))
        assert g.m == 1
        assert hash(g) == hash(Hypergraph.from_edges(3, 5, [(1, 2, 3)]))

    def test_vertex_limit(self):
        with pytest.raises(ValueError, match="64"):
            Hypergraph.from_edges(3, 65, [])
        g = Hypergraph.from_edges(3, 64, [(1, 2, 64)])
        assert g.m == 1

    def test_edge_array(self):
        g = Hypergraph.from_edges(3, 5, [(1, 2, 3), (2, 3, 4)])
        arr = g.edge_array()
        assert arr.shape == (2, 3)
        assert arr.tolist() == [[0, 1, 2], [1, 2, 3]]

    def test_non_isolated_and_resize(self):
        g = Hypergraph.from_edges(3, 9, [(1, 2, 5)])
        assert g.non_isolated() == (1, 2, 5)
        assert g.with_vertex_count(12).n == 12


class TestGraphConstructors:
    def test_complete_counts(self):
        assert complete_graph(4, 3).m == 4
        assert complete_graph(5, 3).m == 10
        assert complete_graph(3, 3).edge_list() == [(1, 2, 3)]

    def test_complete_rejects_small_t(self):
        with pytest.raises(ValueError):
            complete_graph(2, 3)

    def test_colex_graph_examples(self):
        g4 = colex_graph(3, 4)
        assert g4.edge_list() == complete_graph(4, 3).edge_list()
        g1 = colex_graph(3, 1)
        assert g1.edge_list() == [(1, 2, 3)]
        assert g1.n == 3
        g11 = colex_graph(3, 11)
        assert g11.n == 6
        assert set(g11.edge_list()) == set(complete_graph(5, 3).edge_list()) | {(1, 2, 6)}

    @pytest.mark.parametrize("r", [2, 3])
    def test_colex_graph_completes(self, r):
        for t in range(r, 13):
            g = colex_graph(r, binomial(t, r))
            assert g.edges == complete_graph(t, r).edges

    def test_colex_graph_rejects_empty(self):
        with pytest.raises(ValueError):
            colex_graph(3, 0)

    def test_absurd_sizes_are_refused_before_building(self):
        # Each would take tens of seconds or exhaust memory if built.
        with pytest.raises(ValueError, match="got n=183"):
            colex_graph(3, 10**6)
        with pytest.raises(ValueError, match="vertices"):
            colex_graph(3, 10**40)
        with pytest.raises(ValueError, match="vertices"):
            complete_graph(65, 2)
        with pytest.raises(ValueError, match=f"got m={binomial(40, 20)}"):
            complete_graph(40, 20)
        with pytest.raises(ValueError, match="edges"):
            colex_graph(30, MAX_EDGES + 1)

    def test_absurd_arity_is_refused_before_unranking(self, monkeypatch):
        # Every r-set spans at least r vertices, so no unranking is needed.
        def unrank(r, k):
            raise RuntimeError("unranked")

        monkeypatch.setattr(core, "colex_unrank", unrank)
        with pytest.raises(ValueError, match=f"at most {MAX_VERTICES} vertices"):
            colex_graph(MAX_VERTICES + 1, 2)

    def test_size_bounds_admit_every_3_graph_on_64_vertices(self):
        assert binomial(MAX_VERTICES, 3) <= MAX_EDGES
        g = colex_graph(3, binomial(MAX_VERTICES, 3))
        assert g.n == MAX_VERTICES and g.m == binomial(MAX_VERTICES, 3)


class TestLinks:
    def test_vertex_link_examples(self):
        assert vertex_link(complete_graph(4, 3), 4).members == {(1, 2), (1, 3), (2, 3)}
        g = Hypergraph.from_edges(3, 4, [(1, 2, 3)])
        assert len(vertex_link(g, 4)) == 0
        assert vertex_link(colex_graph(3, 11), 6).members == {(1, 2)}

    def test_pair_link_examples(self):
        assert pair_link(complete_graph(5, 3), 4, 5).members == {(1,), (2,), (3,)}
        g11 = colex_graph(3, 11)
        assert len(pair_link(g11, 5, 6)) == 0
        assert pair_link(g11, 1, 6).members == {(2,)}

    def test_difference_link_examples(self):
        g = Hypergraph.from_edges(3, 4, [(1, 2, 3), (1, 2, 4)])
        assert len(difference_link(g, 3, 4)) == 0
        single = Hypergraph.from_edges(3, 4, [(1, 2, 3)])
        assert difference_link(single, 3, 4).members == {(1, 2)}

    def test_link_errors(self):
        g = complete_graph(4, 3)
        with pytest.raises(ValueError):
            vertex_link(g, 5)
        with pytest.raises(ValueError):
            pair_link(g, 2, 2)
        with pytest.raises(ValueError):
            difference_link(g, 0, 1)

    def test_complement_partition_sizes(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(3, 8)
            pool = binomial(n, 3)
            g = random_graph(rng, 3, n, rng.randint(0, pool))
            for i in g.vertices():
                assert len(vertex_link(g, i)) + len(vertex_link(g, i, complement=True)) == binomial(n - 1, 2)
            for i, j in combinations(g.vertices(), 2):
                assert len(pair_link(g, i, j)) + len(pair_link(g, i, j, complement=True)) == binomial(n - 2, 1)

    def test_difference_link_partition(self):
        # E_i members avoiding j split into those also in E_j and those
        # in the difference link.
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(4, 8)
            g = random_graph(rng, 3, n, rng.randint(1, binomial(n, 3)))
            i, j = rng.sample(range(1, n + 1), 2)
            ei = {a for a in vertex_link(g, i).members if j not in a}
            ej = vertex_link(g, j).members
            diff = difference_link(g, i, j).members
            assert diff == ei - ej
            assert (ei & ej) | diff == ei


class TestEdgeListFormat:
    def test_parse_complete_graph(self):
        text = "3 4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n"
        g = parse_edge_list(text)
        assert g.edges == complete_graph(4, 3).edges

    def test_round_trip(self):
        g = colex_graph(3, 11)
        assert parse_edge_list(format_edge_list(g)).edges == g.edges

    @pytest.mark.parametrize("g", [colex_graph(3, 11), Hypergraph.from_edges(4, 6, [])])
    def test_file_round_trip(self, tmp_path, g):
        path = tmp_path / "graph.txt"
        save_edge_list(g, path)
        back = load_edge_list(path)
        assert (back.r, back.n, back.edges) == (g.r, g.n, g.edges)
        assert back.edge_list() == g.edge_list()

    def test_format_output_shape(self):
        text = format_edge_list(colex_graph(3, 4))
        lines = text.splitlines()
        assert lines[0] == "3 4 4"
        assert lines[1:] == ["1 2 3", "1 2 4", "1 3 4", "2 3 4"]
        assert text.endswith("\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# generated\n3 3 1\n\n# edge below\n1 2 3\n"
        assert parse_edge_list(text).m == 1

    def test_error_line_numbers(self):
        with pytest.raises(EdgeListFormatError, match="line 1"):
            parse_edge_list("3 4\n1 2 3\n")
        with pytest.raises(EdgeListFormatError, match="line 2.*integers"):
            parse_edge_list("3 4 1\n1 2 x\n")
        with pytest.raises(EdgeListFormatError, match="line 3.*3 vertex ids"):
            parse_edge_list("3 4 2\n1 2 3\n1 2\n")
        with pytest.raises(EdgeListFormatError, match="line 2.*range"):
            parse_edge_list("3 4 1\n1 2 5\n")
        with pytest.raises(EdgeListFormatError, match="line 3.*duplicate.*line 2"):
            parse_edge_list("3 4 2\n1 2 3\n1 2 3\n")
        with pytest.raises(EdgeListFormatError, match="line 2.*increasing"):
            parse_edge_list("3 4 1\n3 2 1\n")

    def test_header_edge_count_mismatch(self):
        with pytest.raises(EdgeListFormatError, match="promises 3 edges"):
            parse_edge_list("3 4 3\n1 2 3\n")

    def test_empty_input(self):
        with pytest.raises(EdgeListFormatError, match="header"):
            parse_edge_list("# nothing here\n")

    @settings(max_examples=50)
    @given(st.integers(0, 120), st.integers(0, 2**32 - 1))
    def test_round_trip_random(self, m, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        g = random_graph(rng, 3, n, min(m, binomial(n, 3)))
        assert parse_edge_list(format_edge_list(g)).edges == g.edges


# Near-miss edge-list text: small and absurd integers, junk tokens,
# comments and blank lines, so the fuzzer reaches the per-edge checks.
_TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["0", "64", "65", "10" * 30, "9" * 5000, "x", "1.5", "-", "#", "٣"]),
)
_LINES = st.lists(_TOKENS, max_size=6).map(" ".join)
_EDGE_TEXT = st.lists(_LINES, max_size=12).map("\n".join)


class TestEdgeListFuzz:
    """Any text parses to a Hypergraph or raises EdgeListFormatError."""

    @staticmethod
    def check(text):
        try:
            g = parse_edge_list(text)
        except EdgeListFormatError:
            return
        assert isinstance(g, Hypergraph)
        assert parse_edge_list(format_edge_list(g)).edges == g.edges

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, text):
        self.check(text)

    @settings(max_examples=300, deadline=None)
    @given(_EDGE_TEXT)
    def test_near_miss_text(self, text):
        self.check(text)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-2, 70), st.integers(-2, 70), st.integers(-2, 50), _EDGE_TEXT)
    def test_any_header(self, r, n, m, body):
        self.check(f"{r} {n} {m}\n{body}")
