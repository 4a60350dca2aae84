"""Exact combinatorial substrate: edges, hypergraphs, colex order, links.

Vertices are 1-based everywhere at the interface level. An edge is a
strictly increasing tuple of vertex ids; internally an edge set is kept
as 64-bit masks so subset tests used by the clique and compression
machinery are O(1). Graphs with more than 64 vertices are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "EdgeListFormatError",
    "Hypergraph",
    "LinkSet",
    "binomial",
    "colex_graph",
    "colex_rank",
    "colex_unrank",
    "complete_graph",
    "difference_link",
    "format_edge_list",
    "load_edge_list",
    "pair_link",
    "parse_edge_list",
    "save_edge_list",
    "vertex_link",
]

MAX_VERTICES = 64
# The most edges ``complete_graph`` and ``colex_graph`` build: every
# 3-graph on MAX_VERTICES vertices (C(64, 3) = 41,664 edges) fits.
MAX_EDGES = 100_000

Edge = tuple[int, ...]


class EdgeListFormatError(ValueError):
    """Malformed edge-list text; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires n >= 0 and k >= 0")
    if k > n:
        return 0
    return math.comb(n, k)


def as_edge(vertices: Iterable[int]) -> Edge:
    """Normalize to a sorted tuple, rejecting duplicates and ids < 1."""
    edge = tuple(sorted(vertices))
    if len(set(edge)) != len(edge):
        raise ValueError(f"duplicate vertex in edge {edge}")
    if edge and edge[0] < 1:
        raise ValueError(f"vertex ids must be >= 1, got {edge}")
    return edge


def edge_mask(edge: Iterable[int]) -> int:
    mask = 0
    for v in edge:
        mask |= 1 << (v - 1)
    return mask


def mask_to_edge(mask: int) -> Edge:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def colex_key(edge: Sequence[int]) -> tuple[int, ...]:
    """Sort key realizing colex order: compare largest elements first."""
    return tuple(reversed(edge))


def colex_compare(a: Sequence[int], b: Sequence[int]) -> int:
    """-1, 0, or 1 as the colex order of two equal-arity sorted sets.

    A precedes B exactly when the largest element of the symmetric
    difference lies in B.
    """
    if len(a) != len(b):
        raise ValueError(f"arity mismatch: {len(a)} vs {len(b)}")
    ka, kb = colex_key(a), colex_key(b)
    return (ka > kb) - (ka < kb)


def colex_rank(edge: Sequence[int]) -> int:
    """0-based position of a sorted r-set in the colex enumeration.

    Combinatorial number system: rank = sum of C(a_p - 1, p) over
    positions p = 1..r.
    """
    return sum(binomial(a - 1, p) for p, a in enumerate(edge, start=1))


def colex_unrank(r: int, k: int) -> Edge:
    """Inverse of :func:`colex_rank`: the r-set at 0-based colex rank k.

    Greedy from the top coordinate: pick the largest a with
    C(a - 1, p) <= remainder, found by galloping on a - p and bisection,
    so the cost grows with log k rather than k, and a large arity never
    pays for a binomial far above the answer.
    """
    if r < 1:
        raise ValueError("arity must be >= 1")
    if k < 0:
        raise ValueError("rank must be >= 0")
    out = []
    rem = k
    for p in range(r, 0, -1):
        # Keep C(lo, p) <= rem; double the offset hi - (p - 1) until
        # C(hi, p) > rem, then bisect to the smallest such hi, which is
        # the answer.
        lo, hi = p - 1, p
        while binomial(hi, p) <= rem:
            lo, hi = hi, 2 * hi - p + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if binomial(mid, p) <= rem:
                lo = mid
            else:
                hi = mid
        out.append(hi)
        rem -= binomial(hi - 1, p)
    return tuple(reversed(out))


class _CoverMemo(dict):
    """Edge mask -> the masks one cover step below it in dominance order,
    built on first use.

    A cover step lowers one set bit whose lower neighbour is clear: each
    ``bit`` of ``movable`` is such a vertex (vertex 1 never moves), and
    lowering it gives one cover predecessor. The memo holds one entry
    per distinct edge mask ever asked for.
    """

    def __missing__(self, mask: int) -> tuple[int, ...]:
        out = []
        movable = mask & ~(mask << 1) & ~1
        while movable:
            bit = movable & -movable
            out.append(mask ^ bit ^ (bit >> 1))
            movable ^= bit
        self[mask] = covers = tuple(out)
        return covers


_COVERS = _CoverMemo()


def _closed_under_covers(edges: frozenset[int]) -> bool:
    """Whether every cover predecessor of an edge mask is an edge mask.

    A family closed one cover step down is closed all the way down.
    """
    return edges.issuperset(chain.from_iterable(map(_COVERS.__getitem__, edges)))


@dataclass(frozen=True)
class Hypergraph:
    """Immutable r-uniform hypergraph on vertex set [n], n <= 64.

    ``edges`` is a frozenset of bitmasks (bit v-1 set for vertex v); use
    :meth:`from_edges` to build from vertex tuples and
    :meth:`edge_list` to read them back in colex order.

    ``left_compressed`` says whether every r-set dominated by an edge is
    an edge. It is decided at most once per graph, and a graph built as
    a down-set of dominance order (:meth:`_down_set`, used by the
    enumeration of left-compressed graphs) knows it without a scan.

    Every construction checks that each edge mask has r bits inside
    [n], one edge at a time, except :meth:`_down_set`: its edges are
    drawn from a universe of r-subsets of [n] that the enumeration has
    checked once per call, so it checks nothing per graph.
    """

    r: int
    n: int
    edges: frozenset[int]

    def __post_init__(self):
        # Facts about the graph are cached on it, so its edges must not
        # change afterwards; a frozenset also cannot hold an edge twice.
        if not isinstance(self.edges, frozenset):
            raise TypeError(f"edges must be a frozenset of edge masks, got {type(self.edges).__name__}")
        if self.r < 2:
            raise ValueError("uniformity r must be >= 2")
        if self.n < self.r:
            raise ValueError(f"need n >= r, got n={self.n}, r={self.r}")
        _check_vertex_count(self.n)
        full = (1 << self.n) - 1
        for mask in self.edges:
            if mask.bit_count() != self.r:
                raise ValueError(f"edge {mask_to_edge(mask)} has arity {mask.bit_count()}, expected {self.r}")
            if mask & ~full:
                raise ValueError(f"edge {mask_to_edge(mask)} leaves the vertex range [1, {self.n}]")

    @classmethod
    def from_edges(cls, r: int, n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        masks = set()
        for raw in edges:
            edge = as_edge(raw)
            mask = edge_mask(edge)
            if mask in masks:
                raise ValueError(f"duplicate edge {edge}")
            masks.add(mask)
        return cls(r, n, frozenset(masks))

    @classmethod
    def _down_set(cls, r: int, n: int, edges: frozenset[int]) -> "Hypergraph":
        """A graph whose edges the caller built as a down-set of dominance
        order, so it is left-compressed without a scan.

        Nothing is checked: the caller has checked r and n, and drew the
        edge masks from a universe it checked as r-subsets of [n]."""
        g = cls.__new__(cls)
        g.__dict__.update(r=r, n=n, edges=edges, left_compressed=True)
        return g

    @cached_property
    def left_compressed(self) -> bool:
        """Whether every r-set dominated by an edge is itself an edge."""
        return _closed_under_covers(self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, vertices: Iterable[int]) -> bool:
        return edge_mask(vertices) in self.edges

    def edge_list(self) -> list[Edge]:
        """Edges as 1-based tuples, colex-sorted."""
        return sorted((mask_to_edge(m) for m in self.edges), key=colex_key)

    @cached_property
    def _edge_array(self) -> np.ndarray:
        """(m, r) int64 array of 0-based vertex indices, rows colex-sorted."""
        if not self.edges:
            return np.empty((0, self.r), dtype=np.int64)
        rows = [[v - 1 for v in e] for e in self.edge_list()]
        return np.asarray(rows, dtype=np.int64)

    def edge_array(self) -> np.ndarray:
        return self._edge_array

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def non_isolated(self) -> tuple[int, ...]:
        used = 0
        for mask in self.edges:
            used |= mask
        return mask_to_edge(used)

    def with_vertex_count(self, n: int) -> "Hypergraph":
        """Same edges on a larger (or equal) ground set."""
        return Hypergraph(self.r, n, self.edges)


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"at most {MAX_VERTICES} vertices supported, got n={n}")


def _check_size(n: int, m: int) -> None:
    """Refuse, before building it, a graph beyond MAX_VERTICES or MAX_EDGES."""
    _check_vertex_count(n)
    if m > MAX_EDGES:
        raise ValueError(f"at most {MAX_EDGES} edges supported, got m={m}")


def complete_graph(t: int, r: int) -> Hypergraph:
    """The complete r-graph on [t]: all C(t, r) edges."""
    if t < r:
        raise ValueError(f"need t >= r, got t={t}, r={r}")
    _check_size(t, binomial(t, r))
    masks = frozenset(edge_mask(c) for c in combinations(range(1, t + 1), r))
    return Hypergraph(r, t, masks)


def colex_graph(r: int, m: int) -> Hypergraph:
    """The r-graph whose edges are the first m sets in colex order.

    The vertex count is the largest vertex actually touched; appending
    isolated vertices never changes the Lagrangian, so nothing is lost.
    The m-th set is unranked once, and the sets are listed from it
    (``_colex_upto``).
    """
    if m < 1:
        raise ValueError("need at least one edge")
    # n >= r, so an arity over the limit is refused before any unranking.
    if r > MAX_VERTICES:
        raise ValueError(f"at most {MAX_VERTICES} vertices supported, got r={r}")
    # The last set has the largest top vertex.
    last = colex_unrank(r, m - 1)
    n = max(last[-1], r)
    _check_size(n, m)
    return Hypergraph.from_edges(r, n, _colex_upto(last))


def _colex_upto(last: Edge) -> list[Edge]:
    """Every set up to ``last`` in colex order, ``last`` first.

    A set precedes last = (c_1 < ... < c_r) exactly when, at the highest
    position i where the two differ, its member is below c_i; so the sets
    before it are, for each i, every i-subset of [c_i - 1] topped by
    c_{i+1}, ..., c_r.
    """
    sets = [last]
    for i in range(len(last), 0, -1):
        sets += [low + last[i:] for low in combinations(range(1, last[i - 1]), i)]
    return sets


@dataclass(frozen=True)
class LinkSet:
    """A family of equal-arity subsets of [n], e.g. a vertex or pair link."""

    arity: int
    members: frozenset[Edge]

    def __post_init__(self):
        for mem in self.members:
            if len(mem) != self.arity:
                raise ValueError(f"member {mem} has arity {len(mem)}, expected {self.arity}")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item: Iterable[int]) -> bool:
        return as_edge(item) in self.members

    def sorted_members(self) -> list[Edge]:
        return sorted(self.members, key=colex_key)


def _check_vertex(g: Hypergraph, i: int):
    if not 1 <= i <= g.n:
        raise ValueError(f"vertex {i} out of range [1, {g.n}]")


def vertex_link(g: Hypergraph, i: int, complement: bool = False) -> LinkSet:
    """The (r-1)-sets completing vertex i to an edge (or to a non-edge).

    With ``complement=True`` returns the (r-1)-subsets A of [n] - {i}
    with A + {i} not an edge; the two variants partition the
    C(n-1, r-1) candidate sets.
    """
    _check_vertex(g, i)
    bit = 1 << (i - 1)
    if complement:
        rest = [v for v in g.vertices() if v != i]
        members = frozenset(
            c for c in combinations(rest, g.r - 1) if (edge_mask(c) | bit) not in g.edges
        )
    else:
        members = frozenset(
            mask_to_edge(mask & ~bit) for mask in g.edges if mask & bit
        )
    return LinkSet(g.r - 1, members)


def pair_link(g: Hypergraph, i: int, j: int, complement: bool = False) -> LinkSet:
    """The (r-2)-sets completing the pair {i, j} to an edge (or non-edge)."""
    _check_vertex(g, i)
    _check_vertex(g, j)
    if i == j:
        raise ValueError("pair link requires two distinct vertices")
    bits = (1 << (i - 1)) | (1 << (j - 1))
    if complement:
        rest = [v for v in g.vertices() if v != i and v != j]
        members = frozenset(
            c for c in combinations(rest, g.r - 2) if (edge_mask(c) | bits) not in g.edges
        )
    else:
        members = frozenset(
            mask_to_edge(mask & ~bits) for mask in g.edges if mask & bits == bits
        )
    return LinkSet(g.r - 2, members)


def difference_link(g: Hypergraph, i: int, j: int) -> LinkSet:
    """(r-1)-sets A avoiding i and j with A + {i} an edge but A + {j} not.

    Members containing j are excluded: completing them with j would not
    produce an r-set, so they cannot lie in the complement link of j.
    """
    _check_vertex(g, i)
    _check_vertex(g, j)
    if i == j:
        raise ValueError("difference link requires two distinct vertices")
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    members = set()
    for mask in g.edges:
        if mask & bi and not mask & bj:
            rest = mask & ~bi
            if (rest | bj) not in g.edges:
                members.add(mask_to_edge(rest))
    return LinkSet(g.r - 1, frozenset(members))


# ---------------------------------------------------------------------------
# Edge-list text format, shared by every module and the CLI:
#   line 1: "r n m"; then m lines of r increasing vertex ids, colex-sorted;
#   '#' starts a comment line.
# ---------------------------------------------------------------------------

def format_edge_list(g: Hypergraph, edges: Sequence[Edge] | None = None) -> str:
    """The text form of ``g``; ``edges``, when given, is ``g.edge_list()``
    already decoded by the caller."""
    lines = [f"{g.r} {g.n} {g.m}"]
    for edge in g.edge_list() if edges is None else edges:
        lines.append(" ".join(str(v) for v in edge))
    return "\n".join(lines) + "\n"


def _check_header(r: int, n: int, m: int, lineno: int) -> tuple[int, int, int]:
    # Bounded before any edge is read: vertex ids become bit shifts.
    if r < 2:
        raise EdgeListFormatError(f"uniformity r must be >= 2, got {r}", lineno)
    if not r <= n <= MAX_VERTICES:
        raise EdgeListFormatError(f"need {r} <= n <= {MAX_VERTICES}, got n={n}", lineno)
    if not 0 <= m <= binomial(n, r):
        raise EdgeListFormatError(f"need 0 <= m <= C({n}, {r}), got m={m}", lineno)
    return r, n, m


def parse_edge_list(text: str) -> Hypergraph:
    header: tuple[int, int, int] | None = None
    masks: dict[int, int] = {}  # mask -> first line seen
    edges: list[tuple[int, Edge]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise EdgeListFormatError(f"expected integers, got {line!r}", lineno) from None
        if header is None:
            if len(values) != 3:
                raise EdgeListFormatError("header must be 'r n m'", lineno)
            header = _check_header(*values, lineno)
            continue
        r, n, m = header
        if len(values) != r:
            raise EdgeListFormatError(f"expected {r} vertex ids, got {len(values)}", lineno)
        if any(v < 1 for v in values):
            raise EdgeListFormatError(f"vertex ids must be >= 1 in edge {tuple(values)}", lineno)
        if any(v > n for v in values):
            raise EdgeListFormatError(f"vertex out of range [1, {n}] in edge {tuple(values)}", lineno)
        if list(values) != sorted(set(values)):
            raise EdgeListFormatError(f"edge {tuple(values)} must list distinct increasing ids", lineno)
        mask = edge_mask(values)
        if mask in masks:
            raise EdgeListFormatError(
                f"duplicate edge {tuple(values)} (first seen on line {masks[mask]})", lineno
            )
        masks[mask] = lineno
        edges.append((lineno, tuple(values)))
    if header is None:
        raise EdgeListFormatError("empty input: missing 'r n m' header")
    r, n, m = header
    if len(edges) != m:
        raise EdgeListFormatError(f"header promises {m} edges but {len(edges)} were given")
    return Hypergraph.from_edges(r, n, [e for _, e in edges])


def load_edge_list(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def save_edge_list(g: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
