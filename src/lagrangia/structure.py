"""Left-compression (shifting), clique detection, and enumeration of
left-compressed families.

A family is left-compressed exactly when it is closed downward under the
coordinatewise dominance order on sorted r-sets, so enumeration is ideal
(down-set) enumeration and the membership test only needs to look one
cover step down: covers in dominance order are single-coordinate
decrements by 1.

The hot paths work on the edge bitmasks a ``Hypergraph`` stores (bit
v-1 for vertex v). A cover step lowers one set bit whose lower
neighbour is clear, so the edges one step below ``mask`` are
``mask ^ bit ^ (bit >> 1)`` for each ``bit`` of
``mask & ~(mask << 1) & ~1``. ``core._COVERS`` memoizes these per mask;
the enumeration poset takes its cover relation from it, and the
compression test is one C-level superset check over it, run at most
once per graph (``Hypergraph.left_compressed``). Enumerated graphs are
down-sets by construction and come back already known left-compressed,
so no test on them runs the scan. A left-compressed graph spans a
t-clique exactly when it holds the top r-set {t-r+1, ..., t} of [t],
which dominates every r-subset of [t].

The clique search keeps its candidates as a vertex bitmask. Its link
map sends each (r-1)-set mask to the bitmask of the vertices that
complete it to an edge, so growing a clique C by v keeps the candidates
inside ``link[S | bit(v)]`` for every (r-2)-subset S of C.

The ideal search picks elements in colex order and enters no dead end.
An element passed over is excluded for good, and so is everything above
it; before a pick it counts the elements left above that pick outside
this dead set, and these with the chosen ones form a down-set, so the
pick leads to an m-element down-set exactly when enough of them remain.
The search runs on one explicit stack, so a yield resumes one frame,
not one generator per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import index
from typing import Iterator, Sequence

from .core import (
    _COVERS,
    Edge,
    Hypergraph,
    _check_vertex_count,
    colex_key,
    edge_mask,
    mask_to_edge,
)


def dominance_le(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when sorted r-set a is coordinatewise <= sorted r-set b."""
    if len(a) != len(b):
        raise ValueError(f"arity mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def is_left_compressed(g: Hypergraph) -> bool:
    """Whether every set dominated by an edge is itself an edge.

    Reads ``g.left_compressed``: the cover scan runs on the first call
    for a graph, and never for a graph from
    :func:`enumerate_left_compressed`.
    """
    return g.left_compressed


@dataclass(frozen=True)
class CompressionTrace:
    """Shift-by-shift record of a compression run.

    ``steps`` lists (edge-before, edge-after) replacements; each one
    strictly decreases the colex rank of the replaced edge, which is
    what guarantees termination. ``fixed_point`` is true when the input
    needed no steps at all.
    """

    steps: tuple[tuple[Edge, Edge], ...]
    fixed_point: bool


def _best_shift(edge: Edge, edges: set[int]) -> Edge | None:
    """Colex-smallest single-coordinate replacement not already present."""
    present = set(edge)
    best: Edge | None = None
    for v in edge:
        for i in range(1, v):
            if i in present:
                continue
            cand = tuple(sorted(present - {v} | {i}))
            if edge_mask(cand) in edges:
                continue
            if best is None or colex_key(cand) < colex_key(best):
                best = cand
            break  # smaller i means smaller colex result for this v
    return best


def compress(g: Hypergraph) -> tuple[Hypergraph, CompressionTrace]:
    """Shift edges left until the family is left-compressed.

    Repeatedly replaces an edge with the colex-smallest absent set
    reachable by lowering a single vertex, scanning edges in colex
    order, until no edge can move. Edge count is preserved; the fixed
    point is left-compressed because a family with no feasible
    single-vertex shift is closed under dominance covers.
    """
    edges = set(g.edges)
    steps: list[tuple[Edge, Edge]] = []
    changed = True
    while changed:
        changed = False
        for mask in sorted(edges, key=lambda m: colex_key(mask_to_edge(m))):
            if mask not in edges:
                continue
            edge = mask_to_edge(mask)
            target = _best_shift(edge, edges)
            if target is not None:
                edges.remove(mask)
                edges.add(edge_mask(target))
                steps.append((edge, target))
                changed = True
    out = Hypergraph(g.r, g.n, frozenset(edges))
    return out, CompressionTrace(tuple(steps), fixed_point=not steps)


def _max_cliques(
    g: Hypergraph, stop_at: int | None = None, ties: bool = True
) -> tuple[int, list[tuple[int, ...]]]:
    """Branch-and-bound clique number and every maximum clique, ascending.

    A candidate w stays when every (r-1)-subset of the clique forms an
    edge with w; growing the clique by v only adds the subsets through
    v, so the candidates are cut by one link bitmask per (r-2)-subset
    of the old clique. With ``ties`` a branch is cut only when it cannot
    reach the best size, so ties are visited too; depth-first order over
    ascending candidates meets equal-size cliques in lexicographic
    order. Without ``ties`` a branch is cut unless it can beat the best
    size, and the list holds only the first maximum clique met; use
    this when only the size is wanted. Stops early once the best size
    reaches ``stop_at``.
    """
    r = g.r
    best = r - 1
    found: list[tuple[int, ...]] = []
    if not g.edges:
        return best, found
    # link[S]: the vertices that complete the (r-1)-set S to an edge.
    link: dict[int, int] = {}
    verts = 0
    for mask in g.edges:
        verts |= mask
        rest = mask
        while rest:
            bit = rest & -rest
            link[mask ^ bit] = link.get(mask ^ bit, 0) | bit
            rest ^= bit
    beat = 0 if ties else 1

    def rec(clique: tuple[int, ...], cands: int) -> bool:
        nonlocal best, found
        if len(clique) > best:
            best, found = len(clique), [clique]
            if stop_at is not None and best >= stop_at:
                return True
        elif ties and len(clique) == best:
            found.append(clique)
        subs = [edge_mask(sub) for sub in combinations(clique, r - 2)]
        while cands:
            if len(clique) + cands.bit_count() < best + beat:
                break
            bit = cands & -cands
            cands ^= bit
            nxt = cands
            for sub in subs:
                nxt &= link.get(sub | bit, 0)
            if rec(clique + (bit.bit_length(),), nxt):
                return True
        return False

    rec((), verts)
    return best, found


def clique_number(g: Hypergraph) -> int:
    """Largest t with every r-subset of some t-set present; r-1 if no edges."""
    return _max_cliques(g, ties=False)[0]


def maximum_cliques(g: Hypergraph) -> list[tuple[int, ...]]:
    """All vertex sets attaining the clique number, ascending; [] if no edges."""
    return _max_cliques(g)[1]


def contains_clique(g: Hypergraph, t: int) -> bool:
    """Whether the clique number is at least t.

    For a left-compressed graph any clique shifts onto an initial
    segment, and [t] is a clique exactly when its top r-set
    {t-r+1, ..., t} is an edge, since that set dominates every r-subset
    of [t]: one bitmask lookup. Whether the graph is left-compressed is
    decided at most once per graph and is known without a scan for an
    enumerated one. Otherwise falls back to branch-and-bound with early
    exit.
    """
    if t < g.r:
        raise ValueError(f"need t >= r, got t={t}, r={g.r}")
    if t > g.n:
        return False
    if is_left_compressed(g):
        return ((1 << t) - 1) ^ ((1 << (t - g.r)) - 1) in g.edges
    return _max_cliques(g, stop_at=t, ties=False)[0] >= t


# ---------------------------------------------------------------------------
# Enumeration: left-compressed families = down-sets of dominance order.
# Colex order is a linear extension of dominance, so every down-set is
# generated exactly once by adding elements in increasing colex order,
# admitting an element only when its cover predecessors are all chosen.
# ---------------------------------------------------------------------------

def _colex_universe(t: int, r: int) -> list[Edge]:
    return sorted(combinations(range(1, t + 1), r), key=colex_key)


def _cover_masks(elements: list[Edge]) -> list[int]:
    """Per element, a bitmask (over element indices) of its cover predecessors."""
    index = {edge_mask(e): i for i, e in enumerate(elements)}
    out = []
    for e in elements:
        pm = 0
        for pred in _COVERS[edge_mask(e)]:
            if pred not in index:
                raise ValueError(
                    f"universe is not closed downward: {e} covers"
                    f" {mask_to_edge(pred)} which is absent"
                )
            pm |= 1 << index[pred]
        out.append(pm)
    return out


def _ideals(preds: list[int], m: int, values: Sequence) -> Iterator[list]:
    """All m-element down-sets, in DFS order, as the path of their values.

    Elements are picked in increasing index order. ``cands`` holds the
    unchosen elements above the last pick whose predecessors are all
    chosen; picking j can admit only covers of j, so the frontier grows
    from ``succs[j]`` instead of a rescan of every later element.

    The search enters no dead end. An element passed over can never be
    picked, nor can anything above it, so ``dead`` is the union of
    ``up[i]`` (i and every element above i) over each i passed over so
    far, at this level and at every level above it. Before picking j
    with ``need`` picks to go, ``alive`` is the elements above j outside
    ``dead``; chosen | j | alive is a down-set, so its first ``need - 1``
    alive elements in index order complete the pick to an m-element
    down-set exactly when there are that many. When there are not, no
    later candidate has more, and the level ends.

    The levels live on one explicit stack of (cands, chosen, dead)
    frames; the remaining ``cands`` of a level are the frontier above
    its current pick, so no frame keeps a separate one. Each down-set
    is yielded as the list of ``values[j]`` of its elements in pick
    order; it is the same list every time, changed as the search goes
    on, so a caller copies what it keeps.
    """
    path: list = []
    if m == 0:
        yield path
        return
    n = len(preds)
    succs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, pm in enumerate(preds):
        for j in _set_bits(pm):
            succs[j].append((1 << k, pm))
    up = [0] * n
    for j in reversed(range(n)):
        up[j] = 1 << j
        for succ, _ in succs[j]:
            up[j] |= up[succ.bit_length() - 1]
    full = (1 << n) - 1

    stack: list[tuple[int, int, int]] = []
    cands = sum(1 << j for j, pm in enumerate(preds) if not pm)
    chosen = dead = 0
    need = m
    while True:
        if need == 1:
            # The last pick: every candidate completes a down-set.
            while cands:
                bit = cands & -cands
                cands ^= bit
                path.append(values[bit.bit_length() - 1])
                yield path
                path.pop()
        elif cands:
            bit = cands & -cands
            j = bit.bit_length() - 1
            if ((full ^ dead) >> (j + 1)).bit_count() >= need - 1:
                cands ^= bit
                path.append(values[j])
                stack.append((cands, chosen, dead | up[j]))
                chosen |= bit
                for succ, pm in succs[j]:
                    if not pm & ~chosen:
                        cands |= succ
                need -= 1
                continue
        # The level is done, or cut: back to the level above, with its
        # last pick passed over.
        if not stack:
            return
        cands, chosen, dead = stack.pop()
        path.pop()
        need += 1


def _set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reflect(edge: Edge, t: int) -> Edge:
    return tuple(sorted(t + 1 - v for v in edge))


def _down_set_poset(
    t: int, r: int, m: int, universe: Sequence[Edge] | None
) -> tuple[list[Edge], list[int]]:
    """Checked colex-sorted elements and their cover-predecessor masks."""
    if r < 2:
        raise ValueError("uniformity r must be >= 2")
    if t < r:
        raise ValueError(f"need t >= r, got t={t}, r={r}")
    # Before the universe: C(t, r) grows fast past the size a graph can have.
    _check_vertex_count(t)
    if universe is not None:
        # Plain ints, r distinct ones in [t]: this is the only check the
        # enumerated graphs' edges get.
        elements = sorted({tuple(sorted(map(index, e))) for e in universe}, key=colex_key)
        for e in elements:
            if len(e) != r or len(set(e)) != r or e[0] < 1 or e[-1] > t:
                raise ValueError(f"universe member {e} is not an r-subset of [{t}]")
    else:
        elements = _colex_universe(t, r)
    total = len(elements)
    if not 0 <= m <= total:
        raise ValueError(f"need 0 <= m <= {total}, got m={m}")
    return elements, _cover_masks(elements)


def enumerate_left_compressed(
    t: int, r: int, m: int, *, universe: Sequence[Edge] | None = None
) -> Iterator[Hypergraph]:
    """All left-compressed r-graphs on [t] with m edges, each once.

    Deterministic order. ``universe``, when given, must be a
    downward-closed set of r-subsets of [t]; enumeration is then
    restricted to families inside it (still left-compressed as graphs).
    Every graph comes back already known left-compressed, so
    :func:`is_left_compressed` and :func:`contains_clique` run no scan
    on it. The universe is checked as r-subsets of [t] once per call,
    and each graph's edges are drawn from it, so no graph's edges are
    checked one at a time.

    For the full universe and m past the halfway point, enumeration
    runs on complements: reflection v -> t+1-v reverses dominance, so
    m-element down-sets correspond bijectively to (C(t,r)-m)-element
    down-sets.
    """
    elements, preds = _down_set_poset(t, r, m, universe)
    total = len(elements)

    if universe is None and m > total // 2:
        # Complement path: enumerate the small side, reflect back.
        full = frozenset(map(edge_mask, elements))
        refl = [edge_mask(_reflect(e, t)) for e in elements]
        for path in _ideals(preds, total - m, refl):
            yield Hypergraph._down_set(r, t, full.difference(path))
        return

    for path in _ideals(preds, m, list(map(edge_mask, elements))):
        yield Hypergraph._down_set(r, t, frozenset(path))


def count_left_compressed(t: int, r: int, m: int, *, universe: Sequence[Edge] | None = None) -> int:
    """Number of left-compressed r-graphs on [t] with m edges.

    Counts the down-sets directly, on the smaller side of the reflection
    for the full universe, without building a ``Hypergraph``.
    """
    elements, preds = _down_set_poset(t, r, m, universe)
    size = m if universe is not None else min(m, len(elements) - m)
    return sum(1 for _ in _ideals(preds, size, range(len(preds))))
