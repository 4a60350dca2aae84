"""The benchmark's workloads: inputs from a seed, units of work, oracles.

Every workload runs in this process with ``parallelism=1``. A workload is
a fixed list of units (one CLI-sized call each) determined by the seed
alone; a pass runs every unit once, in order. Passes can therefore be
repeated, traced, and compared byte for byte, and each query's latency
is the median of its unit's times. Each workload calls the
program through its modules at call time, so that the tracer's patches
(made where callers look functions up) see the calls.

Why these workloads:

* ``ascent_3graph`` is 3-graph Lagrangians by multi-start ascent with
  its projected-gradient rescue: ``lagrangia verify plateau --t 6`` and
  ``--t 7`` (enumerate, ``lagrangian``, classify, report), the graphs
  ``verify pz18 --t 6`` checks, and ``lagrangia lagrangian FILE`` on
  random 3-graphs on 7-8 vertices that are not left-compressed, with
  ``minimize_support`` and ``certify``. Costs are heavy-tailed: most
  units take well under 0.1 s, a few over 2 s. Ascent
  (``_kernels.ascent_loop``) is over 90% of it, so it is the main
  workload for any change to ascent or its rescue path.
* ``structure_t9`` calls no ascent: exhaustive ideal enumeration on [9]
  with theorem1's clique filter, and closed-form 2-graph Lagrangians
  through ``clique_number`` and ``maximum_cliques``. It is the main
  workload for ``structure`` changes and the bypass workload for ascent
  changes, where the prediction is no change.
* ``lc3_all_m_t6`` is ``lagrangia verify lemmaeq --t 6``, the profiled
  baseline in ROADMAP.md. It is one unit of 35-45 s, too long to repeat
  within a run, so it is not in BENCHMARK.json; run it with ``--trace
  1`` to reproduce that profile.

There are two workloads in BENCHMARK.json, not more, so that within the
time a full benchmark may take each run can last close to a minute and
hold several passes.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import numpy as np


def _mod(name: str):
    return importlib.import_module(f"lagrangia.{name}")


@dataclass
class Checked:
    """What the oracles made of one pass."""

    items: int
    failed: int
    report: bytes
    problems: list[str]


def _dump(record) -> bytes:
    return (json.dumps(record, sort_keys=True, indent=2) + "\n").encode()


def _random_3graph(rng: np.random.Generator):
    """A 3-graph on 7-8 vertices, each triple kept with p ~ U[0.2, 0.8]."""
    core = _mod("core")
    n = int(rng.integers(7, 9))
    p = rng.uniform(0.2, 0.8)
    keep = [e for e in itertools.combinations(range(1, n + 1), 3) if rng.random() < p]
    return core.Hypergraph.from_edges(3, n, keep)


def _plain_value(g, weights) -> float:
    """The edge-product form evaluated in plain Python, without the kernels."""
    w = [float(x) for x in weights]
    return math.fsum(
        math.prod(w[v - 1] for v in range(1, g.n + 1) if mask >> (v - 1) & 1)
        for mask in g.edges
    )


def _weighting_problems(g, res) -> list[str]:
    """The weighting lies on the simplex and gives the reported value."""
    w = res.weighting
    if np.any(w < 0.0) or abs(math.fsum(w.tolist()) - 1.0) > 1e-9:
        return ["weighting off the simplex"]
    if abs(_plain_value(g, w) - res.value) > 1e-12:
        return [f"value {res.value!r} is not the form at its weighting"]
    return []


class Ascent3Graph:
    """3-graph Lagrangians by ascent, in units of three kinds.

    * ``("verify", verifier, t, instances)``: one ``verify`` command from
      ``lagrangia.theorems``; its report must say ``pass`` and cover
      ``instances`` graphs.
    * ``("complete", g, clique)``: ``lagrangian(g)`` on a left-compressed
      graph holding ``clique``, whose value must be C(s,3)/s^3 for a
      clique of s vertices.
    * ``("query", g)``: ``lagrangian(g)`` then ``certify(g, res)``, as
      ``lagrangia lagrangian FILE`` does; the certificate must be ok.

    The seed feeds the optimizer's random starts (``--seed`` of the CLI)
    and orders the units. The graphs themselves do not vary with the
    seed: random query graphs of this size differ in cost by up to 50x,
    so fresh graphs per seed would swing a pass's total by tens of
    percent, and so would relabelling them (the structured starts are
    label-dependent).
    """

    def __init__(self, units: list, seed: int) -> None:
        lagrangian = _mod("lagrangian")
        self.opts = lagrangian.OptOptions(seed=seed)
        self.verify_opts = _mod("theorems").VerifyOptions(seed=seed, parallelism=1)
        order = np.random.default_rng([seed, 1]).permutation(len(units))
        self.units = [units[i] for i in order]
        self.query_units = [i for i, u in enumerate(self.units) if u[0] == "query"]

    def run_unit(self, i: int):
        kind, *args = self.units[i]
        if kind == "verify":
            verifier, t, _ = args
            return getattr(_mod("theorems"), verifier)(t, self.verify_opts).to_json().encode()
        lagrangian = _mod("lagrangian")
        res = lagrangian.lagrangian(args[0], self.opts)
        return res if kind == "complete" else (res, lagrangian.certify(args[0], res))

    def check(self, outputs: list) -> Checked:
        problems, records = [], []
        items = failed = 0
        for i, (unit, out) in enumerate(zip(self.units, outputs)):
            kind = unit[0]
            size = unit[3] if kind == "verify" else 1
            items += size
            if isinstance(out, Exception):
                failed += size
                problems.append(f"unit {i} ({kind}): {out!r}")
                records.append({"error": repr(out)})
                continue
            if kind == "verify":
                record = json.loads(out)
                records.append(record)
                bad = []
                if record["verdict"] != "pass":
                    bad.append(f"verdict {record['verdict']!r}, expected 'pass'")
                if record["instances_checked"] != size:
                    bad.append(f"{record['instances_checked']} instances, expected {size}")
            elif kind == "complete":
                g, clique = unit[1], unit[2]
                records.append(out.to_record())
                s = len(clique)
                expected = math.comb(s, 3) / s**3
                bad = _weighting_problems(g, out)
                if abs(out.value - expected) > 1e-9:
                    bad.append(f"value {out.value!r}, the {s}-clique gives {expected!r}")
            else:
                g = unit[1]
                res, cert = out
                records.append({"result": res.to_record(), "certificate": cert.to_record()})
                bad = _weighting_problems(g, res)
                if not cert.ok:
                    bad.append("certificate not ok")
            if bad:
                failed += size
                problems.append(f"unit {i} ({kind}): " + ", ".join(bad))
        return Checked(items, failed, _dump(records), problems)


def ascent_3graph(seed: int) -> Ascent3Graph:
    """verify plateau --t 6 and --t 7, the pz18 instances on [6], and queries."""
    core, structure, theorems = _mod("core"), _mod("structure"), _mod("theorems")
    units = [
        ("verify", "verify_colex_plateau", 6, 7),
        ("verify", "verify_colex_plateau", 7, 11),
    ]
    # The graphs ``verify pz18 --t 6`` checks: left-compressed 3-graphs
    # on [6] with m on the plateau that hold the 5-clique [5].
    for m in theorems.plateau_range(6).m_values():
        for g in structure.enumerate_left_compressed(6, 3, m):
            if all(core.edge_mask(e) in g.edges for e in itertools.combinations(range(1, 6), 3)):
                units.append(("complete", g, tuple(range(1, 6))))
    if len(units) != 2 + PZ18_T6_GRAPHS:
        raise RuntimeError(f"{len(units) - 2} pz18 graphs on [6], expected {PZ18_T6_GRAPHS}")
    pool_rng = np.random.default_rng(QUERY_POOL_SEED)
    queries = 0
    while queries < QUERY_POOL_SIZE:
        g = _random_3graph(pool_rng)
        if g.edges and not structure.is_left_compressed(g):
            units.append(("query", g))
            queries += 1
    return Ascent3Graph(units, seed)


def lc3_all_m_t6(seed: int) -> Ascent3Graph:
    # 65 left-compressed 3-graphs on [6] with 1..20 edges.
    return Ascent3Graph([("verify", "lemmaeq_dichotomy_audit", 6, 65)], seed)


PZ18_T6_GRAPHS = 11
QUERY_POOL_SEED = 20131229
QUERY_POOL_SIZE = 12


def _enumeration_problems(t: int, counts: list[int], total: int) -> list[str]:
    """count(m) = count(C(t,3) - m), and the counts sum to ``total``."""
    problems = []
    if counts != counts[::-1]:
        problems.append(f"t={t}: counts are not symmetric in m")
    if sum(counts) != total:
        problems.append(f"t={t}: {sum(counts)} graphs, expected {total}")
    return problems


class StructureT9:
    """Ideal enumeration on [9] with theorem1's filter, then 2-graph values.

    Units are one edge count m of the enumeration each, then one 2-graph
    each.
    """

    t = 9
    totals = {8: 2431, 9: 21760}  # left-compressed 3-graphs, empty graph included
    two_graphs = 200
    # Edge {6, 7, 8}: a left-compressed graph spans an 8-clique exactly
    # when it holds this triple, which dominates every triple of [8].
    mask_678 = 0b1110_0000

    def __init__(self, seed: int) -> None:
        core, structure = _mod("core"), _mod("structure")
        count8 = [
            sum(1 for _ in structure.enumerate_left_compressed(8, 3, m))
            for m in range(core.binomial(8, 3) + 1)
        ]
        self.setup_problems = _enumeration_problems(8, count8, self.totals[8])
        # Dense 2-graphs: n cycles through 14..16, edge probability
        # stratified over [0.5, 0.9] in blocks of ten so every seed
        # covers the density range evenly.
        rng = np.random.default_rng([seed, 2])
        graphs = []
        for block in range(self.two_graphs // 10):
            strata = rng.permutation(10)
            for k in range(10):
                n = 14 + (10 * block + k) % 3
                p = 0.5 + 0.4 * (strata[k] + rng.random()) / 10
                edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
                graphs.append(core.Hypergraph.from_edges(2, n, edges))
        self.edge_counts = core.binomial(self.t, 3) + 1
        self.units = [("enumerate", m) for m in range(self.edge_counts)]
        self.units += [("two_graph", g) for g in graphs]
        self.omega = [_nx_clique_number(g) for g in graphs]

    def run_unit(self, i: int):
        kind, arg = self.units[i]
        if kind == "two_graph":
            return _mod("lagrangian").lagrangian(arg)
        structure = _mod("structure")
        count = with_clique = mismatched = 0
        for g in structure.enumerate_left_compressed(self.t, 3, arg):
            count += 1
            has = structure.contains_clique(g, self.t - 1)
            with_clique += has
            mismatched += has != (self.mask_678 in g.edges)
        return count, with_clique, mismatched

    def check(self, outputs: list) -> Checked:
        enum_out = outputs[: self.edge_counts]
        problems = list(self.setup_problems)
        failed = 0
        if any(isinstance(o, Exception) for o in enum_out):
            failed += 1
            problems += [f"enumerate m={m}: {o!r}" for m, o in enumerate(enum_out) if isinstance(o, Exception)]
            counts = with_clique = []
        else:
            counts = [o[0] for o in enum_out]
            with_clique = [o[1] for o in enum_out]
            problems += _enumeration_problems(self.t, counts, self.totals[self.t])
            mismatched = sum(o[2] for o in enum_out)
            if mismatched:
                failed += mismatched
                problems.append(f"contains_clique wrong on {mismatched} graphs")
        records = []
        two = zip(self.units[self.edge_counts :], outputs[self.edge_counts :], self.omega)
        for i, ((_, g), res, omega) in enumerate(two):
            if isinstance(res, Exception):
                failed += 1
                problems.append(f"2-graph {i}: {res!r}")
                records.append({"error": repr(res)})
                continue
            records.append(res.to_record())
            expected = float(Fraction(omega - 1, 2 * omega))
            support = res.support
            edges = {tuple(e) for e in g.edge_list()}
            is_clique = len(support) == omega and all(
                pair in edges for pair in itertools.combinations(sorted(support), 2)
            )
            if res.value != expected or not is_clique:
                failed += 1
                problems.append(
                    f"2-graph {i}: value {res.value!r} on support {support},"
                    f" Motzkin-Straus gives {expected!r} with clique number {omega}"
                )
        report = _dump({"counts": counts, "with_clique": with_clique, "two_graphs": records})
        items = sum(counts) + self.two_graphs
        return Checked(items, failed, report, problems)


def _nx_clique_number(g) -> int:
    """Clique number from networkx, independent of ``lagrangia.structure``."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(1, g.n + 1))
    nxg.add_edges_from(g.edge_list())
    return max(len(c) for c in nx.find_cliques(nxg))


WORKLOADS = {
    "ascent_3graph": ascent_3graph,
    "structure_t9": StructureT9,
    "lc3_all_m_t6": lc3_all_m_t6,
}
