"""Command line interface.

Exit codes: 0 verified pass, 1 verified fail, 2 indeterminate or
vacuous verdict, 3 usage error, 4 input/output error, 5 internal error
(a bug, never a verdict).  Identical
configuration (flags plus LAGRANGIA_SEED) produces byte-identical
structured output.

Each command hands its result to one writer, which prints the record,
under the run's version, seed and tolerances, as JSON with --format
json and the text form otherwise, to standard output or the --output
file.  verify writes its report as text, JSON or CSV, and enumerate
streams its listing, to the same place.  One handler maps every
exception, raised while parsing the flags or while running, to its
exit code; an internal error also names the innermost frame it was
raised in.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import sys
import textwrap
import traceback
from dataclasses import dataclass

from ._version import VERSION
from .core import (
    EdgeListFormatError,
    Hypergraph,
    as_edge,
    colex_graph,
    colex_rank,
    colex_unrank,
    complete_graph,
    format_edge_list,
    load_edge_list,
)
from .lagrangian import OptOptions, certify, lagrangian
from .structure import (
    clique_number,
    compress,
    count_left_compressed,
    enumerate_left_compressed,
    maximum_cliques,
)
from .theorems import (
    DEFAULT_VERIFY,
    VerifyOptions,
    _check_ground,
    bp_check,
    lemma_tal9_audit,
    lemmaeq_dichotomy_audit,
    proposition_k4_check,
    theorem43_check,
    verify_colex_plateau,
    verify_corollary,
    verify_pz18,
    verify_theorem1,
    verify_theorem2,
    witness_report,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

# --parallelism above this many workers per core is a usage error
MAX_WORKERS_PER_CPU = 4
# --random-starts above this is a usage error: every start is one row of
# each batch the ascent holds in memory, and a graph's start set runs in
# one lockstep even when it alone exceeds lagrangian.LOCKSTEP_ROWS
MAX_RANDOM_STARTS = 1000

_VERDICT_EXIT = {
    "pass": EXIT_PASS,
    "fail": EXIT_FAIL,
    "indeterminate": EXIT_INDETERMINATE,
    "vacuous": EXIT_INDETERMINATE,
}


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # indeterminate verdict; surface usage problems as exceptions instead.
    def error(self, message):
        raise CliUsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation."""

    command: str
    params: dict
    fmt: str = "text"
    output: str | None = None
    verify: VerifyOptions = DEFAULT_VERIFY

    def __post_init__(self):
        # Written so that NaN fails too: it compares false with anything.
        if not all(0 < tol < math.inf for tol in (self.verify.tol, self.verify.margin)):
            raise CliUsageError("tolerances must be finite and positive")
        if not 0 <= self.verify.opt.random_starts <= MAX_RANDOM_STARTS:
            raise CliUsageError(f"random starts must be in [0, {MAX_RANDOM_STARTS}]")
        if self.verify.opt.max_iters < 0:
            raise CliUsageError("max iterations must be at least 0")
        if self.verify.parallelism < 1:
            raise CliUsageError("parallelism must be at least 1")
        limit = MAX_WORKERS_PER_CPU * (os.cpu_count() or 1)
        if self.verify.parallelism > limit:
            raise CliUsageError(
                f"parallelism {self.verify.parallelism} exceeds {limit}"
                f" ({MAX_WORKERS_PER_CPU} per cpu)"
            )


_VERIFIERS = {
    "colex-plateau": lambda a, o: verify_colex_plateau(a["t"], o),
    "theorem1": lambda a, o: verify_theorem1(a["t"], o),
    "pz18": lambda a, o: verify_pz18(a["t"], o),
    "tal9": lambda a, o: lemma_tal9_audit(a["t"], o),
    "theorem2": lambda a, o: verify_theorem2(a["t"], o),
    "corollary": lambda a, o: verify_corollary(a["t"], o),
    "k4": lambda a, o: proposition_k4_check(a["t"], o),
    "bp": lambda a, o: bp_check(a["t"], a["p"], o),
    "theorem43": lambda a, o: theorem43_check(a["t"], a["a"], o),
    "lemmaeq": lambda a, o: lemmaeq_dichotomy_audit(a["t"], o),
    "witness": lambda a, o: witness_report(a["r"], a["t"], o),
}


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-7)
    common.add_argument("--margin", type=float, default=1e-6)
    common.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the random starts (default: 0; LAGRANGIA_SEED overrides"
        " it); a verifier solves every instance with this seed, not one"
        " derived from the instance's index",
    )
    common.add_argument(
        "--random-starts",
        type=int,
        default=8,
        help="Dirichlet starts per graph (default: 8); they run only on a graph"
        " that is not left-compressed, or when the corner starts of a"
        " left-compressed one end off stationarity",
    )
    common.add_argument(
        "--max-iters",
        type=int,
        default=20000,
        help="growth steps per start (default: 20000); the Newton steps of a"
        " face finish come on top",
    )
    common.add_argument("--parallelism", type=int, default=os.cpu_count() or 1)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--output", metavar="PATH", default=None)

    parser = _Parser(prog="lagrangia", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lagrangia {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def graph_input(p):
        p.add_argument("file", nargs="?", default=None, help="edge list file")
        p.add_argument("--colex", nargs=2, type=int, metavar=("R", "M"))
        p.add_argument("--complete", nargs=2, type=int, metavar=("T", "R"))

    p = sub.add_parser("lagrangian", parents=[common])
    graph_input(p)

    p = sub.add_parser("clique", parents=[common])
    graph_input(p)

    p = sub.add_parser("compress", parents=[common])
    graph_input(p)

    # common flags live on the leaves so they can follow the subcommand
    p = sub.add_parser("colex")
    colex_sub = p.add_subparsers(dest="colex_command", required=True, parser_class=_Parser)
    pr = colex_sub.add_parser("rank", parents=[common])
    pr.add_argument("vertices", nargs="+", type=int)
    pu = colex_sub.add_parser("unrank", parents=[common])
    pu.add_argument("r", type=int)
    pu.add_argument("k", type=int)
    pg = colex_sub.add_parser("generate", parents=[common])
    pg.add_argument("r", type=int)
    pg.add_argument("m", type=int)

    p = sub.add_parser("enumerate", parents=[common])
    p.add_argument("t", type=int)
    p.add_argument("r", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("theorem_id", choices=sorted(_VERIFIERS))
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--r", type=int, default=3)

    return parser


def _env_seed() -> int | None:
    raw = os.environ.get("LAGRANGIA_SEED")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise CliUsageError(f"LAGRANGIA_SEED must be an integer, got {raw!r}")


def parse_args(argv=None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    seed = _env_seed()
    if seed is None:
        seed = ns.seed
    opt = OptOptions(
        max_iters=ns.max_iters,
        random_starts=ns.random_starts,
        seed=seed,
    )
    verify = VerifyOptions(
        tol=ns.tol,
        margin=ns.margin,
        seed=seed,
        parallelism=ns.parallelism,
        opt=opt,
    )
    # violation tables are the one CSV surface
    if ns.format == "csv" and ns.command != "verify":
        raise CliUsageError("--format csv is only available for verify")
    return RunConfig(
        command=ns.command,
        params=vars(ns),
        fmt=ns.format,
        output=ns.output,
        verify=verify,
    )


def _meta(config: RunConfig) -> dict:
    return {
        "version": VERSION,
        "command": config.command,
        "seed": config.verify.seed,
        "tolerances": {"tol": config.verify.tol, "margin": config.verify.margin},
    }


@contextlib.contextmanager
def _output(config: RunConfig):
    """A write function for standard output or the --output file."""
    if config.output is None:
        yield sys.stdout.write
    else:
        with open(config.output, "w") as fh:
            yield fh.write


def _json_dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _emit(config: RunConfig, record: dict, text: str) -> None:
    """Write one result: ``record`` under the run's metadata as JSON with
    --format json, ``text`` otherwise."""
    if config.fmt == "json":
        text = _json_dump({**_meta(config), **record})
    with _output(config) as write:
        write(text)


def _graph_record(g: Hypergraph) -> dict:
    return {"r": g.r, "n": g.n, "m": g.m}


def _input_graph(config: RunConfig) -> tuple[Hypergraph, str]:
    params = config.params
    sources = [params["file"], params["colex"], params["complete"]]
    if sum(source is not None for source in sources) != 1:
        raise CliUsageError("provide exactly one of FILE, --colex R M, --complete T R")
    if params["file"] is not None:
        return load_edge_list(params["file"]), params["file"]
    if params["colex"] is not None:
        r, m = params["colex"]
        return colex_graph(r, m), f"colex r={r} m={m}"
    t, r = params["complete"]
    return complete_graph(t, r), f"complete t={t} r={r}"


def _cmd_lagrangian(config: RunConfig) -> int:
    g, desc = _input_graph(config)
    res = lagrangian(g, config.verify.opt)
    cert = certify(g, res)
    record = {
        "input": desc,
        "search_space": "single graph",
        "graph": _graph_record(g),
        "result": res.to_record(),
        "certificate": cert.to_record(),
    }
    lines = [
        f"graph: {desc} (r={g.r} n={g.n} m={g.m})",
        f"value: {res.value!r}",
        f"method: {res.method}",
        f"structured_only: {res.structured_only}",
        f"iterations: {res.iterations}",
        f"support: {' '.join(map(str, res.support)) or '-'}",
        f"kkt_residual: {res.kkt_residual!r}",
        f"certificate_ok: {cert.ok}",
        "weights: " + " ".join(repr(float(w)) for w in res.weighting),
    ]
    _emit(config, record, "\n".join(lines) + "\n")
    return EXIT_PASS


def _cmd_clique(config: RunConfig) -> int:
    g, desc = _input_graph(config)
    omega = clique_number(g)
    cliques = maximum_cliques(g)
    record = {
        "input": desc,
        "graph": _graph_record(g),
        "clique_number": omega,
        "maximum_cliques": [list(c) for c in cliques],
    }
    lines = [f"clique_number: {omega}"]
    lines += ["  " + " ".join(map(str, c)) for c in cliques]
    _emit(config, record, "\n".join(lines) + "\n")
    return EXIT_PASS


def _cmd_compress(config: RunConfig) -> int:
    g, desc = _input_graph(config)
    out, trace = compress(g)
    edges = out.edge_list()
    record = {
        "input": desc,
        "fixed_point": trace.fixed_point,
        "steps": [[list(a), list(b)] for a, b in trace.steps],
        "graph": _graph_record(out),
        "edges": [list(e) for e in edges],
    }
    head = (
        "# already left-compressed\n"
        if trace.fixed_point
        else f"# compression steps: {len(trace.steps)}\n"
    )
    _emit(config, record, head + format_edge_list(out, edges))
    return EXIT_PASS


def _cmd_colex(config: RunConfig) -> int:
    params = config.params
    sub = params["colex_command"]
    if sub == "rank":
        edge = as_edge(params["vertices"])
        rank = colex_rank(edge)
        _emit(config, {"edge": list(edge), "rank": rank}, f"{rank}\n")
    elif sub == "unrank":
        edge = colex_unrank(params["r"], params["k"])
        record = {"edge": list(edge), "rank": params["k"]}
        _emit(config, record, " ".join(map(str, edge)) + "\n")
    else:
        g = colex_graph(params["r"], params["m"])
        edges = g.edge_list()
        record = {"graph": _graph_record(g), "edges": [list(e) for e in edges]}
        _emit(config, record, format_edge_list(g, edges))
    return EXIT_PASS


_GRAPHS_MARK = "\0graphs"


def _cmd_enumerate(config: RunConfig) -> int:
    params = config.params
    t, r, m = params["t"], params["r"], params["m"]
    _check_ground(t)
    if params["count_only"]:
        count = count_left_compressed(t, r, m)
        _emit(config, {"t": t, "r": r, "m": m, "count": count}, f"{count}\n")
        return EXIT_PASS
    graphs = enumerate_left_compressed(t, r, m)
    # Taking the first graph checks (t, r, m) before the output is opened;
    # every valid m has at least one graph, the colex initial segment.
    graphs = itertools.chain([next(graphs)], graphs)
    if config.fmt == "json":
        # The record as _emit writes it, with the graph list written one
        # graph at a time in the place of a marker.
        record = {"t": t, "r": r, "m": m, "count": count_left_compressed(t, r, m)}
        marked = _json_dump({**_meta(config), **record, "graphs": _GRAPHS_MARK})
        head, tail = marked.split(json.dumps(_GRAPHS_MARK))
        with _output(config) as write:
            write(head + "[\n")
            for i, g in enumerate(graphs):
                edges = json.dumps([list(e) for e in g.edge_list()], indent=2)
                write((",\n" if i else "") + textwrap.indent(edges, "    "))
            write("\n  ]" + tail)
    else:
        with _output(config) as write:
            for i, g in enumerate(graphs):
                write(("\n" if i else "") + format_edge_list(g))
    return EXIT_PASS


def _csv_cell(value) -> str:
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return ";".join(" ".join(map(str, item)) for item in value)
        return ";".join(map(str, value))
    return str(value)


def _violations_csv(report) -> str:
    rows = [dict(v) for v in report.violations]
    cols = sorted({key for row in rows for key in row})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theorem_id", "verdict", "index"] + cols)
    for i, row in enumerate(rows):
        writer.writerow(
            [report.theorem_id, report.verdict, i]
            + [_csv_cell(row.get(c, "")) for c in cols]
        )
    return buf.getvalue()


def _cmd_verify(config: RunConfig) -> int:
    params = config.params
    theorem_id = params["theorem_id"]
    if theorem_id == "theorem43" and params["a"] is None:
        raise CliUsageError("verify theorem43 requires --a")
    report = _VERIFIERS[theorem_id](params, config.verify)
    if config.fmt == "json":
        text = report.to_json()
    elif config.fmt == "csv":
        text = _violations_csv(report)
    else:
        text = report.to_text()
    with _output(config) as write:
        write(text)
    return _VERDICT_EXIT[report.verdict]


_COMMANDS = {
    "lagrangian": _cmd_lagrangian,
    "clique": _cmd_clique,
    "compress": _cmd_compress,
    "colex": _cmd_colex,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
}


def run(config: RunConfig) -> int:
    """Dispatch one resolved configuration; returns the exit status."""
    return _COMMANDS[config.command](config)


def main(argv=None) -> int:
    """Run one invocation; every exception becomes an exit code."""
    try:
        return run(parse_args(argv))
    except EdgeListFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CliUsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(f"  at {where.filename}:{where.lineno} in {where.name}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
