"""Command line interface.

Exit codes: 0 verified pass, 1 verified fail, 2 indeterminate or
vacuous verdict, 3 usage error, 4 input/output error, 5 internal error
(a bug, never a verdict).  Identical
configuration (flags plus LAGRANGIA_SEED) produces byte-identical
structured output.

Each command hands its result to one writer, which prints the record,
under the run's version, seed and tolerances, as JSON with --format
json and the text form otherwise, to standard output or the --output
file.  verify writes its report as text, JSON or CSV to the same
place.  One handler maps every exception, raised while parsing the
flags or while running, to its exit code; an internal error also names
the innermost frame it was raised in.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
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
from .lagrangian import certify, lagrangian
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
        if not 0 <= self.verify.random_starts <= MAX_RANDOM_STARTS:
            raise CliUsageError(f"random starts must be in [0, {MAX_RANDOM_STARTS}]")
        if self.verify.max_iters < 0:
            raise CliUsageError("max iterations must be at least 0")
        if self.verify.parallelism < 1:
            raise CliUsageError("parallelism must be at least 1")
        limit = MAX_WORKERS_PER_CPU * (os.cpu_count() or 1)
        if self.verify.parallelism > limit:
            raise CliUsageError(
                f"parallelism {self.verify.parallelism} exceeds {limit}"
                f" ({MAX_WORKERS_PER_CPU} per cpu)"
            )


# verify id -> (verifier, the flags it takes in the verifier's order)
_VERIFIERS = {
    "colex-plateau": (verify_colex_plateau, ("t",)),
    "theorem1": (verify_theorem1, ("t",)),
    "pz18": (verify_pz18, ("t",)),
    "tal9": (lemma_tal9_audit, ("t",)),
    "theorem2": (verify_theorem2, ("t",)),
    "corollary": (verify_corollary, ("t",)),
    "k4": (proposition_k4_check, ("t",)),
    "bp": (bp_check, ("t", "p")),
    "theorem43": (theorem43_check, ("t", "a")),
    "lemmaeq": (lemmaeq_dichotomy_audit, ("t",)),
    "witness": (witness_report, ("r", "t")),
}
# the verify flags that may be left out, with their values then
_VERIFY_DEFAULTS = {"p": 4, "r": 3}


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_VERIFY.tol)
    common.add_argument("--margin", type=float, default=DEFAULT_VERIFY.margin)
    common.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_VERIFY.seed,
        help="seed of the random starts (default: %(default)s; LAGRANGIA_SEED"
        " overrides it); a verifier solves every instance with this seed,"
        " not one derived from the instance's index",
    )
    common.add_argument(
        "--random-starts",
        type=int,
        default=DEFAULT_VERIFY.random_starts,
        help="Dirichlet starts per graph (default: %(default)s); they run only"
        " on a graph that is not left-compressed, or when the corner starts"
        " of a left-compressed one end off stationarity",
    )
    common.add_argument(
        "--max-iters",
        type=int,
        default=DEFAULT_VERIFY.max_iters,
        help="growth steps per start (default: %(default)s); the Newton steps"
        " of a face finish come on top",
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
    for name in ("a", "p", "r"):
        takers = [i for i, (_, names) in _VERIFIERS.items() if name in names]
        p.add_argument(f"--{name}", type=int, help="taken by " + ", ".join(takers))

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
    verify = VerifyOptions(
        tol=ns.tol,
        margin=ns.margin,
        seed=seed,
        parallelism=ns.parallelism,
        max_iters=ns.max_iters,
        random_starts=ns.random_starts,
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


def _emit(config: RunConfig, record: dict, text: str) -> None:
    """Write one result: ``record`` under the run's metadata as JSON with
    --format json, ``text`` otherwise."""
    if config.fmt == "json":
        text = json.dumps({**_meta(config), **record}, sort_keys=True, indent=2) + "\n"
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


def _cmd_enumerate(config: RunConfig) -> int:
    params = config.params
    t, r, m = params["t"], params["r"], params["m"]
    _check_ground(t)
    if params["count_only"]:
        count = count_left_compressed(t, r, m)
        _emit(config, {"t": t, "r": r, "m": m, "count": count}, f"{count}\n")
        return EXIT_PASS
    # The guard bounds the listing: at most 364 graphs, for t = 8, r = 4,
    # m = 35.
    graphs = list(enumerate_left_compressed(t, r, m))
    record = {
        "t": t,
        "r": r,
        "m": m,
        "count": len(graphs),
        "graphs": [[list(e) for e in g.edge_list()] for g in graphs],
    }
    _emit(config, record, "\n".join(format_edge_list(g) for g in graphs))
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
    verifier, names = _VERIFIERS[theorem_id]
    for name in ("a", "p", "r"):
        if name not in names and params[name] is not None:
            raise CliUsageError(f"verify {theorem_id} does not take --{name}")
    args = [params[n] if params[n] is not None else _VERIFY_DEFAULTS.get(n) for n in names]
    if None in args:
        raise CliUsageError(f"verify {theorem_id} requires --{names[args.index(None)]}")
    report = verifier(*args, config.verify)
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
