"""Golden report bytes for every verifier.

Each case runs one verifier at its smallest valid t (seed 0,
parallelism 1, two random starts) and compares ``to_json()`` with the
file of the same name under ``tests/golden/``. The ``stub-`` cases
replace the Lagrangian solver with a deterministic stand-in whose
values break every solving claim, so each kind of violation,
indeterminate and out-of-scope record is locked too.

The files were written by the code before the verifiers were rebuilt
over shared helpers; regenerate them only for a deliberate change of
report bytes, with ``python tests/test_golden.py``. It rewrites only the
files whose bytes changed and prints, for each, the largest absolute
shift of a float field and every other field that changed, was added
or was removed.

The ``cli-`` cases lock the standard output and exit code of every
command line command in text and JSON, and of the verify violation
table in CSV.  They were written by the command line before its
handlers were merged into one writer.
"""

import contextlib
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lagrangia import cli, theorems
from lagrangia.lagrangian import DEFAULT_OPTIONS, OptResult

GOLDEN = Path(__file__).parent / "golden"

OPTS = theorems.VerifyOptions(
    seed=0, parallelism=1, opt=replace(DEFAULT_OPTIONS, random_starts=2)
)

# name -> (verifier, positional arguments, VerifyOptions overrides)
CASES = {
    "colex-plateau-t5": (theorems.verify_colex_plateau, (5,), {}),
    "theorem1-t5": (theorems.verify_theorem1, (5,), {}),
    "theorem1-t5-margin1": (theorems.verify_theorem1, (5,), {"margin": 1.0}),
    "pz18-t5": (theorems.verify_pz18, (5,), {}),
    "tal9-t4": (theorems.lemma_tal9_audit, (4,), {}),
    "theorem2-t6": (theorems.verify_theorem2, (6,), {}),
    "corollary-t6": (theorems.verify_corollary, (6,), {}),
    "k4-t4": (theorems.proposition_k4_check, (4,), {}),
    "bp-t3-p4": (theorems.bp_check, (3, 4), {}),
    "theorem43-t5-a1": (theorems.theorem43_check, (5, 1), {}),
    "lemmaeq-t6": (theorems.lemmaeq_dichotomy_audit, (6,), {}),
    "witness-r3-t5": (theorems.witness_report, (3, 5), {}),
}

# Solving verifiers under the stub, at t where it yields violations.
STUB_CASES = {
    "stub-colex-plateau-t5": (theorems.verify_colex_plateau, (5,), {}),
    "stub-theorem1-t5": (theorems.verify_theorem1, (5,), {}),
    "stub-pz18-t5": (theorems.verify_pz18, (5,), {}),
    "stub-tal9-t5": (theorems.lemma_tal9_audit, (5,), {}),
    "stub-theorem2-t8": (theorems.verify_theorem2, (8,), {}),
    "stub-theorem43-t7-a1": (theorems.theorem43_check, (7, 1), {}),
    "stub-lemmaeq-t6": (theorems.lemmaeq_dichotomy_audit, (6,), {}),
}


_VERIFY_ARGV = ("verify", "theorem1", "--t", "5", "--parallelism", "1", "--random-starts", "2")

# CLI runs: argv for each command, run once per format.  A relative
# path is resolved in tests/golden, so the input name in the output
# stays "cli-graph.txt".
_CLI_COMMANDS = {
    "lagrangian-file": ("lagrangian", "cli-graph.txt"),
    "lagrangian-colex": ("lagrangian", "--colex", "3", "7"),
    "clique-file": ("clique", "cli-graph.txt"),
    "clique-colex": ("clique", "--colex", "3", "7"),
    "compress-file": ("compress", "cli-graph.txt"),
    "compress-colex": ("compress", "--colex", "3", "7"),
    "colex-rank": ("colex", "rank", "1", "2", "6"),
    "colex-unrank": ("colex", "unrank", "3", "10"),
    "colex-generate": ("colex", "generate", "3", "7"),
    "enumerate": ("enumerate", "5", "3", "4"),
    "enumerate-count-only": ("enumerate", "5", "3", "4", "--count-only"),
    "verify-theorem1-t5": _VERIFY_ARGV,
}

# golden file name -> (exit code, argv); "stub-" runs under the stub solver
CLI_CASES = {
    f"cli-{name}.{ext}": (0, (*argv, "--format", fmt))
    for name, argv in _CLI_COMMANDS.items()
    for fmt, ext in (("text", "txt"), ("json", "json"))
}
CLI_CASES["cli-verify-theorem1-t5.csv"] = (0, (*_VERIFY_ARGV, "--format", "csv"))
CLI_CASES["cli-stub-verify-theorem1-t5.csv"] = (1, (*_VERIFY_ARGV, "--format", "csv"))


def stub_lagrangian(g, opts=None):
    """Weight 1/2 on vertex 1, the rest spread over the other non-isolated
    vertices, and a value no claim survives."""
    others = [v for v in g.non_isolated() if v != 1]
    x = np.zeros(g.n)
    x[0] = 0.5 if others else 1.0
    for v in others:
        x[v - 1] = 0.5 / len(others)
    return OptResult(
        value=0.5 + (sum(g.edges) % 7) / 100,
        weighting=x,
        support=(1, *others),
        kkt_residual=0.0,
        edge_cover_ok=True,
        method="stub",
        iterations=0,
    )


def stub_lagrangians(graphs, opts=None):
    """``stub_lagrangian`` of each graph: the stand-in for the sweeps'
    many-graph solve."""
    return [stub_lagrangian(g, opts) for g in graphs]


def _report_json(case) -> str:
    verifier, args, overrides = case
    return verifier(*args, replace(OPTS, **overrides)).to_json()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert _report_json(CASES[name]) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(STUB_CASES))
def test_stub_report_matches_golden(name, monkeypatch):
    monkeypatch.setattr(theorems, "lagrangians", stub_lagrangians)
    assert _report_json(STUB_CASES[name]) == (GOLDEN / f"{name}.json").read_text()


def _cli_run(argv) -> tuple[int, str]:
    """Exit code and standard output of one CLI run in tests/golden."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_matches_golden(name, monkeypatch):
    monkeypatch.delenv("LAGRANGIA_SEED", raising=False)
    if name.startswith("cli-stub-"):
        monkeypatch.setattr(theorems, "lagrangians", stub_lagrangians)
    code, argv = CLI_CASES[name]
    assert _cli_run(argv) == (code, (GOLDEN / name).read_text())


def _changes(old, new, path=""):
    """(path, |shift|) for every float field that moved between two parsed
    reports, and (path, None) for every other field that changed, with
    "(added)" or "(removed)" after the path of a dict key only one has."""
    if isinstance(old, float) and isinstance(new, float):
        if old != new:
            yield path, abs(new - old)
    elif isinstance(old, dict) and isinstance(new, dict):
        # Shared keys are compared field by field even when a key was
        # added or removed next to them, and each such key is named.
        for key in old:
            if key in new:
                yield from _changes(old[key], new[key], f"{path}.{key}")
            else:
                yield f"{path}.{key} (removed)", None
        for key in new:
            if key not in old:
                yield f"{path}.{key} (added)", None
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _changes(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, None


def _rewrite(name: str, text: str) -> None:
    """Write a golden file whose bytes changed, and say what changed."""
    path = GOLDEN / name
    old = path.read_text() if path.exists() else None
    if text == old:
        return
    path.write_text(text)
    if old is None:
        print(f"{name}: new file")
        return
    if path.suffix != ".json":
        print(f"{name}: changed")
        return
    changes = list(_changes(json.loads(old), json.loads(text)))
    shifts = [shift for _, shift in changes if shift is not None]
    print(f"{name}: largest float shift {max(shifts, default=0.0)!r}")
    for where, shift in changes:
        if shift is None:
            print(f"  changed: {where or '(whole report)'}")


def test_changes_report_floats_next_to_an_added_key(tmp_path, monkeypatch, capsys):
    # A report that gains a key keeps its float report: the shift in the
    # shared keys is measured, and the added and removed keys are named.
    old = {"extras": {"values": [[5, 0.0625]], "gone": 1}, "seed": 0}
    new = {"extras": {"values": [[5, 0.0625 + 2**-55]], "structured_only": 2}, "seed": 0}
    assert list(_changes(old, new)) == [
        (".extras.values[0][1]", 2**-55),
        (".extras.gone (removed)", None),
        (".extras.structured_only (added)", None),
    ]
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    (tmp_path / "r.json").write_text(json.dumps(old))
    _rewrite("r.json", json.dumps(new))
    assert capsys.readouterr().out == (
        f"r.json: largest float shift {2**-55!r}\n"
        "  changed: .extras.gone (removed)\n"
        "  changed: .extras.structured_only (added)\n"
    )
    assert json.loads((tmp_path / "r.json").read_text()) == new


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.environ.pop("LAGRANGIA_SEED", None)
    for name, case in sorted(CASES.items()):
        _rewrite(f"{name}.json", _report_json(case))
    for name, (_, argv) in sorted(CLI_CASES.items()):
        if not name.startswith("cli-stub-"):
            _rewrite(name, _cli_run(argv)[1])
    theorems.lagrangians = stub_lagrangians
    for name, case in sorted(STUB_CASES.items()):
        _rewrite(f"{name}.json", _report_json(case))
    for name, (_, argv) in sorted(CLI_CASES.items()):
        if name.startswith("cli-stub-"):
            _rewrite(name, _cli_run(argv)[1])
