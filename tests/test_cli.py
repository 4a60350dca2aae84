"""CLI behavior: dispatch, exit codes, formats, seed plumbing."""

import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import lagrangia
from lagrangia.cli import (
    EXIT_FAIL,
    EXIT_INDETERMINATE,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_PASS,
    EXIT_USAGE,
    CliUsageError,
    RunConfig,
    _violations_csv,
    main,
    parse_args,
)
from lagrangia import _kernels, core, theorems
from lagrangia.core import format_edge_list
from lagrangia.structure import enumerate_left_compressed
from lagrangia.theorems import TheoremReport

cli_module = sys.modules["lagrangia.cli"]

pytestmark = pytest.mark.usefixtures("clean_seed_env")


@pytest.fixture
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("LAGRANGIA_SEED", raising=False)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ dispatch


def test_lagrangian_colex_text(capsys):
    code, out, _ = run_main(capsys, "lagrangian", "--colex", "3", "13")
    assert code == EXIT_PASS
    assert "value: 0.08" in out
    assert "method: ascent" in out
    assert "support: 1 2 3 4 5" in out


def test_lagrangian_complete_json(capsys):
    code, out, _ = run_main(
        capsys, "lagrangian", "--complete", "4", "2", "--format", "json"
    )
    assert code == EXIT_PASS
    rec = json.loads(out)
    assert rec["result"]["value"] == pytest.approx(0.375, abs=1e-12)
    assert rec["result"]["method"] == "closed-form"
    assert rec["certificate"]["ok"] is True
    assert rec["version"]
    assert "seed" in rec and "tolerances" in rec


def test_lagrangian_from_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("3 4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
    code, out, _ = run_main(capsys, "lagrangian", str(path), "--format", "json")
    assert code == EXIT_PASS
    rec = json.loads(out)
    assert rec["graph"] == {"r": 3, "n": 4, "m": 4}
    assert rec["result"]["value"] == pytest.approx(4 / 64, abs=1e-10)


def test_clique_command(capsys):
    code, out, _ = run_main(capsys, "clique", "--complete", "5", "3", "--format", "json")
    assert code == EXIT_PASS
    rec = json.loads(out)
    assert rec["clique_number"] == 5
    assert rec["maximum_cliques"] == [[1, 2, 3, 4, 5]]


def test_compress_command(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("3 4 2\n2 3 4\n1 3 4\n")
    code, out, _ = run_main(capsys, "compress", str(path))
    assert code == EXIT_PASS
    assert out.startswith("# compression steps:")
    assert "1 2 3" in out


def test_compress_fixed_point_json(capsys):
    code, out, _ = run_main(
        capsys, "compress", "--colex", "3", "7", "--format", "json"
    )
    rec = json.loads(out)
    assert rec["fixed_point"] is True
    assert rec["steps"] == []


def test_colex_rank_unrank_roundtrip(capsys):
    code, out, _ = run_main(capsys, "colex", "rank", "1", "2", "6")
    assert code == EXIT_PASS and out == "10\n"
    code, out, _ = run_main(capsys, "colex", "unrank", "3", "10")
    assert code == EXIT_PASS and out == "1 2 6\n"


def test_colex_generate(capsys):
    code, out, _ = run_main(capsys, "colex", "generate", "3", "4")
    assert code == EXIT_PASS
    assert out == "3 4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n"


def test_enumerate_streams_blank_separated(capsys):
    code, out, _ = run_main(capsys, "enumerate", "5", "3", "2")
    assert code == EXIT_PASS
    records = out.split("\n\n")
    assert len(records) == 1  # single ideal of size 2
    code, out, _ = run_main(capsys, "enumerate", "5", "3", "4")
    assert len(out.split("\n\n")) == 2


@pytest.mark.parametrize(
    "t,r,m", [(5, 3, 0), (5, 3, 4), (6, 3, 7), (6, 3, 14), (6, 3, 20), (4, 2, 6), (6, 4, 9)]
)
def test_enumerate_output_matches_full_listing(capsys, t, r, m):
    # The streamed output equals the output built from the whole list:
    # text records joined by blank lines, and the JSON record as
    # json.dumps writes it. (6, 3, 20) and (4, 2, 6) are the full sets.
    graphs = list(enumerate_left_compressed(t, r, m))
    code, out, _ = run_main(capsys, "enumerate", str(t), str(r), str(m))
    assert code == EXIT_PASS
    assert out == "\n".join(format_edge_list(g) for g in graphs)
    code, out, _ = run_main(capsys, "enumerate", str(t), str(r), str(m), "--format", "json")
    assert code == EXIT_PASS
    rec = json.loads(out)
    assert rec["count"] == len(graphs)
    assert rec["graphs"] == [[list(e) for e in g.edge_list()] for g in graphs]
    assert out == json.dumps(rec, sort_keys=True, indent=2) + "\n"


def test_enumerate_writes_each_graph_as_it_comes(monkeypatch):
    # Before the generator yields graph k + 1, graph k is already written.
    real = cli_module.enumerate_left_compressed
    buf = io.StringIO()
    written = []

    def watched(*args):
        for g in real(*args):
            written.append(len(buf.getvalue()))
            yield g

    monkeypatch.setattr(cli_module, "enumerate_left_compressed", watched)
    monkeypatch.setattr(sys, "stdout", buf)
    for fmt in ("text", "json"):
        written.clear()
        assert main(["enumerate", "6", "3", "7", "--format", fmt]) == EXIT_PASS
        assert len(written) == 5
        assert all(a < b for a, b in zip(written, written[1:]))


def test_enumerate_count_only(capsys):
    code, out, _ = run_main(capsys, "enumerate", "5", "3", "4", "--count-only")
    assert code == EXIT_PASS and out == "2\n"
    code, out, _ = run_main(
        capsys, "enumerate", "5", "3", "4", "--count-only", "--format", "json"
    )
    rec = json.loads(out)
    assert rec["count"] == 2 and "graphs" not in rec


# ------------------------------------------------------------ verify


def test_verify_witness_text(capsys):
    code, out, _ = run_main(capsys, "verify", "witness", "--r", "3", "--t", "6")
    assert code == EXIT_PASS
    assert "0.082 > 0.08" in out
    assert "PASS" in out


def test_verify_theorem1_json(capsys):
    code, out, _ = run_main(
        capsys, "verify", "theorem1", "--t", "5", "--format", "json"
    )
    assert code == EXIT_PASS
    rec = json.loads(out)
    assert rec["verdict"] == "pass"
    assert rec["instances_checked"] > 0
    assert rec["violations"] == []


def test_verify_vacuous_exit_code(capsys):
    code, out, _ = run_main(capsys, "verify", "theorem2", "--t", "6")
    assert code == EXIT_INDETERMINATE
    assert "VACUOUS" in out


def test_verify_ids_cover_spec_surface(capsys):
    quick = {
        "colex-plateau": ["--t", "5"],
        "pz18": ["--t", "5"],
        "corollary": ["--t", "6"],
        "k4": ["--t", "5"],
        "bp": ["--t", "6"],
        "theorem43": ["--t", "6", "--a", "1"],
        "witness": ["--t", "6"],
    }
    for theorem_id, extra in quick.items():
        code, out, _ = run_main(capsys, "verify", theorem_id, *extra)
        assert code == EXIT_PASS, (theorem_id, out)


def test_verify_theorem43_requires_a(capsys):
    code, _, err = run_main(capsys, "verify", "theorem43", "--t", "6")
    assert code == EXIT_USAGE
    assert "--a" in err


def test_verify_unknown_id(capsys):
    code, _, _ = run_main(capsys, "verify", "nonsense", "--t", "5")
    assert code == EXIT_USAGE


def test_verify_guard_is_usage_error(capsys):
    code, _, err = run_main(capsys, "verify", "theorem1", "--t", "9")
    assert code == EXIT_USAGE
    assert "guard" in err


@pytest.mark.parametrize(
    "args",
    [
        ("theorem1",),
        ("pz18",),
        ("tal9",),
        ("theorem2",),
        ("corollary",),
        ("k4",),
        ("bp",),
        ("theorem43", "--a", "1"),
        ("lemmaeq",),
    ],
    ids=lambda args: args[0],
)
def test_every_enumerating_verifier_is_guarded(args, monkeypatch, capsys):
    # The guard refuses [t] before a single triple or graph is listed,
    # however large t is: at t = 10**6 the triples alone would number
    # about 1.7e17.
    def refuse(*_, **__):
        raise RuntimeError("listed")

    monkeypatch.setattr(theorems, "combinations", refuse)
    monkeypatch.setattr(theorems, "enumerate_left_compressed", refuse)
    for t in (9, 10**6):
        code, out, err = run_main(capsys, "verify", *args, "--t", str(t))
        assert code == EXIT_USAGE and out == "", (args, t)
        assert err == (
            f"usage error: ground set [{t}] exceeds the enumeration guard (max_ground=8)\n"
        )


def test_enumerate_guard_is_usage_error(capsys):
    # The enumerate command shares the verifiers' guard and its message.
    code, out, err = run_main(capsys, "enumerate", "9", "3", "4")
    assert code == EXIT_USAGE and out == ""
    assert err == "usage error: ground set [9] exceeds the enumeration guard (max_ground=8)\n"


def test_verify_csv_has_header_even_when_clean(capsys):
    code, out, _ = run_main(
        capsys, "verify", "colex-plateau", "--t", "5", "--format", "csv"
    )
    assert code == EXIT_PASS
    assert out.splitlines()[0].startswith("theorem_id,verdict,index")
    assert len(out.splitlines()) == 1


def test_violations_csv_renders_rows():
    report = TheoremReport(
        theorem_id="demo",
        params={"t": 5},
        search_space="synthetic",
        seed=0,
        tolerances={"tol": 1e-7, "margin": 1e-6},
        instances_checked=1,
        violations=(
            {"m": 4, "edges": [[1, 2, 3], [1, 2, 4]], "value": 0.5},
        ),
        indeterminate=(),
        verdict="fail",
    )
    text = _violations_csv(report)
    lines = text.splitlines()
    assert lines[0] == "theorem_id,verdict,index,edges,m,value"
    assert lines[1] == "demo,fail,0,1 2 3;1 2 4,4,0.5"


# ------------------------------------------------- exit codes and errors


def test_usage_errors_exit_3(capsys):
    assert run_main(capsys, "nonsense")[0] == EXIT_USAGE
    assert run_main(capsys, "lagrangian")[0] == EXIT_USAGE
    assert (
        run_main(capsys, "lagrangian", "--colex", "3", "5", "--complete", "4", "3")[0]
        == EXIT_USAGE
    )
    assert run_main(capsys, "enumerate", "5", "3", "4", "--format", "csv")[0] == EXIT_USAGE
    assert run_main(capsys, "enumerate", "9", "3", "4")[0] == EXIT_USAGE


def test_io_errors_exit_4(tmp_path, capsys):
    assert run_main(capsys, "lagrangian", str(tmp_path / "missing.txt"))[0] == EXIT_IO
    bad = tmp_path / "bad.txt"
    bad.write_text("3 4 2\n1 2 3\n1 2 3\n")
    code, _, err = run_main(capsys, "lagrangian", str(bad))
    assert code == EXIT_IO
    assert "duplicate" in err


def test_internal_error_is_not_a_verdict(monkeypatch, capsys):
    # An ascent that reports a decrease trips the monotonicity assertion.
    def decreasing(X, form, max_iters, tol):
        X = np.array(X)
        values = form.values(X)
        return X, values, np.ones(len(X), dtype=np.int64), np.full(len(X), -1e-3)

    monkeypatch.setattr(_kernels, "ascent_rows", decreasing)
    code, out, err = run_main(capsys, "lagrangian", "--colex", "3", "13")
    assert code == EXIT_INTERNAL
    assert code != EXIT_FAIL
    assert "internal error" in err and "decreased the objective" in err
    assert out == ""


def test_parse_time_exception_is_internal(monkeypatch, capsys):
    def broken_parser():
        raise RuntimeError("parser broke")

    monkeypatch.setattr(cli_module, "build_parser", broken_parser)
    code, out, err = run_main(capsys, "colex", "rank", "1", "2", "6")
    assert code == EXIT_INTERNAL
    code_obj = broken_parser.__code__
    assert err == (
        "internal error: RuntimeError: parser broke\n"
        f"  at {code_obj.co_filename}:{code_obj.co_firstlineno + 1} in broken_parser\n"
    )
    assert out == ""


def test_internal_error_names_where_it_happened(monkeypatch, capsys):
    def broken_command(config):
        return {}[config.command]

    monkeypatch.setitem(cli_module._COMMANDS, "clique", broken_command)
    code, out, err = run_main(capsys, "clique", "--colex", "3", "5")
    assert code == EXIT_INTERNAL
    code_obj = broken_command.__code__
    assert err.splitlines() == [
        "internal error: KeyError: 'clique'",
        f"  at {code_obj.co_filename}:{code_obj.co_firstlineno + 1} in broken_command",
    ]
    assert out == ""


def test_absurd_sizes_are_usage_errors(monkeypatch, capsys):
    # Building any of these would take minutes or many GB; the size
    # guards refuse them before unranking or listing a single edge.
    def refuse(*args):
        raise RuntimeError("built")

    monkeypatch.setattr(core, "colex_unrank", refuse)
    monkeypatch.setattr(theorems, "combinations", refuse)
    for argv, message in (
        (("colex", "generate", "3000000", "2"), "got r=3000000"),
        (("lagrangian", "--colex", "3000000", "2"), "got r=3000000"),
        (("verify", "witness", "--r", "10", "--t", "40"), "edges supported"),
    ):
        code, out, err = run_main(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert err.startswith("usage error: at most") and message in err
        assert out == ""


def test_negative_tolerance_rejected(capsys):
    # NaN compares false with any error, so it would pass every check.
    for flag in ("--tol", "--margin"):
        for value in ("-1", "nan", "inf", "-inf"):
            code, _, err = run_main(capsys, "verify", "pz18", "--t", "5", f"{flag}={value}")
            assert code == EXIT_USAGE, (flag, value)
            assert "finite and positive" in err


def test_output_flag_writes_file_and_silences_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_main(
        capsys,
        "verify",
        "colex-plateau",
        "--t",
        "5",
        "--format",
        "json",
        "--output",
        str(target),
    )
    assert code == EXIT_PASS
    assert out == ""
    rec = json.loads(target.read_text())
    assert rec["verdict"] == "pass"


# -------------------------------------------------------- seed plumbing


def test_seed_flag_lands_in_report(capsys):
    _, out, _ = run_main(
        capsys, "verify", "colex-plateau", "--t", "5", "--seed", "11",
        "--format", "json",
    )
    assert json.loads(out)["seed"] == 11


def test_env_seed_overrides_flag(monkeypatch, capsys):
    monkeypatch.setenv("LAGRANGIA_SEED", "42")
    _, out, _ = run_main(
        capsys, "verify", "colex-plateau", "--t", "5", "--seed", "11",
        "--format", "json",
    )
    assert json.loads(out)["seed"] == 42


def test_env_seed_empty_means_unset(monkeypatch, capsys):
    monkeypatch.setenv("LAGRANGIA_SEED", "")
    _, out, _ = run_main(
        capsys, "verify", "colex-plateau", "--t", "5", "--seed", "11",
        "--format", "json",
    )
    assert json.loads(out)["seed"] == 11


def test_env_seed_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("LAGRANGIA_SEED", "4x")
    code, _, err = run_main(capsys, "verify", "colex-plateau", "--t", "5")
    assert code == EXIT_USAGE
    assert "LAGRANGIA_SEED" in err


def test_parse_args_builds_config():
    config = parse_args(
        ["verify", "pz18", "--t", "5", "--tol", "1e-6", "--seed", "3",
         "--parallelism", "2"]
    )
    assert isinstance(config, RunConfig)
    assert config.command == "verify"
    assert config.verify.tol == 1e-6
    assert config.verify.seed == 3
    assert config.verify.opt.seed == 3
    assert config.verify.parallelism == 2


def test_parse_args_rejects_bad_parallelism():
    with pytest.raises(CliUsageError):
        parse_args(["verify", "pz18", "--t", "5", "--parallelism", "0"])


def test_parse_args_bounds_starts_and_iterations():
    verify = ["verify", "pz18", "--t", "5"]
    config = parse_args(verify + ["--random-starts", "1000", "--max-iters", "0"])
    assert config.verify.opt.random_starts == 1000
    assert config.verify.opt.max_iters == 0
    for flag, absurd in (
        ("--random-starts", "-1"),
        ("--random-starts", "1001"),
        ("--random-starts", "3000000"),
        ("--max-iters", "-1"),
    ):
        with pytest.raises(CliUsageError):
            parse_args(verify + [f"{flag}={absurd}"])


def test_parse_args_bounds_parallelism_by_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    verify = ["verify", "pz18", "--t", "5"]
    assert parse_args(verify).verify.parallelism == 2
    assert parse_args(verify + ["--parallelism", "8"]).verify.parallelism == 8
    for absurd in ("9", "100000000"):
        with pytest.raises(CliUsageError, match="exceeds 8"):
            parse_args(verify + ["--parallelism", absurd])


# ------------------------------------------------------- determinism


def run_python(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("LAGRANGIA_SEED", None)
    # The child imports the package this process imported, installed or not.
    package_root = os.path.dirname(os.path.dirname(lagrangia.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout


def run_cli(*argv, env_extra=None):
    return run_python("-m", "lagrangia", *argv, env_extra=env_extra)


def test_repeated_runs_byte_identical():
    args = ("verify", "theorem1", "--t", "5", "--format", "json", "--seed", "5")
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2
    assert json.loads(out1)["seed"] == 5


def test_console_script_entry_point():
    code, out = run_cli("--version")
    assert code == 0
    assert out.startswith("lagrangia ")


@pytest.mark.parametrize(
    "parallelism, pool_loaded", [(1, False), (2, (os.cpu_count() or 1) > 1)]
)
def test_process_pool_loads_only_for_workers(parallelism, pool_loaded):
    script = (
        "import contextlib, io, sys\n"
        "import lagrangia\n"
        "from lagrangia import cli\n"
        "argv = ['verify', 'pz18', '--t', '5', '--parallelism', sys.argv[1]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(argv)\n"
        "print(code, 'concurrent.futures.process' in sys.modules)\n"
    )
    code, out = run_python("-c", script, str(parallelism))
    assert code == 0
    assert out == f"{EXIT_PASS} {pool_loaded}\n"
