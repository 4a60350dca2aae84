"""Benchmark for lagrangia: one workload, end-to-end or per-layer metrics.

Run from the root of a source checkout (the program is imported from
``src/``, nothing is installed):

    python3 perfbench/run.py --workload ascent_3graph --seed 0 --seconds 54 --trace 0

``--trace 0`` measures end-to-end metrics with tracing off. A run
repeats whole passes of the workload while the next one is expected to
end within ``--seconds`` (always at least one pass) and reports medians
over passes. ``--trace 1`` makes one untraced pass and two traced
passes of the same inputs, reports per-layer metrics from the first
traced pass, and checks that the traced report is byte-identical to the
untraced one and that the second traced pass repeats every count (the
second is skipped, and says so, when it would not end within 150 s).

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 when every oracle passed, 1 when one failed, and 2
when the program is missing or the arguments are wrong.

End-to-end metrics: ``scaled_wall_s`` (median pass time at the reference
speed of ``speed.py``: each stretch of work is scaled by a reference
loop run beside it, so that a run does not depend on how loaded the
shared host was at the time), ``scaled_items_per_s`` (verified
instances, queries, enumerated graphs and 2-graphs per second of
``scaled_wall_s``), ``setup_s`` (median over fresh interpreters of
``import lagrangia`` plus a first CLI call, unscaled) and
``peak_rss_mb`` (this process, from ``getrusage``). The raw ``wall_s``
and ``items_per_s``, ``failed_frac``, the pass times and, on
``ascent_3graph``, the per-query latency percentiles ``query_ms_p50``
and ``query_ms_p90`` are printed with their sample counts but not
gated. There is no queue at ``parallelism=1``, so no wait-time metric
exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import ScaledClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
TRACE_BUDGET_S = 150
E2E_UNITS = {
    "scaled_wall_s": "s",
    "scaled_items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Import the package and make its first call, as a fresh CLI process does.
# The first ascent is where a jit backend compiles. Set-up time is not
# scaled by the reference loop: it is mostly file reads and imports, and
# a loop run beside it tracked its speed worse than no scaling at all.
SETUP_CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import lagrangia
from lagrangia import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["lagrangian", "--colex", "3", "5", "--format", "json"])
elapsed = time.perf_counter() - start
print(json.dumps([code, lagrangia.__file__, elapsed]))
"""


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def measure_setup() -> list[float]:
    """Import-plus-first-call time of fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        code, module_file, elapsed = json.loads(proc.stdout.splitlines()[-1])
        if code != 0 or not Path(module_file).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up child exited {code} with lagrangia from {module_file}")
        times.append(elapsed)
    return times


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "lagrangia").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp() -> dict:
    import numpy

    from lagrangia import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.BACKEND,
        "nproc": os.cpu_count(),
        "parallelism": 1,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(workload) -> tuple[list, list[float], float]:
    """Every unit once, in order: outputs, per-unit seconds, scaled seconds."""
    outputs, seconds = [], []
    clock = ScaledClock()
    for i in range(len(workload.units)):
        start = time.perf_counter()
        try:
            out = workload.run_unit(i)
        except Exception as exc:  # the benchmark must report, not crash
            out = exc
        seconds.append(time.perf_counter() - start)
        outputs.append(out)
        clock.add(seconds[-1])
    clock.close()
    return outputs, seconds, clock.scaled_seconds


def run_untraced(workload, seconds: float, setup_times: list[float]):
    """Whole passes while the next is expected to fit in ``seconds``."""
    unit_seconds, pass_seconds, scaled_seconds, checked = [], [], [], []
    start = time.perf_counter()
    while True:
        outputs, times, scaled_pass = run_pass(workload)
        unit_seconds.append(times)
        pass_seconds.append(sum(times))
        scaled_seconds.append(scaled_pass)
        checked.append(workload.check(outputs))
        if time.perf_counter() - start + statistics.median(pass_seconds) > seconds:
            break
    problems = []
    if any(c.report != checked[0].report for c in checked):
        problems.append("a repeated pass produced a different report")
    items = checked[0].items
    scaled_wall = statistics.median(scaled_seconds)
    values = {
        "scaled_wall_s": scaled_wall,
        "scaled_items_per_s": items / scaled_wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = statistics.median(pass_seconds)
    notes = [
        f"items per pass: {items}  units: {len(unit_seconds[0])}",
        f"pass seconds: {[round(s, 3) for s in pass_seconds]}",
        f"scaled pass seconds: {[round(s, 3) for s in scaled_seconds]}",
        f"{'wall_s':44s} {wall:14.6g} s  (raw, not gated)",
        f"{'items_per_s':44s} {items / wall:14.6g} 1/s  (raw, not gated)",
    ]
    queries = [
        statistics.median(times[i] for times in unit_seconds)
        for i in getattr(workload, "query_units", ())
    ]
    if queries:
        # Printed, not gated: the pool is too small for stable percentiles.
        for name, value in (
            ("query_ms_p50", statistics.median(queries)),
            ("query_ms_p90", percentile(queries, 90)),
        ):
            notes.append(f"{name:44s} {1e3 * value:14.6g} ms  (n={len(queries)}, raw, not gated)")
    return values, checked, problems, notes


def run_traced(workload):
    """One untraced pass, then traced passes of the same inputs."""
    from tracer import Tracer

    start = time.perf_counter()
    outputs, _, untraced_scaled = run_pass(workload)
    checked = [workload.check(outputs)]
    tracers, traced, traced_scaled = [], [], []
    while len(tracers) < 2:
        tracer = Tracer()
        with tracer.installed():
            outputs, unit_seconds, scaled_pass = run_pass(workload)
        tracers.append(tracer)
        traced.append(sum(unit_seconds))
        traced_scaled.append(scaled_pass)
        checked.append(workload.check(outputs))
        # The run must end within 180 s: the repeat pass of a long
        # workload would not fit, so it is skipped.
        if time.perf_counter() - start + traced[-1] > TRACE_BUDGET_S:
            break
    problems = []
    if checked[1].report != checked[0].report:
        problems.append("traced report differs from the untraced report")
    notes = ["counters: " + json.dumps(tracers[0].counters(), sort_keys=True)]
    if len(tracers) < 2:
        notes.append(f"counts repeat: not checked, a third pass would pass {TRACE_BUDGET_S} s")
    elif tracers[1].counters() != tracers[0].counters():
        problems.append("per-layer counts differ between two traced passes")
    else:
        notes.append("counts repeat: yes")
    # Overhead compares scaled times: the passes ran at different moments.
    metrics = tracers[0].metrics(traced[0], traced_scaled[0] / untraced_scaled - 1.0)
    return metrics, checked, problems, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lagrangia" / "__init__.py").is_file():
        print(f"error: no lagrangia package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lagrangia

    if not Path(lagrangia.__file__).resolve().is_relative_to(SRC):
        print(f"error: lagrangia imported from {lagrangia.__file__}", file=sys.stderr)
        return 2
    from tracer import LAYER_METRICS
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print("stamp:", json.dumps(stamp(), sort_keys=True))
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")

    if args.trace:
        values, checked, problems, notes = run_traced(workload)
        units = dict(LAYER_METRICS)
    else:
        values, checked, problems, notes = run_untraced(workload, args.seconds, measure_setup())
        units = E2E_UNITS

    attempted = sum(c.items for c in checked)
    failed = sum(c.failed for c in checked)
    problems = [p for c in checked for p in c.problems] + problems
    for line in notes:
        print(line)
    for name, value in values.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':44s} {failed / attempted:14.6g} ({failed} of {attempted})")
    for problem in problems:
        print("oracle:", problem)
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
