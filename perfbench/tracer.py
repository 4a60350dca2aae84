"""Per-layer tracing from outside the program.

The tracer replaces the functions at each module boundary of
``lagrangia`` with timing wrappers, in the namespace where the caller
looks them up, and restores the originals afterwards. Nothing under
``src/`` changes. Each wrapped call is a span; a span's self time is its
duration minus the time covered by the wrapped calls it made. Spans are
aggregated as they close (calls, self time, counters) rather than kept.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

# (module holding the name, attribute, layer name). A function imported
# into several modules is patched in each, under one layer name.
PATCH_POINTS = (
    ("lagrangia._kernels", "ascent_loop", "kernels.ascent_loop"),
    ("lagrangia.lagrangian", "ascend", "lagrangian.ascend"),
    ("lagrangia.lagrangian", "ascend_multistart", "lagrangian.ascend_multistart"),
    ("lagrangia.lagrangian", "_pg_polish", "lagrangian.pg_polish"),
    ("lagrangia.lagrangian", "minimize_support", "lagrangian.minimize_support"),
    ("lagrangia.lagrangian", "certify", "lagrangian.certify"),
    ("lagrangia.lagrangian", "lagrangian", "lagrangian.lagrangian"),
    ("lagrangia.theorems", "lagrangian", "lagrangian.lagrangian"),
    ("lagrangia.lagrangian", "clique_number", "structure.clique_number"),
    ("lagrangia.structure", "clique_number", "structure.clique_number"),
    ("lagrangia.theorems", "clique_number", "structure.clique_number"),
    ("lagrangia.lagrangian", "maximum_cliques", "structure.maximum_cliques"),
    ("lagrangia.structure", "maximum_cliques", "structure.maximum_cliques"),
    ("lagrangia.structure", "contains_clique", "structure.contains_clique"),
    ("lagrangia.theorems", "contains_clique", "structure.contains_clique"),
    ("lagrangia.structure", "enumerate_left_compressed", "structure.enumerate"),
    ("lagrangia.theorems", "enumerate_left_compressed", "structure.enumerate"),
    ("lagrangia.theorems", "lemmaeq_dichotomy_audit", "theorems.verify"),
    ("lagrangia.theorems", "verify_pz18", "theorems.verify"),
    ("lagrangia.theorems", "verify_colex_plateau", "theorems.verify"),
)

# Layers whose spans are generators: time is spent on each ``next``.
GENERATORS = {"structure.enumerate"}

# Every per-layer metric the traced run reports, in output order, with unit.
LAYER_METRICS = (
    ("kernels.ascent_loop.calls", "count"),
    ("kernels.ascent_loop.iters", "count"),
    ("kernels.ascent_loop.self_s", "s"),
    ("kernels.ascent_loop.us_per_iter", "us"),
    ("lagrangian.ascend.calls", "count"),
    ("lagrangian.ascend.self_s", "s"),
    ("lagrangian.ascend_multistart.calls", "count"),
    ("lagrangian.ascend_multistart.starts", "count"),
    ("lagrangian.ascend_multistart.self_s", "s"),
    ("lagrangian.pg_polish.calls", "count"),
    ("lagrangian.pg_polish.self_s", "s"),
    ("lagrangian.pg_polish.per_ascend", "ratio"),
    ("lagrangian.minimize_support.calls", "count"),
    ("lagrangian.minimize_support.self_s", "s"),
    ("lagrangian.minimize_support.ascend_calls", "count"),
    ("lagrangian.minimize_support.support_drops", "count"),
    ("lagrangian.minimize_support.useful_frac", "ratio"),
    ("lagrangian.certify.calls", "count"),
    ("lagrangian.certify.self_s", "s"),
    ("lagrangian.lagrangian.calls", "count"),
    ("lagrangian.lagrangian.self_s", "s"),
    ("lagrangian.lagrangian.closed_form_frac", "ratio"),
    ("structure.enumerate.calls", "count"),
    ("structure.enumerate.graphs", "count"),
    ("structure.enumerate.self_s", "s"),
    ("structure.contains_clique.calls", "count"),
    ("structure.contains_clique.self_s", "s"),
    ("structure.clique_number.calls", "count"),
    ("structure.clique_number.self_s", "s"),
    ("structure.maximum_cliques.calls", "count"),
    ("structure.maximum_cliques.self_s", "s"),
    ("theorems.verify.self_s", "s"),
    ("theorems.to_json.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)


class Tracer:
    """Aggregates spans by layer: calls, self time and layer counters."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        # One [layer, child seconds] frame per open span.
        self._stack: list[list] = []

    def _open(self, layer: str) -> list:
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        self.self_s[frame[0]] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def wrap(self, layer: str, fn):
        if layer in GENERATORS:
            return self._wrap_generator(layer, fn)
        observe = _OBSERVERS.get(layer)

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            self.calls[layer] += 1
            frame = self._open(layer)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame, time.perf_counter() - start)
            if observe is not None:
                observe(self, parent, args, out)
            return out

        return traced

    def _wrap_generator(self, layer: str, fn):
        def traced(*args, **kwargs):
            self.calls[layer] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = self._open(layer)
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(frame, time.perf_counter() - start)
                self.counts[f"{layer}.graphs"] += 1
                yield item

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block."""
        saved = []
        try:
            for module_name, attr, layer in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, original))
            report_cls = importlib.import_module("lagrangia.theorems").TheoremReport
            original = report_cls.to_json
            saved.append((report_cls, "to_json", original))
            report_cls.to_json = self.wrap("theorems.to_json", original)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def counters(self) -> dict[str, int]:
        """Every count the trace makes; these repeat exactly for a fixed seed."""
        out = {f"{layer}.calls": n for layer, n in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def metrics(self, traced_s: float, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics for one traced pass of ``traced_s`` seconds."""
        calls, counts, self_s = self.calls, self.counts, self.self_s
        iters = counts["kernels.ascent_loop.iters"]
        ascends = calls["lagrangian.ascend"]
        shrink_calls = calls["lagrangian.minimize_support"]
        lagrangians = calls["lagrangian.lagrangian"]
        values: dict[str, float] = {}
        for name, _unit in LAYER_METRICS:
            layer, _, field = name.rpartition(".")
            if field == "calls":
                values[name] = calls[layer]
            elif field == "self_s":
                values[name] = self_s[layer]
            else:
                values[name] = counts[name]
        values["kernels.ascent_loop.us_per_iter"] = (
            1e6 * self_s["kernels.ascent_loop"] / iters if iters else 0.0
        )
        values["lagrangian.pg_polish.per_ascend"] = (
            calls["lagrangian.pg_polish"] / ascends if ascends else 0.0
        )
        values["lagrangian.minimize_support.useful_frac"] = (
            counts["lagrangian.minimize_support.shrank"] / shrink_calls if shrink_calls else 0.0
        )
        values["lagrangian.lagrangian.closed_form_frac"] = (
            counts["lagrangian.lagrangian.closed_form"] / lagrangians if lagrangians else 0.0
        )
        values["trace.overhead_frac"] = overhead_frac
        values["trace.unattributed_frac"] = 1.0 - sum(self_s.values()) / traced_s
        return values


def _observe_ascent_loop(tracer: Tracer, parent, args, out) -> None:
    tracer.counts["kernels.ascent_loop.iters"] += int(out[2])


def _observe_ascend(tracer: Tracer, parent, args, out) -> None:
    if parent == "lagrangian.ascend_multistart":
        tracer.counts["lagrangian.ascend_multistart.starts"] += 1
    elif parent == "lagrangian.minimize_support":
        tracer.counts["lagrangian.minimize_support.ascend_calls"] += 1


def _observe_minimize_support(tracer: Tracer, parent, args, out) -> None:
    drops = len(args[1].support) - len(out.support)
    tracer.counts["lagrangian.minimize_support.support_drops"] += drops
    tracer.counts["lagrangian.minimize_support.shrank"] += drops > 0


def _observe_lagrangian(tracer: Tracer, parent, args, out) -> None:
    tracer.counts["lagrangian.lagrangian.closed_form"] += out.method == "closed-form"


_OBSERVERS = {
    "kernels.ascent_loop": _observe_ascent_loop,
    "lagrangian.ascend": _observe_ascend,
    "lagrangian.minimize_support": _observe_minimize_support,
    "lagrangian.lagrangian": _observe_lagrangian,
}
