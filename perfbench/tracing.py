"""Spans around the public entry points of each rumorsim module.

The tracer replaces each entry point with a timing wrapper at every place
the function object is bound inside the ``rumorsim`` package (the CLI and
the sweep import most of them by name), and puts the originals back on
exit.  Nothing inside the package changes; the spans are recorded from
the benchmark's side of each call.

Spans are kept in memory (name, start, end, parent) and turned into
per-layer metrics after the run.  Self time is a span's duration minus the
durations of its direct children.  With ``track_memory`` each span also
records the tracemalloc peak above the level at its entry; tracemalloc
slows every allocation, so memory and time come from separate passes.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
import tracemalloc

MARKER = "__perfbench_wrapped__"

# layer -> (module, function) entry points; the model's drift kernel runs
# inside the step loop and is counted as integrator time
LAYERS = {
    "cli": [("rumorsim.cli", "main")],
    "config": [
        ("rumorsim.config", "load_config"),
        ("rumorsim.config", "default_config"),
        ("rumorsim.config", "apply_overrides"),
        ("rumorsim.config", "write_effective_config"),
    ],
    "rng": [("rumorsim.rng", "normal_block")],
    "integrator": [
        ("rumorsim.integrator", "simulate_paths"),
        ("rumorsim.integrator", "integrate"),
    ],
    "ensemble": [("rumorsim.ensemble", "run_ensemble")],
    "stability": [("rumorsim.stability", "simulate_linearized")],
    "ablation": [
        ("rumorsim.ablation", "run_sweep"),
        ("rumorsim.ablation", "load_reference"),
        ("rumorsim.ablation", "compare_to_reference"),
    ],
    "csv": [],  # every write_*_csv of CSV_MODULES, found at install time
    "svg": [("rumorsim.svg", "write_svg")],
}
CSV_MODULES = ("rumorsim.integrator", "rumorsim.ensemble", "rumorsim.stability", "rumorsim.ablation")

WRITERS = ("csv", "svg")  # layers whose output file size is counted


class Span:
    __slots__ = ("id", "parent", "layer", "func", "start", "end", "base", "peak", "error", "args", "out")

    def __init__(self, span_id, parent, layer, func, start, base):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.func = func
        self.start = start
        self.end = start
        self.base = base
        self.peak = base
        self.error = False
        self.args = None
        self.out = None

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": f"{self.layer}.{self.func}",
            "start_ns": self.start,
            "end_ns": self.end,
            "peak_alloc_bytes": self.peak - self.base,
            "error": self.error,
        }


def entry_points() -> list[tuple[str, str, str]]:
    """``(layer, module, function)`` for every entry point present now."""
    found = []
    for layer, names in LAYERS.items():
        for module, func in names:
            if hasattr(sys.modules.get(module), func):
                found.append((layer, module, func))
    for module in CSV_MODULES:
        for func in sorted(vars(sys.modules.get(module, object))):
            if func.startswith("write_") and func.endswith("_csv"):
                found.append(("csv", module, func))
    return found


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "rumorsim" or name.startswith("rumorsim."))
    ]


def wrapped_names() -> list[str]:
    """``module.attr`` of every tracer wrapper still bound in the package."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in _package_modules()
        for attr, value in vars(mod).items()
        if getattr(value, MARKER, False)
    ]


class Tracer:
    """Context manager: wraps the entry points, and runs tracemalloc if
    ``track_memory`` is set."""

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._signatures: dict[str, inspect.Signature] = {}

    def __enter__(self):
        modules = _package_modules()
        for layer, module, func in entry_points():
            original = getattr(sys.modules[module], func)
            self._signatures[func] = inspect.signature(original)
            wrapper = self._wrap(layer, func, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        if self.track_memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.track_memory:
            tracemalloc.stop()
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, layer, func_name, func):
        open_span, close_span = self._open, self._close

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = open_span(layer, func_name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                close_span(span)
            span.args = (args, kwargs)
            span.out = _output_size(layer, func_name, args, kwargs, result)
            return result

        setattr(wrapper, MARKER, True)
        return wrapper

    def _open(self, layer, func) -> Span:
        parent = self._stack[-1] if self._stack else None
        current = 0
        if self.track_memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        span = Span(len(self.spans), parent.id if parent else -1, layer, func, 0, current)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if self.track_memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, span.peak)

    def bound(self, span: Span) -> dict:
        args, kwargs = span.args
        bound = self._signatures[span.func].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments


def _output_size(layer, func, args, kwargs, result):
    """The part of a call's result a count needs, taken while it exists."""
    if layer in WRITERS:
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        return os.path.getsize(path)
    if func == "simulate_paths":
        return result[1].shape[:2]  # (runs, recorded rows)
    if func == "run_sweep":
        return len(result.cells)
    return None


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return [ns * 1e-9 for ns in own]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced workload pass lasting ``wall_s``."""
    spans = tracer.spans
    own = self_seconds(spans)
    self_s = dict.fromkeys(LAYERS, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    calls: dict[str, int] = {}
    for span, sec in zip(spans, own):
        self_s[span.layer] += sec
        errors[span.layer] += span.error
        layer_calls[span.layer] += 1
        calls[span.func] = calls.get(span.func, 0) + 1

    draws = path_steps = runs = rows_returned = rows_computed = 0
    stab_steps = cells = 0
    written = dict.fromkeys(WRITERS, 0)
    for span in spans:
        if span.error:
            continue
        if span.func == "normal_block":
            a = tracer.bound(span)
            draws += a["n_steps"] * a["n_components"]
        elif span.func == "simulate_paths":
            n_steps = tracer.bound(span)["cfg"].step_count
            n_runs, recorded = span.out
            runs += n_runs
            path_steps += n_runs * n_steps
            rows_returned += n_runs * recorded
            rows_computed += n_runs * (n_steps + 1)
        elif span.func == "simulate_linearized":
            a = tracer.bound(span)
            stab_steps += a["run_count"] * a["cfg"].step_count
        elif span.func == "run_sweep":
            cells += span.out
        if span.layer in written:
            written[span.layer] += span.out

    n_paths = calls.get("simulate_paths", 0)
    n_ensembles = calls.get("run_ensemble", 0)
    covered = sum(s.end - s.start for s in spans if s.parent < 0) * 1e-9
    m = {
        "rng.calls": calls.get("normal_block", 0),
        "rng.draws": draws,
        "rng.self_s": self_s["rng"],
        "rng.ns_per_draw": _ratio(self_s["rng"] * 1e9, draws),
        "integrator.path_steps": path_steps,
        "integrator.self_s": self_s["integrator"],
        "integrator.ns_per_path_step": _ratio(self_s["integrator"] * 1e9, path_steps),
        "integrator.runs_per_call": _ratio(runs, n_paths),
        "integrator.recorded_fraction": _ratio(rows_returned, rows_computed),
        "ensemble.calls": n_ensembles,
        "ensemble.self_s": self_s["ensemble"],
        "ensemble.summaries_written_ratio": _ratio(calls.get("write_summary_csv", 0), n_ensembles),
        "stability.calls": calls.get("simulate_linearized", 0),
        "stability.path_steps": stab_steps,
        "stability.self_s": self_s["stability"],
        "ablation.cells": cells,
        "ablation.self_s": self_s["ablation"],
        "csv.calls": layer_calls["csv"],
        "csv.bytes": written["csv"],
        "csv.self_s": self_s["csv"],
        "svg.calls": layer_calls["svg"],
        "svg.bytes": written["svg"],
        "svg.self_s": self_s["svg"],
        "config.self_s": self_s["config"],
        "cli.self_s": self_s["cli"],
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
    m["trace.untraced_s"] = wall_s - covered
    return m


def peak_alloc_mb(tracer: Tracer) -> dict[str, float]:
    """Largest tracemalloc peak above entry level of an integrator and of an
    ensemble span, from a pass traced with ``track_memory``."""
    peaks = {"integrator": 0, "ensemble": 0}
    for span in tracer.spans:
        if span.layer in peaks:
            peaks[span.layer] = max(peaks[span.layer], span.peak - span.base)
    return {f"{layer}.peak_alloc_mb": peak / 2**20 for layer, peak in peaks.items()}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over traced passes (counts repeat exactly)."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def _ratio(num, den) -> float:
    return num / den if den else 0.0
