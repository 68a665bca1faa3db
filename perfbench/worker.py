"""One benchmark run in a fresh process, so that peak RSS and set-up time
belong to that run alone.

The worker builds the workload's inputs, imports rumorsim from the
checkout's ``src`` and resolves the first config (that is the set-up time
every CLI invocation pays), then repeats the workload through
``rumorsim.cli.main`` until ``--seconds`` have passed.  Each pass's calls
are timed, their outputs checked and then deleted.

Untraced runs report the end-to-end metrics.  The host is shared, and the
same code runs up to 1.5 times slower at some moments than at others, in
spells of a fraction of a second to minutes.  So during untraced runs the
worker is pinned to one CPU, ``sampler.py`` times a fixed loop on that CPU
ten times a second, and each pass's wall time is also reported rescaled
to the loop's reference speed.

Traced runs make one pass under tracemalloc for the memory metrics, then
alternate untraced and traced passes and report the per-layer metrics of
the traced ones; the difference of the two means is the tracing overhead.

``--probe-setup`` stops after set-up and prints the set-up's wall and CPU
seconds, with the loop time sampled right after it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

# about the CPU seconds of sampler.py's loop on the 2-vCPU host the
# baselines were recorded on; it sets the scale of the rescaled timings
REFERENCE_LOOP_S = 0.001


@dataclass
class Pass:
    """One run through every call of a workload."""

    start: float = 0.0  # time.monotonic() at the start and end of the pass
    end: float = 0.0
    wall_s: float = 0.0  # summed over the calls; checks are not timed
    path_steps: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


def run_call(cli, call: workloads.Call) -> tuple[float, int, str, str]:
    """``(seconds, exit code, stdout, stderr)`` of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call.argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed call, not a failed benchmark
        code = 1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_pass(cli, calls: list[workloads.Call], reference: dict[str, str] | None) -> Pass:
    """Time and check every call once.  With ``reference``, each CSV and SVG
    must also match its recorded SHA-256."""
    result = Pass(start=time.monotonic())
    for call in calls:
        seconds, code, out, err = run_call(cli, call)
        problems, digests = workloads.check_call(call, code, out, err)
        if not problems and reference is not None:
            wanted = {k: v for k, v in reference.items() if k.startswith(call.label + "/")}
            problems = [
                f"{name}: SHA-256 differs from the recorded one"
                for name in sorted(wanted.keys() | digests.keys())
                if wanted.get(name) != digests.get(name)
            ]
        result.wall_s += seconds
        result.attempted += 1
        if problems:
            result.failed += 1
            result.problems += problems
        else:
            result.path_steps += call.path_steps
        result.digests.update(digests)
    for call in calls:
        shutil.rmtree(call.out_dir, ignore_errors=True)
    result.end = time.monotonic()
    return result


class SpeedSampler:
    """Pins this process and a ``sampler.py`` process to one CPU for the
    duration of a ``with`` block, and collects the sampler's loop times."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def __enter__(self):
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._proc = subprocess.Popen(  # inherits the pin
            [sys.executable, str(Path(__file__).with_name("sampler.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        # wait out its imports, so that they do not slow the first pass
        if self._proc.stdout.readline() != "ready\n":
            self.__exit__()
            raise RuntimeError("sampler.py did not start")
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._proc.communicate(timeout=10)  # closing stdin stops it
        except subprocess.TimeoutExpired:
            self._proc.kill()
            out, _ = self._proc.communicate()
        os.sched_setaffinity(0, self._affinity)
        self.samples = [(float(t), float(c)) for t, c in (line.split() for line in out.splitlines())]
        return False

    def loop_seconds(self, start: float, end: float) -> float:
        """Mean loop time sampled between ``start`` and ``end``, or the
        sample nearest to that span if none fell inside it."""
        inside = [c for t, c in self.samples if start <= t <= end]
        if inside:
            return statistics.fmean(inside)
        return min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]


def loop_seconds_here(samples: int = 50) -> float:
    """Mean CPU seconds of ``sampler.py``'s loop, timed in this process."""
    from sampler import loop_cpu_seconds  # imports numpy: not before set-up

    return statistics.fmean(loop_cpu_seconds() for _ in range(samples))


def set_up(root: Path, calls: list[workloads.Call]):
    """Import rumorsim from ``root/src`` and resolve the first config;
    returns the CLI module and the wall and CPU seconds taken."""
    start, cpu_start = time.perf_counter(), time.process_time()
    sys.path.insert(0, str(root / "src"))
    import rumorsim.cli
    from rumorsim.config import load_config

    load_config(calls[0].argv[calls[0].argv.index("--config") + 1])
    seconds = {"setup_s": time.perf_counter() - start, "setup_cpu_s": time.process_time() - cpu_start}
    src = (root / "src").resolve()
    if src not in Path(rumorsim.__file__).resolve().parents:
        raise RuntimeError(f"imported rumorsim from {rumorsim.__file__}, not from {src}")
    return rumorsim.cli, seconds


def measure(cli, calls, seconds: float, trace: bool, reference, spans_path: Path | None = None) -> dict:
    """Repeat the workload for ``seconds``; returns the run's summary.

    With ``trace``, one pass under tracemalloc comes first for the memory
    metrics, then each untraced pass is followed by a traced one.
    """
    passes: list[Pass] = []
    untraced: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict] = []

    def traced_pass(track_memory: bool) -> tracing.Tracer:
        with tracing.Tracer(track_memory) as tracer:
            p = run_pass(cli, calls, reference)
        passes.append(p)
        return tracer

    deadline = time.perf_counter() + seconds
    if trace:
        peaks = tracing.peak_alloc_mb(traced_pass(track_memory=True))
        reference = reference or passes[0].digests
    with contextlib.nullcontext() if trace else SpeedSampler() as sampler:
        while not untraced or time.perf_counter() < deadline:
            untraced.append(run_pass(cli, calls, reference))
            passes.append(untraced[-1])
            reference = reference or untraced[0].digests  # later passes must reproduce the first
            if trace:
                tracer = traced_pass(track_memory=False)
                traced.append(passes[-1])
                layers.append(tracing.layer_metrics(tracer, traced[-1].wall_s))
                if spans_path is not None:
                    spans_path.write_text(json.dumps([s.as_dict() for s in tracer.spans]))

    # means, not medians: a median of passes jumps between the host's fast
    # and slow spells, while the mean weights them by their length
    walls = [p.wall_s for p in untraced]
    summary = {
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": [msg for p in passes for msg in p.problems][:20],
        "walls": walls,
    }
    if trace:
        metrics = {**tracing.median_metrics(layers), **peaks}
        metrics["trace.overhead_s"] = statistics.fmean(p.wall_s for p in traced) - statistics.fmean(walls)
    else:
        ref_walls = [
            p.wall_s * REFERENCE_LOOP_S / sampler.loop_seconds(p.start, p.end) for p in untraced
        ]
        steps = sum(p.path_steps for p in untraced)
        metrics = {
            "wall_s": statistics.fmean(walls),
            "path_steps_per_s": steps / sum(walls),
            "wall_ref_s": statistics.fmean(ref_walls),
            "path_steps_per_ref_s": steps / sum(ref_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        summary["loop_s"] = statistics.fmean(c for _, c in sampler.samples)
        summary["samples"] = len(sampler.samples)
    summary["metrics"] = metrics
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True, help="checkout holding src/rumorsim")
    parser.add_argument("--work", type=Path, required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe-setup", action="store_true")
    parser.add_argument("--result", type=Path, help="where to write the run's JSON summary")
    parser.add_argument("--spans", type=Path, help="where to write the last traced pass's spans")
    args = parser.parse_args(argv)

    calls = workloads.build(args.workload, args.seed, args.work)
    cli, setup = set_up(args.root, calls)
    setup["loop_s"] = loop_seconds_here()
    if args.probe_setup:
        print(json.dumps(setup))
        return 0
    summary = measure(
        cli, calls, args.seconds, args.trace,
        workloads.stored_digests(args.workload, args.seed), args.spans,
    )
    summary["setup"] = setup
    args.result.write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
