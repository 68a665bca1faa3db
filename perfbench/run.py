"""rumorsim CLI benchmark.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Run from a checkout.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` reports its per-layer metrics from a
separate traced run.  Each run starts a fresh worker process (see
worker.py) with numpy, BLAS and OpenMP pinned to one thread.  With
``--trace 0`` it also times set-up in ten more fresh processes and reports
the median.  Timings in the end-to-end metrics are rescaled to a reference
host speed, which sampler.py measures while they run.  A human
readable table, which also gives the timings as measured, precedes the
result, the last line of standard output:

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

Everything the run writes goes under ``.perfbench_run/`` in the checkout:
the generated inputs and outputs are deleted at the end; the spans of the
last traced pass are kept in ``.perfbench_run/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import REFERENCE_LOOP_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
SETUP_PROBES = 10  # fresh processes timing set-up, besides the worker itself
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


class BenchmarkError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> str:
    """Run a worker to completion and return its standard output."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the {TIME_LIMIT_S:g} s limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = ROOT / ".perfbench_run"
    work = run_dir / f"{workload}-{seed}-{os.getpid()}"
    spans = run_dir / "spans" / f"{workload}-seed{seed}.json"
    common = ["--root", str(ROOT), "--work", str(work), "--workload", workload, "--seed", str(seed)]
    try:
        work.mkdir(parents=True)
        spans.parent.mkdir(exist_ok=True)
        result_path = work / "result.json"
        spawn(
            [*common, "--seconds", str(seconds), "--result", str(result_path)]
            + (["--trace", "--spans", str(spans)] if trace else []),
            deadline,
        )
        summary = json.loads(result_path.read_text())
        if not trace:
            setups = [summary["setup"]]
            setups += [json.loads(spawn([*common, "--probe-setup"], deadline)) for _ in range(SETUP_PROBES)]
            summary["metrics"]["setup_s"] = statistics.median(
                s["setup_cpu_s"] * REFERENCE_LOOP_S / s["loop_s"] for s in setups
            )
            summary["setup_as_measured_s"] = statistics.median(s["setup_s"] for s in setups)
            summary["setup_cpu_as_measured_s"] = statistics.median(s["setup_cpu_s"] for s in setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rumorsim CLI benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not (ROOT / "src" / "rumorsim" / "__init__.py").is_file():
        print(f"error: no rumorsim sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ValueError, BenchmarkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = summary["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: the worker did not report {missing}", file=sys.stderr)
        return 1

    attempted, failed = summary["attempted"], summary["failed"]
    kind = "per-layer, traced" if args.trace else "end-to-end"
    print(f"{args.workload} seed {args.seed} ({kind}): {summary['passes']} passes, "
          f"{attempted} calls, {failed} failed, error_rate {failed / attempted:.4g}")
    walls = sorted(summary["walls"])
    print(f"  untraced pass wall_s as measured: min {walls[0]:.4g}, median {statistics.median(walls):.4g}, "
          f"mean {statistics.fmean(walls):.4g}, max {walls[-1]:.4g} s")
    if not args.trace:
        print(f"  path_steps_per_s as measured: {metrics['path_steps_per_s']:.6g} 1/s; "
              f"set-up as measured: {summary['setup_as_measured_s']:.4g} s wall, "
              f"{summary['setup_cpu_as_measured_s']:.4g} s CPU; "
              f"speed loop {summary['loop_s'] * 1e3:.4g} ms over {summary['samples']} samples, "
              f"reference {REFERENCE_LOOP_S * 1e3:g} ms")
    for problem in summary["problems"]:
        print(f"  check failed: {problem}")
    for m in wanted:
        print(f"  {m['name']:34s} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
