"""Print every metric of every workload, then check the traced split.

    python3 perfbench/report.py [--seed 0] [--seconds 25]

For each workload this runs ``run.py`` untraced (end-to-end metrics), then
traced (per-layer metrics), and prints both tables.  It then compares each
workload's traced split, the share of traced wall time spent in each
layer's own code, with the predictions in ``expectations.json``, and exits
1 if a run failed, a check failed or a prediction does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    print(proc.stdout.rsplit("\n", 2)[0] if proc.returncode == 0 else proc.stderr, flush=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def shares(metrics: dict) -> dict[str, float]:
    """Each layer's self time as a share of the traced wall time."""
    self_s = {layer: metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS}
    wall = sum(self_s.values()) + metrics["trace.untraced_s"]["value"]
    return {layer: sec / wall for layer, sec in self_s.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)

    ok = True
    split = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run(workload, args.seed, args.seconds, trace)
            ok = ok and result is not None and result["correct"]
            if trace and result is not None:
                split[workload] = shares(result["metrics"])

    print("traced split (share of traced wall time):")
    for workload, share in split.items():
        print(f"  {workload:14s} " + "  ".join(f"{layer} {s:.1%}" for layer, s in share.items()))
    expectations = json.loads((HERE / "expectations.json").read_text())
    for rule in expectations["shape"]:
        if rule["workload"] not in split:
            continue
        share = sum(split[rule["workload"]][layer] for layer in rule["layers"])
        holds = share >= rule["at_least"] if "at_least" in rule else share < rule["below"]
        limit = f">= {rule['at_least']:.0%}" if "at_least" in rule else f"< {rule['below']:.0%}"
        print(f"  {'holds' if holds else 'DISAGREES':9s} {rule['workload']}: "
              f"{' + '.join(rule['layers'])} = {share:.1%}, predicted {limit}")
        ok = ok and holds
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
