"""Sample the speed of one CPU while a benchmark run uses it.

    python3 perfbench/sampler.py

worker.py starts it after pinning itself to one CPU, so the sampler runs
on that CPU too.  Once its imports are done it prints ``ready``.  It then
times a fixed loop in CPU seconds (so being preempted does not count) at
once and then every ``PERIOD_S`` seconds.  When its standard input is
closed it prints one ``<time.monotonic()> <cpu seconds>`` line per sample
and exits.

The host is shared: the same code runs up to 1.5 times slower at some
moments than at others.  The worker runs on the same CPU, so these samples
show how fast that CPU was during each of its passes.
"""

from __future__ import annotations

import select
import sys
import time

import numpy as np

PERIOD_S = 0.1


def loop_cpu_seconds() -> float:
    """CPU seconds for a fixed mix of interpreter work and small-array
    numpy calls, the two things the rumorsim step loop spends its time on."""
    start = time.process_time()
    total = 0
    for i in range(5_000):
        total += i * i
    x = np.ones((100, 6))
    for _ in range(150):
        x = x + 1e-9 * x * x
    return time.process_time() - start


def main() -> int:
    print("ready", flush=True)
    samples = []
    while True:
        samples.append(f"{time.monotonic()!r} {loop_cpu_seconds()!r}")
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    print("\n".join(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
