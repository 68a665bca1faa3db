"""Record the SHA-256 of every CSV and SVG each workload writes on the
default seed into ``digests.json``.

    python3 perfbench/record_digests.py

The benchmark then fails any call on the default seed whose outputs differ
from these bytes.  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    work = ROOT / ".perfbench_run" / "digests"
    recorded = {}
    try:
        for name in workloads.WORKLOADS:
            calls = workloads.build(name, workloads.DEFAULT_SEED, work / name)
            cli, _ = worker.set_up(ROOT, calls)
            p = worker.run_pass(cli, calls, None)
            if p.failed:
                print("\n".join(p.problems), file=sys.stderr)
                return 1
            recorded[name] = p.digests
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.DIGESTS_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, recorded.values()))} digests to {workloads.DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
