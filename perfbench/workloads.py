"""Workload generator and output checks.

A workload is a list of CLI calls made from one seed.  The generator
derives every per-call seed and config file from that seed; the CLI sees
only the generated files and flags.  Each call knows which files it must
write and what they must hold, so a run can count a call as failed when
it exits nonzero or its outputs are wrong.

Workloads (a path-step is one run advanced one Euler-Maruyama step):

* ``sweep`` - ``ablate`` over the 3 x 6 (tau, R0) grid with 100 runs per
  cell: 3.6 M path-steps in 18 narrow batches, so per-step interpreter
  overhead and per-cell statistics dominate.
* ``wide_ensemble`` - one ``ensemble`` of 2000 runs at tau = 5 recorded
  every 10th step: 4.0 M path-steps in one batch, so noise generation,
  memory layout and the delay buffer dominate; the memory workload.
* ``reports`` - ``simulate``, ``ensemble`` and ``stability`` for each of 6
  seeds: 3.6 M path-steps including batch-1 integration, the stability
  lab and CSV/SVG writing in quantity.
"""

from __future__ import annotations

import csv
import hashlib
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sweep", "wide_ensemble", "reports")
DEFAULT_SEED = 0
DIGESTS_FILE = Path(__file__).with_name("digests.json")

STEP_SIZE = 0.1
HORIZON = 200.0
STEPS = 2000  # HORIZON / STEP_SIZE
TAUS = [0.0, 5.0, 10.0]
R0_VALUES = [0.5, 0.8, 1.0, 1.2, 1.5, 2.0]
COMPARTMENTS = ("S", "E", "I", "R", "Ig", "F")
SWEEP_COLUMNS = ("tau", "R0", "beta", "peak_mean", "peak_std", "final_mean", "final_std")
DEVIATION_COLUMNS = (
    "tau", "R0", "beta", "peak_mean", "final_mean", "ref_peak_mean", "ref_peak_std",
    "ref_final_mean", "ref_final_std", "peak_dev_rel", "final_dev_rel", "flag", "note",
)
TEXT_COLUMNS = ("note",)


@dataclass(frozen=True)
class Table:
    """An expected CSV: header columns and data-row count."""

    columns: tuple[str, ...]
    rows: int


@dataclass
class Call:
    """One CLI invocation and what it must write into ``out_dir``."""

    label: str
    argv: list[str]
    out_dir: Path
    path_steps: int
    tables: dict[str, Table]
    figures: tuple[str, ...]

    @property
    def expected_files(self) -> set[str]:
        return {"effective_config.json", *self.tables, *self.figures}


def derive_seed(seed: int, *labels) -> int:
    """A 31-bit seed that depends only on ``seed`` and ``labels``."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def make_call(work: Path, label: str, command: str, config: dict, runs: int = 1,
              steps: int = STEPS, stride: int = 1) -> Call:
    """Write ``config`` under ``work`` and describe ``command`` run on it.

    ``runs`` is the run count the config asks for (per cell for ``ablate``);
    ``steps`` and ``stride`` must match the config's integrator block.
    """
    cfg_path = work / "configs" / f"{label.replace('/', '_')}.json"
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(json.dumps(config, indent=2, sort_keys=True))
    out_dir = work / "out" / label
    argv = [command, "--config", str(cfg_path), "--out", str(out_dir), "--format", "both"]
    recorded = steps // stride + 1
    if command == "simulate":
        tables = {"trajectory.csv": Table(("t", *COMPARTMENTS), recorded)}
        figures = ("trajectory.svg",)
    elif command == "ensemble":
        tables = {
            "summary.csv": Table(
                ("t", *(f"{c}_{s}" for c in COMPARTMENTS for s in ("mean", "std", "lo", "hi"))),
                recorded,
            ),
            "metrics.csv": Table(("run", "peak_I", "peak_t", "final_size"), runs),
            "aggregate.csv": Table(("run_count", "peak_mean", "peak_std", "final_mean", "final_std"), 1),
        }
        figures = ("spreader_band.svg", "compartment_means.svg")
    elif command == "stability":
        tables = {
            "threshold.csv": Table(("R0", "stochastic_margin", "ms_condition_holds"), 1),
            "decay.csv": Table(("t", "ms_estimate"), recorded),
        }
        figures = ("decay.svg",)
    elif command == "ablate":
        cells = len(config["sweep"]["taus"]) * len(config["sweep"]["r0_values"])
        tables = {"sweep.csv": Table(SWEEP_COLUMNS, cells), "deviation.csv": Table(DEVIATION_COLUMNS, cells)}
        figures = ("sweep_final.svg", "sweep_peak.svg")
        runs *= cells
    else:
        raise ValueError(f"unknown subcommand {command!r}")
    return Call(label, argv, out_dir, runs * steps, tables, figures)


def build(workload: str, seed: int, work: Path) -> list[Call]:
    """The calls of ``workload`` for ``seed``, with configs under ``work``."""
    integrator = {"step_size": STEP_SIZE, "horizon": HORIZON}
    if workload == "sweep":
        config = {
            "integrator": integrator,
            "sweep": {"taus": TAUS, "r0_values": R0_VALUES, "run_count": 100,
                      "seed": derive_seed(seed, workload)},
        }
        return [make_call(work, "sweep", "ablate", config, runs=100)]
    if workload == "wide_ensemble":
        config = {
            "model": {"tau": 5.0},
            "integrator": {**integrator, "record_stride": 10},
            "ensemble": {"run_count": 2000, "seed": derive_seed(seed, workload)},
        }
        return [make_call(work, "wide", "ensemble", config, runs=2000, stride=10)]
    if workload == "reports":
        calls = []
        for i in range(6):
            config = {
                "integrator": integrator,
                "ensemble": {"run_count": 100, "seed": derive_seed(seed, workload, i)},
                "stability": {"run_count": 200},
            }
            calls += [
                make_call(work, f"r{i}/simulate", "simulate", config),
                make_call(work, f"r{i}/ensemble", "ensemble", config, runs=100),
                make_call(work, f"r{i}/stability", "stability", config, runs=200),
            ]
        return calls
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def read_table(path: Path) -> tuple[list[str], list[list[str]], dict[str, str]]:
    """Header, data rows and ``# key=value`` metadata of a rumorsim CSV."""
    meta, lines = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line:
            lines.append(line)
    rows = list(csv.reader(lines))
    return rows[0] if rows else [], rows[1:], meta


def check_call(call: Call, code: int, stdout: str, stderr: str) -> tuple[list[str], dict[str, str]]:
    """Problems with one finished call, and the SHA-256 of each CSV and SVG."""
    if code != 0:
        first = stderr.strip().splitlines()[:1]
        return [f"{call.label}: exit {code}: {first[0] if first else ''}"], {}
    listed = [Path(line) for line in stdout.splitlines() if line.strip()]
    names = {p.name for p in listed}
    problems = []
    if names != call.expected_files or any(p.parent != call.out_dir for p in listed):
        problems.append(f"{call.label}: listed {sorted(map(str, listed))}, expected {sorted(call.expected_files)}")
        return problems, {}
    digests = {}
    for name, table in call.tables.items():
        path = call.out_dir / name
        header, rows, _ = read_table(path)
        if tuple(header) != table.columns:
            problems.append(f"{call.label}/{name}: columns {header}")
        if len(rows) != table.rows:
            problems.append(f"{call.label}/{name}: {len(rows)} rows, expected {table.rows}")
        for row in rows:
            if len(row) != len(header):
                problems.append(f"{call.label}/{name}: ragged row {row}")
                break
            try:
                [float(v) for col, v in zip(header, row) if col not in TEXT_COLUMNS]
            except ValueError:
                problems.append(f"{call.label}/{name}: non-numeric row {row}")
                break
    for name in call.figures:
        try:
            root = ET.fromstring((call.out_dir / name).read_bytes())
        except ET.ParseError as exc:
            problems.append(f"{call.label}/{name}: not XML: {exc}")
            continue
        if not root.tag.endswith("svg"):
            problems.append(f"{call.label}/{name}: root element {root.tag}")
    for name in sorted((*call.tables, *call.figures)):
        digests[f"{call.label}/{name}"] = hashlib.sha256((call.out_dir / name).read_bytes()).hexdigest()
    if "decay.csv" in call.tables:
        problems += check_verdict(call)
    return problems, digests


def check_verdict(call: Call) -> list[str]:
    """The decay verdict must match the sign of the stochastic margin, and
    ``threshold.csv`` must agree with the margin ``decay.csv`` reports."""
    _, _, meta = read_table(call.out_dir / "decay.csv")
    _, rows, _ = read_table(call.out_dir / "threshold.csv")
    margin = float(meta.get("margin", "nan"))
    verdict = meta.get("verdict")
    problems = []
    expected = "decay" if margin > 0 else "growth" if margin < 0 else verdict
    if verdict != expected:
        problems.append(f"{call.label}: verdict {verdict} with margin {margin:g}")
    if rows and (float(rows[0][1]) != margin or rows[0][2] != ("1" if margin > 0 else "0")):
        problems.append(f"{call.label}: threshold.csv {rows[0]} disagrees with margin {margin:g}")
    return problems


def stored_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Digests recorded for ``workload`` on the default seed, else None."""
    if seed != DEFAULT_SEED or not DIGESTS_FILE.exists():
        return None
    return json.loads(DIGESTS_FILE.read_text()).get(workload)
