"""Delay x reproduction-number sweeps and comparison against the bundled
reference statistics.

Each grid cell fixes the delay and derives the transmission rate from the
target reproduction number via ``beta = R0 * (gamma + rho) / N``, then
runs an independent ensemble.  The cells of one delay run as a single
batch with a per-run transmission rate.  Cell seeds are derived from
``(base_seed, tau_index, r0_index)`` so cells are statistically
independent and the whole sweep is reproducible from its spec.

Comparisons against the reference table are advisory: the reference fixes
only tau, R0, and beta, so its remaining generating parameters (noise
intensities, initial seeding, horizon) are assumptions here, and cells
outside the compatibility band are flagged with an explanation rather
than treated as failures.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .ensemble import OutbreakMetrics, _warn_if_unconverged
from .errors import ConfigFileError, GridMismatchError, NumericsError, RumorSimError
from .integrator import CSV_FLOAT_FORMAT, IntegratorConfig, stream_model
from .model import HistoryFunction, ModelParams, StateVector, default_initial_state
from .rng import derive_seed

__all__ = [
    "DeviationReport",
    "DeviationRow",
    "ReferenceCell",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "compare_to_reference",
    "filter_reference",
    "load_reference",
    "read_sweep_csv",
    "run_sweep",
    "write_deviation_csv",
    "write_sweep_csv",
]

_KEY_DECIMALS = 9


def _cell_key(tau: float, r0: float) -> tuple[float, float]:
    return (round(float(tau), _KEY_DECIMALS), round(float(r0), _KEY_DECIMALS))


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition plus the fixed parameter template for every cell."""

    taus: tuple[float, ...]
    r0_values: tuple[float, ...]
    run_count: int
    base_seed: int
    template: ModelParams
    integrator: IntegratorConfig = IntegratorConfig()
    initial_state: StateVector | None = None

    def __post_init__(self):
        if not self.taus or not self.r0_values:
            raise ValueError("sweep grid must be non-empty")
        if any(t < 0 for t in self.taus):
            raise ValueError("delays must be >= 0")
        if any(r <= 0 for r in self.r0_values):
            raise ValueError("R0 values must be > 0 (the derived beta must be positive)")
        if self.run_count < 1:
            raise ValueError(f"run_count must be >= 1, got {self.run_count}")

    def beta_for(self, r0: float) -> float:
        return r0 * self.template.removal_rate / self.template.population


@dataclass(frozen=True)
class SweepCell:
    tau: float
    r0: float
    beta: float
    peak_mean: float
    peak_std: float
    final_mean: float
    final_std: float


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[SweepCell, ...]
    run_count: int
    base_seed: int

    def cell(self, tau: float, r0: float) -> SweepCell:
        wanted = _cell_key(tau, r0)
        for c in self.cells:
            if _cell_key(c.tau, c.r0) == wanted:
                return c
        raise KeyError(f"no sweep cell at tau={tau}, R0={r0}")


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run one ensemble per grid cell; a pure function of the grid spec.

    The cells of one delay run as one batch that keeps each run's peak of
    ``I`` and terminal state; the statistics equal ``run_ensemble`` ones
    exactly.  Integrator errors are re-raised with the failing cell
    attached, and a non-finite state names the run's seed.
    """
    n, initial = spec.run_count, spec.initial_state
    cells = []
    for i, tau in enumerate(spec.taus):
        grid = [replace(spec.template, tau=tau, beta=spec.beta_for(r0)) for r0 in spec.r0_values]
        cell_seeds = [derive_seed(spec.base_seed, i, j) for j in range(len(grid))]
        seeds = [derive_seed(cell_seed, r) for cell_seed in cell_seeds for r in range(n)]
        start = initial if initial is not None else default_initial_state(grid[0])
        peak = np.full(len(seeds), -np.inf)
        try:
            terminal, _ = stream_model(
                grid[0],
                HistoryFunction.constant(start),
                spec.integrator,
                seeds,
                lambda row, x: np.maximum(peak, x[:, 2], out=peak),
                beta=np.repeat([params.beta for params in grid], n),
            )
        except ConfigFileError:
            raise  # carries a violation list, not a plain message
        except NumericsError as exc:
            j, r = divmod(exc.run, n)
            raise NumericsError(
                f"sweep cell (tau={tau:g}, R0={spec.r0_values[j]:g}): non-finite state at "
                f"step {exc.step} (t={exc.step * spec.integrator.step_size:g}) in run {r} "
                f"(seed {derive_seed(cell_seeds[j], r)})",
                step=exc.step,
                run=r,
            ) from exc
        except RumorSimError as exc:
            raise type(exc)(f"sweep cell (tau={tau:g}, R0={spec.r0_values[0]:g}): {exc}") from exc
        for j, (r0, params) in enumerate(zip(spec.r0_values, grid)):
            rows = slice(j * n, (j + 1) * n)
            _warn_if_unconverged(terminal[rows, 2], params.population)
            m = OutbreakMetrics(
                peak_values=peak[rows],
                peak_times=np.full(n, np.nan),  # not tracked by the sweep
                final_sizes=terminal[rows, 3] + terminal[rows, 5],
            )
            cells.append(
                SweepCell(
                    tau=float(tau),
                    r0=float(r0),
                    beta=params.beta,
                    peak_mean=m.peak_mean,
                    peak_std=m.peak_std,
                    final_mean=m.final_size_mean,
                    final_std=m.final_size_std,
                )
            )
    return SweepResult(cells=tuple(cells), run_count=spec.run_count, base_seed=spec.base_seed)


@dataclass(frozen=True)
class ReferenceCell:
    tau: float
    r0: float
    beta: float
    peak_mean: float
    peak_std: float
    final_mean: float
    final_std: float


def load_reference(path=None) -> tuple[ReferenceCell, ...]:
    """Load a reference table; defaults to the bundled 18-cell one."""
    if path is None:
        text = (
            resources.files("rumorsim.data").joinpath("table_reference.csv").read_text()
        )
    else:
        with open(path, "r") as fh:
            text = fh.read()
    rows = []
    reader = csv.DictReader(
        line for line in text.splitlines() if line and not line.startswith("#")
    )
    for record in reader:
        rows.append(ReferenceCell(**_statistics_columns(record, path or "bundled reference")))
    return tuple(rows)


def _statistics_columns(record: dict, source) -> dict:
    try:
        return {
            "tau": float(record["tau"]),
            "r0": float(record["R0"]),
            "beta": float(record["beta"]),
            "peak_mean": float(record["peak_mean"]),
            "peak_std": float(record["peak_std"]),
            "final_mean": float(record["final_mean"]),
            "final_std": float(record["final_std"]),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise RumorSimError(
            f"{source}: expected columns tau,R0,beta,peak_mean,peak_std,"
            f"final_mean,final_std ({exc!r})"
        ) from exc


def filter_reference(
    reference, taus, r0_values
) -> tuple[ReferenceCell, ...]:
    """Subset a reference table to a grid."""
    tau_keys = {round(float(t), _KEY_DECIMALS) for t in taus}
    r0_keys = {round(float(r), _KEY_DECIMALS) for r in r0_values}
    return tuple(
        c
        for c in reference
        if round(c.tau, _KEY_DECIMALS) in tau_keys and round(c.r0, _KEY_DECIMALS) in r0_keys
    )


@dataclass(frozen=True)
class DeviationRow:
    tau: float
    r0: float
    beta: float
    peak_mean: float
    final_mean: float
    ref_peak_mean: float
    ref_peak_std: float
    ref_final_mean: float
    ref_final_std: float
    peak_dev_rel: float
    final_dev_rel: float
    peak_flag: bool
    final_flag: bool
    note: str

    @property
    def flagged(self) -> bool:
        return self.peak_flag or self.final_flag


@dataclass(frozen=True)
class DeviationReport:
    rows: tuple[DeviationRow, ...]
    run_count: int

    @property
    def flagged_rows(self) -> tuple[DeviationRow, ...]:
        return tuple(r for r in self.rows if r.flagged)

    def row(self, tau: float, r0: float) -> DeviationRow:
        wanted = _cell_key(tau, r0)
        for r in self.rows:
            if _cell_key(r.tau, r.r0) == wanted:
                return r
        raise KeyError(f"no deviation row at tau={tau}, R0={r0}")


def compare_to_reference(result: SweepResult, reference) -> DeviationReport:
    """Per-cell relative deviations of the sweep means from a reference.

    A statistic is flagged when ``|mean - ref_mean|`` exceeds the loose
    compatibility band ``3 * ref_std / sqrt(run_count) + ref_std``; flags
    carry an explanation instead of failing, because the reference's
    hidden generating parameters make exact agreement impossible.
    Requires the reference to cover exactly the same (tau, R0) grid.
    """
    ref_by_key = {_cell_key(c.tau, c.r0): c for c in reference}
    result_keys = [_cell_key(c.tau, c.r0) for c in result.cells]
    missing = [k for k in result_keys if k not in ref_by_key]
    extra = [k for k in ref_by_key if k not in set(result_keys)]
    if missing or extra:
        raise GridMismatchError(
            f"sweep and reference grids differ: missing from reference {missing}, "
            f"absent from result {extra}"
        )
    scale = 1.0 / np.sqrt(result.run_count)
    rows = []
    for cell in result.cells:
        ref = ref_by_key[_cell_key(cell.tau, cell.r0)]
        peak_band = 3.0 * ref.peak_std * scale + ref.peak_std
        final_band = 3.0 * ref.final_std * scale + ref.final_std
        peak_delta = cell.peak_mean - ref.peak_mean
        final_delta = cell.final_mean - ref.final_mean
        peak_flag = abs(peak_delta) > peak_band
        final_flag = abs(final_delta) > final_band
        notes = []
        if peak_flag:
            notes.append(
                f"peak mean off reference by {peak_delta:+.3g} (band {peak_band:.3g})"
            )
        if final_flag:
            notes.append(
                f"final-size mean off reference by {final_delta:+.3g} (band {final_band:.3g})"
            )
        if notes:
            notes.append(
                "reference noise/seeding/horizon are undocumented assumptions; advisory only"
            )
        rows.append(
            DeviationRow(
                tau=cell.tau,
                r0=cell.r0,
                beta=cell.beta,
                peak_mean=cell.peak_mean,
                final_mean=cell.final_mean,
                ref_peak_mean=ref.peak_mean,
                ref_peak_std=ref.peak_std,
                ref_final_mean=ref.final_mean,
                ref_final_std=ref.final_std,
                peak_dev_rel=peak_delta / ref.peak_mean,
                final_dev_rel=final_delta / ref.final_mean,
                peak_flag=peak_flag,
                final_flag=final_flag,
                note="; ".join(notes),
            )
        )
    return DeviationReport(rows=tuple(rows), run_count=result.run_count)


def write_sweep_csv(result: SweepResult, path) -> None:
    """Mirror of the reference-table columns, one row per cell."""
    buf = io.StringIO()
    buf.write(f"# run_count={result.run_count}\n")
    buf.write(f"# base_seed={result.base_seed}\n")
    buf.write("tau,R0,beta,peak_mean,peak_std,final_mean,final_std\n")
    for c in result.cells:
        buf.write(
            ",".join(
                CSV_FLOAT_FORMAT % v
                for v in (c.tau, c.r0, c.beta, c.peak_mean, c.peak_std, c.final_mean, c.final_std)
            )
            + "\n"
        )
    with open(path, "w", newline="\n") as fh:
        fh.write(buf.getvalue())


def read_sweep_csv(path) -> SweepResult:
    """Read a sweep result written by :func:`write_sweep_csv`."""
    with open(path, "r") as fh:
        text = fh.read()
    run_count = None
    base_seed = 0
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# run_count="):
            run_count = int(line.split("=", 1)[1])
        elif line.startswith("# base_seed="):
            base_seed = int(line.split("=", 1)[1])
        elif line and not line.startswith("#"):
            data_lines.append(line)
    if run_count is None:
        raise RumorSimError(f"{path}: missing '# run_count=' metadata line")
    cells = [
        SweepCell(**_statistics_columns(record, path))
        for record in csv.DictReader(data_lines)
    ]
    return SweepResult(cells=tuple(cells), run_count=run_count, base_seed=base_seed)


def write_deviation_csv(report: DeviationReport, path) -> None:
    """Sweep columns plus reference values, relative deviations, and flags."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    buf.write(f"# run_count={report.run_count}\n")
    writer.writerow(
        [
            "tau",
            "R0",
            "beta",
            "peak_mean",
            "final_mean",
            "ref_peak_mean",
            "ref_peak_std",
            "ref_final_mean",
            "ref_final_std",
            "peak_dev_rel",
            "final_dev_rel",
            "flag",
            "note",
        ]
    )
    for r in report.rows:
        writer.writerow(
            [
                CSV_FLOAT_FORMAT % r.tau,
                CSV_FLOAT_FORMAT % r.r0,
                CSV_FLOAT_FORMAT % r.beta,
                CSV_FLOAT_FORMAT % r.peak_mean,
                CSV_FLOAT_FORMAT % r.final_mean,
                CSV_FLOAT_FORMAT % r.ref_peak_mean,
                CSV_FLOAT_FORMAT % r.ref_peak_std,
                CSV_FLOAT_FORMAT % r.ref_final_mean,
                CSV_FLOAT_FORMAT % r.ref_final_std,
                CSV_FLOAT_FORMAT % r.peak_dev_rel,
                CSV_FLOAT_FORMAT % r.final_dev_rel,
                "1" if r.flagged else "0",
                r.note,
            ]
        )
    with open(path, "w", newline="\n") as fh:
        fh.write(buf.getvalue())
