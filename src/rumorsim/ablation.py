"""Delay x reproduction-number sweeps and comparison against the bundled
reference statistics.

Each grid cell fixes the delay and derives the transmission rate from the
target reproduction number via ``beta = R0 * (gamma + rho) / N``, then
runs an independent ensemble.  The whole grid runs as a single batch
of ``(params, runs)`` cells, the runs of each delay forming one group
of the integrator's delay ring.  Cell seeds are derived from
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
import itertools
import math
import sys
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .ensemble import _run_spread, _warn_if_unconverged
from .errors import ConfigurationError, GridMismatchError, NumericsError, RumorSimError
from .integrator import KEY_DECIMALS, IntegratorConfig, cell_key, check_memory, stream_model, write_table
from .integrator import sweep_violations
from .model import (
    NONNEGATIVE, SWEEP_RULES, HistoryFunction, ModelParams, StateVector, check, default_initial_state, store_checked,
)
from .rng import derive_seed

__all__ = [
    "DeviationReport",
    "DeviationRow",
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


def _at_cell(items, tau: float, r0: float, what: str):
    """The item of ``items`` at the (tau, R0) cell."""
    wanted = cell_key(tau, r0)
    for item in items:
        if cell_key(item.tau, item.r0) == wanted:
            return item
    raise KeyError(f"no {what} at tau={tau}, R0={r0}")


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
        store_checked(self, "sweep", SWEEP_RULES, **{name: getattr(self, name) for name in SWEEP_RULES})
        errors = sweep_violations(self.taus, self.r0_values, self.integrator.step_size)
        if errors:
            raise ConfigurationError(errors)

    def beta_for(self, r0: float) -> float:
        return r0 * self.template.removal_rate / self.template.population


@dataclass(frozen=True)
class SweepCell:
    """The statistics of one (tau, R0) cell, of a sweep or of a reference
    table."""

    tau: float
    r0: float
    beta: float
    peak_mean: float
    peak_std: float
    final_mean: float
    final_std: float


_FIELDS = [f.name for f in fields(SweepCell)]
_COLUMNS = ["R0" if name == "r0" else name for name in _FIELDS]  # of a sweep or reference table


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[SweepCell, ...]
    run_count: int
    base_seed: int

    def cell(self, tau: float, r0: float) -> SweepCell:
        return _at_cell(self.cells, tau, r0, "sweep cell")


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run one ensemble per grid cell; a pure function of the grid spec.

    All cells run as one batch of ``(params, runs)`` cells in grid order,
    the cells of each delay one group of runs with its own delay ring in
    the kernel, and the batch keeps each run's peak of ``I`` and terminal
    state; the statistics equal ``run_ensemble`` ones exactly.  A derived
    ``beta`` beyond the float range is reported with its cell.  A
    non-finite state names the cell, the run and its seed; of several
    failing runs, the one at the earliest step across the grid is
    reported, the first in grid order on a tie.
    """
    n, cfg = spec.run_count, spec.integrator
    taus, r0s = spec.taus, spec.r0_values
    grid, cells = list(itertools.product(taus, r0s)), []
    for tau, r0 in grid:
        try:
            cells.append((replace(spec.template, tau=tau, beta=spec.beta_for(r0)), n))
        except ConfigurationError as exc:
            raise ConfigurationError(f"sweep cell (tau={tau:g}, R0={r0:g}): {exc}") from exc
    check_memory(cfg, cells, 6, 0)  # the kernel's buffers and block; a peak per run adds little
    cell_seeds = [derive_seed(spec.base_seed, i, j) for i in range(len(taus)) for j in range(len(r0s))]
    seeds = [derive_seed(cell_seed, r) for cell_seed in cell_seeds for r in range(n)]
    start = spec.initial_state or default_initial_state(spec.template)
    peak = np.full(len(seeds), -np.inf)

    def reduce(first, recorded):
        np.maximum(peak, np.maximum.reduce(recorded[:, 2]), out=peak)

    try:
        terminal, _ = stream_model(cells, HistoryFunction.constant(start), cfg, seeds, reduce)
    except NumericsError as exc:
        c, r = divmod(exc.run, n)
        raise NumericsError(
            f"sweep cell (tau={grid[c][0]:g}, R0={grid[c][1]:g}): non-finite state at "
            f"step {exc.step} (t={exc.step * cfg.step_size:g}) in run {r} "
            f"(seed {seeds[exc.run]})",
            step=exc.step,
            run=r,
        ) from exc
    results = []
    for c, ((tau, r0), (p, _)) in enumerate(zip(grid, cells)):
        rows = slice(c * n, (c + 1) * n)
        _warn_if_unconverged(terminal[2, rows], p.population, f"sweep cell (tau={tau:g}, R0={r0:g}): ")
        peaks, finals = peak[rows], terminal[3, rows] + terminal[5, rows]
        results.append(SweepCell(
            tau=tau, r0=r0, beta=p.beta, peak_mean=float(peaks.mean()), peak_std=_run_spread(peaks),
            final_mean=float(finals.mean()), final_std=_run_spread(finals),
        ))
    return SweepResult(cells=tuple(results), run_count=spec.run_count, base_seed=spec.base_seed)


def load_reference(path=None) -> tuple[SweepCell, ...]:
    """Load a reference table; defaults to the bundled 18-cell one.  Each
    value of a cell must be a finite number >= 0."""
    source = resources.files("rumorsim.data").joinpath("table_reference.csv") if path is None else Path(path)
    name = path or "bundled reference"
    cells, rules = _read_cells(source, name)[1], dict.fromkeys(_COLUMNS, NONNEGATIVE)
    for cell in cells:
        check(f"{name}: cell (tau={cell.tau:g}, R0={cell.r0:g})", rules, **dict(zip(_COLUMNS, vars(cell).values())))
    return cells


def _read_cells(source, name) -> tuple[dict, tuple[SweepCell, ...]]:
    """The ``# key=value`` lines and the cells of a sweep or reference
    table in the format of :func:`~rumorsim.integrator.write_table`."""
    try:
        lines = source.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise RumorSimError(f"{name}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except (OSError, ValueError) as exc:
        # a path with a NUL byte raises ValueError: it names no file
        raise RumorSimError(f"cannot read {name}: {exc}") from exc
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# ") and "=" in line)
    try:
        records = list(csv.DictReader(line for line in lines if line and not line.startswith("#")))
        cells = tuple(SweepCell(*(float(r[column]) for column in _COLUMNS)) for r in records)
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        raise RumorSimError(f"{name}: expected columns {','.join(_COLUMNS)} ({exc!r})") from exc
    if len({cell_key(c.tau, c.r0) for c in cells}) < len(cells):
        raise RumorSimError(f"{name}: lists a (tau, R0) cell more than once, to {KEY_DECIMALS} decimals")
    return meta, cells


def filter_reference(reference, taus, r0_values) -> tuple[SweepCell, ...]:
    """Subset a reference table to a grid."""
    # by axis: the product of a table's delays and R0 values can be huge
    tau_keys = {cell_key(tau, 0.0)[0] for tau in taus}
    r0_keys = {cell_key(0.0, r0)[1] for r0 in r0_values}
    keyed = [(c, *cell_key(c.tau, c.r0)) for c in reference]
    return tuple(c for c, tau, r0 in keyed if tau in tau_keys and r0 in r0_keys)


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
        return _at_cell(self.rows, tau, r0, "deviation row")


def compare_to_reference(result: SweepResult, reference) -> DeviationReport:
    """Per-cell relative deviations of the sweep means from a reference.

    A statistic is flagged when ``|mean - ref_mean|`` exceeds the loose
    compatibility band ``3 * ref_std / sqrt(run_count) + ref_std``; flags
    carry an explanation instead of failing, because the reference's
    hidden generating parameters make exact agreement impossible.
    Requires the reference to cover exactly the same (tau, R0) grid.
    """
    ref_by_key = {cell_key(c.tau, c.r0): c for c in reference}
    result_keys = dict.fromkeys(cell_key(c.tau, c.r0) for c in result.cells)  # ordered, O(1) lookups
    missing = [k for k in result_keys if k not in ref_by_key]
    extra = [k for k in ref_by_key if k not in result_keys]
    if missing or extra:
        raise GridMismatchError(
            f"sweep and reference grids differ: missing from reference {missing}, "
            f"absent from result {extra}"
        )
    scale = 1.0 / math.sqrt(result.run_count)
    rows = []
    for cell in result.cells:
        ref = ref_by_key[cell_key(cell.tau, cell.r0)]
        stats, notes = {}, []
        for stat, what in (("peak", "peak mean"), ("final", "final-size mean")):
            mean = getattr(cell, f"{stat}_mean")
            ref_mean, ref_std = getattr(ref, f"{stat}_mean"), getattr(ref, f"{stat}_std")
            band = 3.0 * ref_std * scale + ref_std
            delta = mean - ref_mean
            with np.errstate(all="ignore"):  # inf, -inf or nan at a zero reference mean
                dev_rel = np.float64(delta) / ref_mean
            flag = abs(delta) > band
            if flag:
                notes.append(f"{what} off reference by {delta:+.3g} (band {band:.3g})")
            stats |= {
                f"{stat}_mean": mean, f"ref_{stat}_mean": ref_mean, f"ref_{stat}_std": ref_std,
                f"{stat}_dev_rel": dev_rel, f"{stat}_flag": flag,
            }
        if notes:
            notes.append("reference noise/seeding/horizon are undocumented assumptions; advisory only")
        rows.append(DeviationRow(tau=cell.tau, r0=cell.r0, beta=cell.beta, note="; ".join(notes), **stats))
    return DeviationReport(rows=tuple(rows), run_count=result.run_count)


def write_sweep_csv(result: SweepResult, path) -> None:
    """Mirror of the reference-table columns, one row per cell."""
    write_table(
        path,
        _COLUMNS,
        [[getattr(c, name) for c in result.cells] for name in _FIELDS],
        meta={"run_count": result.run_count, "base_seed": result.base_seed},
    )


def read_sweep_csv(path) -> SweepResult:
    """Read a sweep result written by :func:`write_sweep_csv`."""
    meta, cells = _read_cells(Path(path), path)
    try:
        run_count, base_seed = int(meta["run_count"]), int(meta.get("base_seed", 0))
    except (KeyError, ValueError) as exc:
        raise RumorSimError(
            f"{path}: missing or malformed '# run_count=' or '# base_seed=' metadata line"
        ) from exc
    if not 1 <= run_count <= sys.float_info.max:
        raise RumorSimError(f"{path}: '# run_count=' must be at least 1 and within the float range")
    return SweepResult(cells=cells, run_count=run_count, base_seed=base_seed)


def write_deviation_csv(report: DeviationReport, path) -> None:
    """Sweep columns plus reference values, relative deviations, and flags."""
    header = ["tau", "R0", "beta", "peak_mean", "final_mean", "ref_peak_mean", "ref_peak_std"]
    header += ["ref_final_mean", "ref_final_std", "peak_dev_rel", "final_dev_rel", "flag", "note"]
    fields = ["tau", "r0", *header[2:11], "flagged", "note"]
    write_table(
        path,
        header,
        [[getattr(r, name) for r in report.rows] for name in fields],
        meta={"run_count": report.run_count},
    )
