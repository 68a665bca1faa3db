"""Monte Carlo ensembles: pointwise summary statistics with confidence
bands and per-run outbreak metrics.

Run ``k`` of an ensemble uses the child seed ``derive_seed(base_seed, k)``,
so the whole ensemble is a deterministic function of its inputs and any
single run can be reproduced in isolation.  Runs are integrated as one
batch by the streaming kernel; because every state update is elementwise,
the batch is bit-identical to integrating the runs one at a time, and the
summary statistics do not depend on any scheduling order.  The
statistics are reduced per block of recorded rows as the kernel hands
them over, so an ensemble holds one block of recorded rows twice (the
block the kernel sizes and allocates, whose rows the band sorts in
place, and a runs-major copy) and the rows it writes, never the whole
path set; every statistic is elementwise or reduces over the runs of one
row, so the blocks change no bit of it.  Sweeps reduce each run's peak
and terminal state instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .integrator import (
    IntegratorConfig,
    check_memory,
    recorded_times,
    stream_model,
    write_table,
)
from .model import COUNT, CSV_COMPARTMENTS, HistoryFunction, ModelParams, check
from .rng import derive_seed, ndtri

__all__ = [
    "CI_METHODS",
    "EXTINCTION_FRACTION",
    "EnsembleResult",
    "EnsembleSummary",
    "FinalSizeHorizonWarning",
    "OutbreakMetrics",
    "confidence_band",
    "run_ensemble",
    "write_aggregate_csv",
    "write_metrics_csv",
    "write_summary_csv",
]

CI_METHODS = ("quantile", "normal")

ENSEMBLE_RULES = {
    "run_count": COUNT, "ci_level": (float, "in (0, 1)", lambda v: 0.0 < v < 1.0),
    "ci_method": frozenset(CI_METHODS),
}

# The terminal spreader mean must drop below this fraction of the
# population for "final size" to mean what it says.
EXTINCTION_FRACTION = 1e-4


class FinalSizeHorizonWarning(UserWarning):
    """The horizon ended before the outbreak died out, so terminal
    final-size statistics underestimate the eventual reach."""


def confidence_band(values, level: float, method: str = "quantile"):
    """Confidence band over a sample, pointwise along its first axis.

    A 1-D sample of scalars gives a ``(lo, hi)`` pair of floats; a sample
    of arrays gives a pair of arrays shaped like one of its elements.
    ``quantile`` (default): numpy's "linear" quantiles (Hyndman & Fan
    type 7) at ``(1-level)/2`` and ``1-(1-level)/2``, read from the sorted
    sample; robust to the skew that multiplicative noise produces near
    zero.  ``normal``: ``mean +/- z * std`` with ``z`` the standard-normal
    quantile and the ddof=1 standard deviation, exactly zero where all
    values agree.
    """
    values = np.array(values, dtype=float)  # a copy: the quantile band sorts it
    if values.ndim == 0:
        raise ValueError("values must be at least one-dimensional")
    if values.shape[0] < 2:
        raise InsufficientDataError(
            f"confidence band needs at least 2 values, got {values.shape[0]}"
        )
    check("ensemble", ENSEMBLE_RULES, ci_level=level, ci_method=method)
    _, lo, hi = _spread_and_band(values.copy(), values.mean(axis=0), level, method, np.moveaxis(values, 0, -1))
    if values.ndim == 1:
        return float(lo), float(hi)
    return lo, hi


def _sample_std(values, mean, sample=None):
    """The ddof=1 standard deviation along the first axis of ``values``,
    whose runs are outermost in memory, from their ``mean`` in numpy's
    order: subtract, square, sum, divide by ``n - 1``, square root.  The
    squares go to a new array, or overwrite ``values`` if ``sample`` holds
    the same values (runs first, in any layout).

    A lane whose squared deviations overflow is recomputed on the sample
    scaled by a power of two, which is exact, so huge but finite samples
    keep a finite spread; every other lane keeps numpy's bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.subtract(values, mean, out=None if sample is None else values)
        std = np.sqrt(np.add.reduce(np.square(squares, out=squares), axis=0) / (len(squares) - 1))
        lost = ~np.isfinite(std)
        if lost.any():  # scale the whole sample, runs outermost, which keeps numpy's sum order
            sample = values if sample is None else sample
            exponent = np.where(lost, np.frexp(np.abs(sample).max(axis=0))[1], 0)
            scaled = np.ldexp(sample, -exponent, order="C")
            std = np.where(lost, np.ldexp(np.std(scaled, axis=0, ddof=1), exponent), std)
    return std


def _spread_and_band(values, mean, level: float, method: str, runs_last):
    """The ddof=1 standard deviation and the band of a sample with its
    ``mean``, held runs first in ``values``, which the squared deviations
    overwrite, and runs last in ``runs_last``.  The std is exactly zero
    where all values agree, suppressing the roundoff the two-pass mean
    would otherwise leave.  ``normal`` gives ``mean +/- z * std``, with
    ``z`` the standard-normal quantile; ``quantile`` sorts ``runs_last`` in
    place along its last axis and reads the band from the order statistics.
    """
    std = _sample_std(values, mean, np.moveaxis(runs_last, -1, 0))
    if method == "normal":
        std = np.where(runs_last.max(axis=-1) == runs_last.min(axis=-1), 0.0, std)
        z = ndtri(0.5 + level / 2.0)
        return std, mean - z * std, mean + z * std
    runs_last.sort(axis=-1)
    return (np.where(runs_last[..., 0] == runs_last[..., -1], 0.0, std), *_quantile_band(runs_last, level))


def _quantile_band(ordered, level: float):
    """The quantile band of a sample sorted along its last axis.

    It interpolates between the order statistics at and after
    ``(n - 1) q`` as numpy's "linear" quantile does: the same weight, the
    same two ``_lerp`` branches, and NaN wherever the last order statistic
    is NaN, so the band equals numpy's to the bit.
    """
    n, last = ordered.shape[-1], ordered[..., -1]
    nan_lanes = np.isnan(last)
    alpha = (1.0 - level) / 2.0
    band = []
    for q in (alpha, 1.0 - alpha):
        position = (n - 1) * q
        # at q = 1 both ends are the last value, where the weight is moot
        below = min(math.floor(position), n - 1)
        a, b, t = ordered[..., below], ordered[..., min(below + 1, n - 1)], position - below
        diff = b - a
        value = b - diff * (1.0 - t) if t >= 0.5 else a + diff * t
        band.append(np.where(nan_lanes, last, value))
    return band


@dataclass(frozen=True)
class EnsembleSummary:
    """Pointwise mean, standard deviation, and CI band per compartment.

    Arrays are shaped ``(len(times), 6)`` in compartment order
    S, E, I, R, Ig, F.  Standard deviations and bands require at least two
    runs and are NaN otherwise.
    """

    times: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    run_count: int
    ci_level: float
    ci_method: str


@dataclass(frozen=True)
class OutbreakMetrics:
    """Per-run outbreak metrics and their ensemble aggregates.

    The peak is the maximum of the recorded spreader column including the
    initial point, so ``peak >= I(0)`` for every run; the final size is
    the terminal ``R + F`` mass.
    """

    peak_values: np.ndarray
    peak_times: np.ndarray
    final_sizes: np.ndarray

    @property
    def run_count(self) -> int:
        return self.peak_values.size

    @property
    def peak_mean(self) -> float:
        return float(self.peak_values.mean())

    @property
    def peak_std(self) -> float:
        return _run_spread(self.peak_values)

    @property
    def final_size_mean(self) -> float:
        return float(self.final_sizes.mean())

    @property
    def final_size_std(self) -> float:
        return _run_spread(self.final_sizes)


def _run_spread(values) -> float:
    """The ddof=1 std over runs: NaN below two runs, exactly 0 where all agree."""
    if values.size < 2:
        return float("nan")
    return 0.0 if values.max() == values.min() else float(_sample_std(values, values.mean()))


@dataclass(frozen=True)
class EnsembleResult:
    summary: EnsembleSummary
    metrics: OutbreakMetrics


def _warn_if_unconverged(terminal_spreader, population: float, prefix: str = "") -> bool:
    """Whether the mean terminal spreader mass is below the extinction
    fraction; warns the caller's caller, after ``prefix``, when it is not."""
    terminal_spreader_mean = float(np.mean(terminal_spreader))
    converged = terminal_spreader_mean < EXTINCTION_FRACTION * population
    if not converged:
        warnings.warn(
            f"{prefix}mean spreader mass at the horizon is "
            f"{terminal_spreader_mean:.3g} >= {EXTINCTION_FRACTION:g} * N; "
            f"final-size statistics are not converged, extend the horizon",
            FinalSizeHorizonWarning,
            stacklevel=3,
        )
    return converged


def run_ensemble(
    p: ModelParams,
    history: HistoryFunction,
    cfg: IntegratorConfig,
    run_count: int,
    base_seed: int,
    *,
    ci_level: float = 0.95,
    ci_method: str = "quantile",
) -> EnsembleResult:
    """Run ``run_count`` independent realizations and summarize them.

    Emits :class:`FinalSizeHorizonWarning` when the ensemble-mean spreader
    mass at the horizon is still above ``EXTINCTION_FRACTION`` of the
    population.  The statistics are reduced per block of recorded rows
    that the stepper sizes and hands over, so memory scales with
    ``run_count`` times one block plus the written rows; the per-run peak
    merges across blocks keeping its first occurrence, and the final size
    comes from the terminal state.  The mean, peaks and ddof=1 std are
    read from a runs-major copy of each block, sized by the first, which
    the squared deviations overwrite; the band then sorts in place the
    rows the stepper handed over, which it never reads again.
    """
    check("ensemble", ENSEMBLE_RULES, run_count=run_count, ci_level=ci_level, ci_method=ci_method)
    rows, cells = cfg.recorded_count, [(p, run_count)]
    check_memory(cfg, cells, 6, rows * (4 * 6 + 1) + 2 * run_count)  # the outputs, times and per-run peaks
    seeds = [derive_seed(base_seed, k) for k in range(run_count)]

    slab = None
    mean = np.empty((rows, 6))
    std, lower, upper = (np.full((rows, 6), np.nan) for _ in range(3))
    peak_values = np.full(run_count, -np.inf)
    peak_rows = np.zeros(run_count, dtype=np.intp)

    def reduce(first, recorded):
        nonlocal slab
        if slab is None:  # the first block is the largest
            slab = np.empty((run_count, len(recorded), 6))
        # runs-major, so the mean sums each row's values in run order
        values, span = slab[:, : len(recorded)], slice(first, first + len(recorded))
        values[...] = recorded.transpose(2, 0, 1)
        mean[span] = values.mean(axis=0)
        spreader = values[:, :, 2]
        block_peak = spreader.max(axis=1)
        higher = block_peak > peak_values  # strict: the first occurrence wins
        peak_values[higher] = block_peak[higher]
        peak_rows[higher] = first + spreader.argmax(axis=1)[higher]
        if run_count >= 2:
            # the stepper reads no handed row again, so the band sorts them in place
            std[span], lower[span], upper[span] = _spread_and_band(values, mean[span], ci_level, ci_method, recorded)

    terminal, _ = stream_model(cells, history, cfg, seeds, reduce)
    times = recorded_times(cfg)
    metrics = OutbreakMetrics(
        peak_values=peak_values,
        peak_times=times[peak_rows],
        final_sizes=terminal[3] + terminal[5],
    )

    _warn_if_unconverged(terminal[2], p.population)

    summary = EnsembleSummary(times, mean, std, lower, upper, run_count, ci_level, ci_method)
    return EnsembleResult(summary=summary, metrics=metrics)


def write_summary_csv(summary: EnsembleSummary, path) -> None:
    """Write ``t,<comp>_mean,<comp>_std,<comp>_lo,<comp>_hi`` per compartment."""
    header, columns = ["t"], [summary.times]
    for c, comp in enumerate(CSV_COMPARTMENTS):
        header += [f"{comp}_mean", f"{comp}_std", f"{comp}_lo", f"{comp}_hi"]
        columns += [summary.mean[:, c], summary.std[:, c], summary.lower[:, c], summary.upper[:, c]]
    write_table(path, header, columns)


def write_metrics_csv(metrics: OutbreakMetrics, path) -> None:
    """One row per run: ``run,peak_I,peak_t,final_size``."""
    write_table(
        path,
        ["run", "peak_I", "peak_t", "final_size"],
        [np.arange(metrics.run_count), metrics.peak_values, metrics.peak_times, metrics.final_sizes],
    )


def write_aggregate_csv(metrics: OutbreakMetrics, path) -> None:
    """Single-row aggregate of the per-run metrics."""
    write_table(
        path,
        ["run_count", "peak_mean", "peak_std", "final_mean", "final_std"],
        [
            [value]
            for value in (
                metrics.run_count,
                metrics.peak_mean,
                metrics.peak_std,
                metrics.final_size_mean,
                metrics.final_size_std,
            )
        ],
    )
