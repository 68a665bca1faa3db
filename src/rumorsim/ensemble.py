"""Monte Carlo ensembles: pointwise summary statistics with confidence
bands and per-run outbreak metrics.

Run ``k`` of an ensemble uses the child seed ``derive_seed(base_seed, k)``,
so the whole ensemble is a deterministic function of its inputs and any
single run can be reproduced in isolation.  Runs are integrated as one
batch by the streaming kernel; because every state update is elementwise,
the batch is bit-identical to integrating the runs one at a time, and the
summary statistics do not depend on any scheduling order.  The recorded
paths are the only per-step state an ensemble holds.  Sweeps build
:class:`OutbreakMetrics` from each run's peak and terminal state instead.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import InsufficientDataError
from .integrator import (
    CSV_FLOAT_FORMAT,
    IntegratorConfig,
    Trajectory,
    simulate_paths,
)
from .model import CSV_COMPARTMENTS, HistoryFunction, ModelParams
from .rng import derive_seed

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

# The terminal spreader mean must drop below this fraction of the
# population for "final size" to mean what it says.
EXTINCTION_FRACTION = 1e-4


class FinalSizeHorizonWarning(UserWarning):
    """The horizon ended before the outbreak died out, so terminal
    final-size statistics underestimate the eventual reach."""


def confidence_band(values, level: float, method: str = "quantile") -> tuple[float, float]:
    """Pointwise confidence band over a sample of scalars.

    ``quantile`` (default): empirical quantiles at ``(1-level)/2`` and
    ``1-(1-level)/2`` with linear interpolation between order statistics;
    robust to the skew that multiplicative noise produces near zero.
    ``normal``: ``mean +/- z * std`` with ``z`` the standard-normal
    quantile and the sample standard deviation (ddof=1).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if values.size < 2:
        raise InsufficientDataError(
            f"confidence band needs at least 2 values, got {values.size}"
        )
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if method == "quantile":
        alpha = (1.0 - level) / 2.0
        lo, hi = np.quantile(values, [alpha, 1.0 - alpha])
    elif method == "normal":
        z = ndtri(0.5 + level / 2.0)
        mean = values.mean()
        half = z * values.std(ddof=1)
        lo, hi = mean - half, mean + half
    else:
        raise ValueError(f"unknown CI method {method!r}; expected one of {CI_METHODS}")
    return float(lo), float(hi)


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
        if self.run_count < 2:
            return float("nan")
        if np.ptp(self.peak_values) == 0.0:
            return 0.0
        return float(self.peak_values.std(ddof=1))

    @property
    def final_size_mean(self) -> float:
        return float(self.final_sizes.mean())

    @property
    def final_size_std(self) -> float:
        if self.run_count < 2:
            return float("nan")
        if np.ptp(self.final_sizes) == 0.0:
            return 0.0
        return float(self.final_sizes.std(ddof=1))


@dataclass(frozen=True)
class EnsembleResult:
    summary: EnsembleSummary
    metrics: OutbreakMetrics
    trajectories: tuple[Trajectory, ...] | None


def _warn_if_unconverged(terminal_spreader: np.ndarray, population: float) -> None:
    """Warn the caller's caller when the mean terminal spreader mass is not
    below the extinction fraction."""
    terminal_spreader_mean = float(terminal_spreader.mean())
    if terminal_spreader_mean >= EXTINCTION_FRACTION * population:
        warnings.warn(
            f"ensemble-mean spreader mass at the horizon is "
            f"{terminal_spreader_mean:.3g} >= {EXTINCTION_FRACTION:g} * N; "
            f"final-size statistics are not converged, extend the horizon",
            FinalSizeHorizonWarning,
            stacklevel=3,
        )


def _pointwise_band(
    paths: np.ndarray, mean: np.ndarray, std: np.ndarray, level: float, method: str
) -> tuple[np.ndarray, np.ndarray]:
    if method == "quantile":
        alpha = (1.0 - level) / 2.0
        band = np.quantile(paths, [alpha, 1.0 - alpha], axis=0)
        return band[0], band[1]
    if method == "normal":
        z = ndtri(0.5 + level / 2.0)
        return mean - z * std, mean + z * std
    raise ValueError(f"unknown CI method {method!r}; expected one of {CI_METHODS}")


def run_ensemble(
    p: ModelParams,
    history: HistoryFunction,
    cfg: IntegratorConfig,
    run_count: int,
    base_seed: int,
    *,
    ci_level: float = 0.95,
    ci_method: str = "quantile",
    retain_trajectories: bool = False,
) -> EnsembleResult:
    """Run ``run_count`` independent realizations and summarize them.

    Emits :class:`FinalSizeHorizonWarning` when the ensemble-mean spreader
    mass at the horizon is still above ``EXTINCTION_FRACTION`` of the
    population.  Trajectories are only materialized as objects when
    ``retain_trajectories`` is set; the statistics are computed either way.
    """
    if run_count < 1:
        raise ValueError(f"run_count must be >= 1, got {run_count}")
    if not 0.0 < ci_level < 1.0:
        raise ValueError(f"ci_level must be in (0, 1), got {ci_level}")
    if ci_method not in CI_METHODS:
        raise ValueError(f"unknown CI method {ci_method!r}; expected one of {CI_METHODS}")

    seeds = [derive_seed(base_seed, k) for k in range(run_count)]
    times, paths, projection_counts = simulate_paths(p, history, cfg, seeds)

    mean = paths.mean(axis=0)
    if run_count >= 2:
        std = paths.std(axis=0, ddof=1)
        # where all runs agree bitwise the dispersion is exactly zero;
        # suppress the roundoff the two-pass mean would otherwise leave
        std[paths.max(axis=0) == paths.min(axis=0)] = 0.0
        lower, upper = _pointwise_band(paths, mean, std, ci_level, ci_method)
    else:
        std = np.full_like(mean, np.nan)
        lower = np.full_like(mean, np.nan)
        upper = np.full_like(mean, np.nan)

    spreader = paths[:, :, 2]
    peak_indices = spreader.argmax(axis=1)
    metrics = OutbreakMetrics(
        peak_values=spreader.max(axis=1),
        peak_times=times[peak_indices],
        final_sizes=paths[:, -1, 3] + paths[:, -1, 5],
    )

    _warn_if_unconverged(spreader[:, -1], p.population)

    summary = EnsembleSummary(
        times=times,
        mean=mean,
        std=std,
        lower=lower,
        upper=upper,
        run_count=run_count,
        ci_level=ci_level,
        ci_method=ci_method,
    )
    trajectories = None
    if retain_trajectories:
        trajectories = tuple(
            Trajectory(times=times, states=paths[k], projection_event_count=int(projection_counts[k]))
            for k in range(run_count)
        )
    return EnsembleResult(summary=summary, metrics=metrics, trajectories=trajectories)


def _fmt(values) -> str:
    return ",".join(CSV_FLOAT_FORMAT % v for v in values)


def write_summary_csv(summary: EnsembleSummary, path) -> None:
    """Write ``t,<comp>_mean,<comp>_std,<comp>_lo,<comp>_hi`` per compartment."""
    buf = io.StringIO()
    cols = ["t"]
    for comp in CSV_COMPARTMENTS:
        cols += [f"{comp}_mean", f"{comp}_std", f"{comp}_lo", f"{comp}_hi"]
    buf.write(",".join(cols) + "\n")
    for idx, t in enumerate(summary.times):
        row = [t]
        for c in range(6):
            row += [
                summary.mean[idx, c],
                summary.std[idx, c],
                summary.lower[idx, c],
                summary.upper[idx, c],
            ]
        buf.write(_fmt(row) + "\n")
    with open(path, "w", newline="\n") as fh:
        fh.write(buf.getvalue())


def write_metrics_csv(metrics: OutbreakMetrics, path) -> None:
    """One row per run: ``run,peak_I,peak_t,final_size``."""
    buf = io.StringIO()
    buf.write("run,peak_I,peak_t,final_size\n")
    for k in range(metrics.run_count):
        buf.write(
            f"{k},"
            + _fmt([metrics.peak_values[k], metrics.peak_times[k], metrics.final_sizes[k]])
            + "\n"
        )
    with open(path, "w", newline="\n") as fh:
        fh.write(buf.getvalue())


def write_aggregate_csv(metrics: OutbreakMetrics, path) -> None:
    """Single-row aggregate of the per-run metrics."""
    buf = io.StringIO()
    buf.write("run_count,peak_mean,peak_std,final_mean,final_std\n")
    buf.write(
        f"{metrics.run_count},"
        + _fmt(
            [
                metrics.peak_mean,
                metrics.peak_std,
                metrics.final_size_mean,
                metrics.final_size_std,
            ]
        )
        + "\n"
    )
    with open(path, "w", newline="\n") as fh:
        fh.write(buf.getvalue())
