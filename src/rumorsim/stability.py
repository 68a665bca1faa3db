"""Equilibrium classification, the linearized (E, I) delay subsystem, and
empirical mean-square stability verification.

Setting the drift to zero forces the exposed, spreader, and skeptical
classes to vanish (the spreader outflow ``gamma * I`` admits no positive
fixed point), leaving a continuum of rumor-free equilibria: any split of
the population over ``(S, R, F)``.  They are equilibria of the drift:
the multiplicative noise keeps the set ``{E = I = Ig = 0}`` invariant,
but with ``n_S > 0`` S diffuses on it as a geometric Brownian motion, so
the fully susceptible point is stationary only when ``n_S`` is 0.
Linearizing there with S frozen at N gives the delay subsystem

    dE = (beta * N * I(t - tau) - sigma_act * E) dt + n_E * E dW_E
    dI = (sigma_act * E - (gamma + rho) * I)     dt + n_I * I dW_I

whose second moment ``E[E^2 + I^2]`` decays exponentially for every delay
whenever :func:`~rumorsim.model.stochastic_margin` is positive (see its
derivation).  This module estimates that second moment over an ensemble,
integrated by the streaming kernel of :mod:`rumorsim.integrator`, and
issues an empirical verdict instead of re-deriving the analysis.  Margin
and verdict are about this subsystem: neither covers the full model's
paths whose S wanders above ``N / R0``.  The README section
"Multiplicative, not additive, noise" gives the chance of that before a
horizon.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleSummary, _warn_if_unconverged
from .errors import NumericsError
from .integrator import (
    IntegratorConfig,
    Trajectory,
    block_rows,
    check_memory,
    delay_steps,
    euler_maruyama,
    recorded_times,
    write_table,
)
from .model import POSITIVE, STABILITY_RULES, ModelParams, StateVector, check, drift, stochastic_margin
from .rng import derive_seed

__all__ = [
    "DECAY_RATIO",
    "GROWTH_RATIO",
    "DecayVerdict",
    "EquilibriumClass",
    "EquilibriumReport",
    "FinalSizeReport",
    "MeanSquareDecayReport",
    "classify_equilibrium",
    "final_size",
    "simulate_linearized",
    "write_decay_csv",
]

# Terminal/initial second-moment ratio thresholds.  The band between them
# is reported as inconclusive: near the stability threshold a finite
# ensemble cannot support a binary call.
DECAY_RATIO = 1e-2
GROWTH_RATIO = 1e2

# Least-squares fit of the decay rate starts after the initial transient
# and stops before the estimate underflows the log scale.
_FIT_START_FRACTION = 0.1
_FIT_FLOOR = 1e-12


class EquilibriumClass(enum.Enum):
    RUMOR_FREE = "rumor-free"
    RUMOR_FREE_FAMILY = "rumor-free-family"
    NOT_EQUILIBRIUM = "not-equilibrium"


class DecayVerdict(enum.Enum):
    DECAY = "decay"
    GROWTH = "growth"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class EquilibriumReport:
    state: StateVector
    classification: EquilibriumClass
    drift_residual: float
    conservation_residual: float
    tolerance: float


def classify_equilibrium(x: StateVector, p: ModelParams, tol: float = 1e-9) -> EquilibriumReport:
    """Classify a candidate state against the rumor-free equilibrium family.

    A state is a family member iff its exposed, spreader, and skeptical
    components vanish (within ``tol``) and the drift residual at the state
    is at most ``tol``; the fully susceptible point gets the distinguished
    rumor-free label.  At exact family members the drift residual is zero
    to machine precision, not merely small: every flow is a product with a
    zero factor.
    """
    tol = check("equilibrium", {"tol": POSITIVE}, tol=tol)["tol"]
    residual = float(np.linalg.norm(drift(x, x, p)))
    conservation = abs(x.total - p.population)
    is_family = max(x.e, x.i, x.ig) <= tol and residual <= tol
    if is_family and abs(x.s - p.population) <= tol and max(x.r, x.f) <= tol:
        label = EquilibriumClass.RUMOR_FREE
    elif is_family:
        label = EquilibriumClass.RUMOR_FREE_FAMILY
    else:
        label = EquilibriumClass.NOT_EQUILIBRIUM
    return EquilibriumReport(
        state=x,
        classification=label,
        drift_residual=residual,
        conservation_residual=conservation,
        tolerance=tol,
    )


@dataclass(frozen=True)
class MeanSquareDecayReport:
    """Ensemble estimate of the linearized second moment over time."""

    times: np.ndarray
    ms_estimate: np.ndarray
    fitted_rate: float
    margin: float
    verdict: DecayVerdict
    run_count: int

    @property
    def initial_estimate(self) -> float:
        return float(self.ms_estimate[0])

    @property
    def terminal_estimate(self) -> float:
        return float(self.ms_estimate[-1])


def _fit_decay_rate(times: np.ndarray, estimate: np.ndarray) -> float:
    horizon = times[-1]
    start = np.searchsorted(times, _FIT_START_FRACTION * horizon)
    below = np.nonzero(estimate < _FIT_FLOOR)[0]
    stop = int(below[0]) if below.size else times.size
    if stop - start < 2:
        return float("nan")
    window = slice(start, stop)
    return float(np.polyfit(times[window], np.log(estimate[window]), 1)[0])


def simulate_linearized(
    p: ModelParams,
    e0: float,
    i0: float,
    cfg: IntegratorConfig,
    run_count: int,
    base_seed: int,
) -> MeanSquareDecayReport:
    """Integrate the linearized (E, I) delay subsystem and test its
    second moment for decay.

    Uses constant history ``(e0, i0)``, Euler-Maruyama on the same step
    grid rules as the full model, and the counter noise stream (columns
    0 and 1 for the E and I perturbations).  No nonnegativity projection
    is applied: the subsystem is linear and the second moment is
    sign-blind, while clamping would distort it.

    The second moment is reduced per block of recorded rows (see
    :func:`~rumorsim.integrator.block_rows`), so memory scales with
    ``run_count`` times one block plus the estimate, not with the recorded
    paths.  Verdict: decay if the terminal estimate fell below
    ``DECAY_RATIO`` times the initial one, growth if it rose above
    ``GROWTH_RATIO`` times, inconclusive in between.
    """
    check("stability", STABILITY_RULES, e0=e0, i0=i0, run_count=run_count)
    rows = cfg.recorded_count
    block = block_rows(cfg, 2 * run_count)
    # one block of (E, I) rows, and the estimate with its times
    check_memory(cfg, [(p, run_count)], 2, 2 * run_count * block + 2 * rows)

    # (bN * D - sigma * E, sigma * E - (gamma + rho) * I) as head - tail of
    # the flows (transmission, activation, removal), full rows throughout
    rates = np.repeat([[p.sigma_act], [p.removal_rate]], run_count, axis=1)
    bn = np.full(run_count, p.beta * p.population)
    flows = np.empty((3, run_count))
    transmission, head, tail = flows[0], flows[:2], flows[1:]

    def drift(x, out):
        multiply, subtract = np.multiply, np.subtract

        def step(i_delayed):
            multiply(rates, x, tail)
            multiply(bn, i_delayed, transmission)
            subtract(head, tail, out)

        return step

    staged = np.empty((block, 2, run_count))
    ms_estimate = np.empty(rows)

    def reduce(first, count):
        squares = np.square(staged[:count], out=staged[:count])
        ms_estimate[first : first + count] = squares.sum(axis=1).mean(axis=1)

    early = np.full(delay_steps(p.tau, cfg), i0)
    noise_pair = np.array([p.noise.e, p.noise.i])
    seeds = [derive_seed(base_seed, j) for j in range(run_count)]
    try:
        euler_maruyama(
            drift, (e0, i0), [(run_count, early)], 1, noise_pair, seeds, cfg, staged, reduce, False,
        )
    except NumericsError as exc:
        raise NumericsError(
            f"linearized second moment overflowed at step {exc.step} "
            f"(t={exc.step * cfg.step_size:g}); shorten the horizon"
        ) from exc

    if not 0.0 < ms_estimate[0] < np.inf:  # no ratio to judge decay by
        raise NumericsError(
            f"initial second moment {ms_estimate[0]:g} is not a positive finite number; "
            f"rescale e0 ({e0:g}) and i0 ({i0:g})"
        )
    times = recorded_times(cfg)
    finite = np.isfinite(ms_estimate)
    if not finite.all():  # finite states whose squares overflow
        raise NumericsError(
            f"linearized second moment overflowed at t={times[np.argmin(finite)]:g}; "
            f"shorten the horizon"
        )
    ratio = ms_estimate[-1] / ms_estimate[0]
    if ratio <= DECAY_RATIO:
        verdict = DecayVerdict.DECAY
    elif ratio >= GROWTH_RATIO:
        verdict = DecayVerdict.GROWTH
    else:
        verdict = DecayVerdict.INCONCLUSIVE

    return MeanSquareDecayReport(
        times=times,
        ms_estimate=ms_estimate,
        fitted_rate=_fit_decay_rate(times, ms_estimate),
        margin=stochastic_margin(p),
        verdict=verdict,
        run_count=run_count,
    )


@dataclass(frozen=True)
class FinalSizeReport:
    """Terminal distribution over the absorbing classes."""

    s_inf: float
    r_inf: float
    f_inf: float
    terminal_spreader: float
    conservation_residual: float
    extinguished: bool

    @property
    def outbreak_size(self) -> float:
        """Cumulative reach of the rumor, terminal ``R + F``."""
        return self.r_inf + self.f_inf


def final_size(source, p: ModelParams) -> FinalSizeReport:
    """Read the terminal (S, R, F) split from a trajectory or an ensemble
    summary (which uses the terminal mean state).

    Warns with :class:`~rumorsim.ensemble.FinalSizeHorizonWarning` when
    the terminal spreader mass shows the outbreak had not died out by the
    horizon; the conservation residual ``|S + R + F - N|`` quantifies how far the
    terminal state is from a true limiting equilibrium.
    """
    if isinstance(source, Trajectory):
        terminal = source.states[-1]
    elif isinstance(source, EnsembleSummary):
        terminal = source.mean[-1]
    else:
        raise TypeError(f"expected Trajectory or EnsembleSummary, got {type(source).__name__}")
    s_inf, r_inf, f_inf = float(terminal[0]), float(terminal[3]), float(terminal[5])
    return FinalSizeReport(
        s_inf=s_inf,
        r_inf=r_inf,
        f_inf=f_inf,
        terminal_spreader=float(terminal[2]),
        conservation_residual=abs(s_inf + r_inf + f_inf - p.population),
        extinguished=_warn_if_unconverged(terminal[2], p.population),
    )


def write_decay_csv(report: MeanSquareDecayReport, path) -> None:
    """Write ``t,ms_estimate`` rows, with the margin, verdict, and fitted
    rate carried as ``#``-prefixed header lines."""
    write_table(
        path,
        ["t", "ms_estimate"],
        [report.times, report.ms_estimate],
        meta={
            "margin": report.margin,
            "verdict": report.verdict.value,
            "fitted_rate": report.fitted_rate,
            "run_count": report.run_count,
        },
    )
