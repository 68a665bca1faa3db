"""The model's theory beside the lab that checks it: equilibrium
classification, the mean-square margin, the well-posedness bounds, and
empirical mean-square verification of the linearized (E, I) subsystem.

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
whenever :func:`stochastic_margin` is positive (see its derivation);
:func:`simulate_linearized` estimates it over an ensemble, stepping the
drift ``_linearized_drift`` on the integrator's kernel, and issues an
empirical verdict.  Neither covers the full model's paths whose S wanders
above ``N / R0``: :func:`crossing_probability` gives the chance of that
before a horizon.  Growth and Lipschitz constants of the drift on a ball,
with sampled verifiers, and a Gronwall envelope of the squared norm
certify well-posedness and the absence of blow-up.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleSummary, _warn_if_unconverged
from .errors import ConfigurationError, NumericsError
from .integrator import (
    IntegratorConfig,
    Trajectory,
    check_memory,
    delay_steps,
    euler_maruyama,
    recorded_times,
    write_table,
)
from .model import (
    COUNT, NONNEGATIVE, POSITIVE, STABILITY_RULES, ModelParams, StateVector, check, diffusion, drift,
    reproduction_number,
)
from .rng import derive_seed, increment_chunks, seed_array

__all__ = [
    "BoundCheckReport",
    "DECAY_RATIO",
    "GROWTH_RATIO",
    "DecayVerdict",
    "EquilibriumClass",
    "EquilibriumReport",
    "FinalSizeReport",
    "MeanSquareDecayReport",
    "classify_equilibrium",
    "crossing_probability",
    "final_size",
    "generator_growth_constant",
    "growth_bound_constant",
    "lipschitz_constant",
    "second_moment_envelope",
    "simulate_linearized",
    "stochastic_margin",
    "verify_growth_bound",
    "verify_lipschitz_bound",
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


def stochastic_margin(p: ModelParams) -> float:
    """Margin of the sufficient mean-square stability condition

        (1 - n_E**2 / (2 * sigma_act)) * (1 - n_I**2 / (2 * (gamma + rho))) > R0,

    which guarantees exponential mean-square decay of the linearized (E, I)
    subsystem for every delay; a negative margin proves nothing by itself.

    Derivation: write the subsystem as ``dx = (A x + B x(t - tau)) dt +
    diag(n_E E, n_I I) dW`` with ``A = [[-sigma_act, 0], [sigma_act,
    -(gamma + rho)]]`` and ``B = beta N e1 e2^T``, and take the
    Lyapunov-Krasovskii functional ``V = x^T P x + int_{t - tau}^t x^T Q x
    ds`` with ``P = diag(p1, 1)`` and ``Q = diag(q1, q2)``.  ``LV < 0``
    holds when ``[[A^T P + P A + diag(n_E**2 p1, n_I**2) + Q, P B], [B^T P,
    -Q]]`` is negative definite.  Its Schur complement, with ``q1 -> 0``, is
    negative definite when ``(c1 p1 - p1**2 (beta N)**2 / q2) (c2 - q2) >
    sigma_act**2``, ``c1 = 2 sigma_act - n_E**2`` and ``c2 = 2 (gamma + rho)
    - n_I**2``; the best ``p1 = c1 q2 / (2 (beta N)**2)`` and ``q2 = c2 / 2``
    turn it into ``c1 c2 > 4 beta N sigma_act``, the condition above.

    Returns ``(1 - n_I**2 / (2 * (gamma + rho))) - R0`` where that is at
    most zero (``n_E`` cannot make it positive), and the condition's left
    side minus ``R0`` otherwise, which is never larger.  So the margin is
    positive exactly when the condition holds, and at ``n_E = 0`` it has
    the bits of the ``n_E``-free form.  At the default rates with ``beta =
    0.045`` (R0 0.3), ``n_E = 1`` and every other intensity 0 it is -1.3:
    the self-term ``n_E**2 - 2 * sigma_act`` of ``E[E^2]`` is +0.5.
    """
    try:
        spread = p.noise.i**2  # not i * i, which differs in the last bit for some i
    except OverflowError:
        spread = math.inf
    damping = 1.0 - spread / (2.0 * p.removal_rate)
    margin = damping - reproduction_number(p)
    if not margin > 0.0:
        return margin
    return (1.0 - p.noise.e * p.noise.e / (2.0 * p.sigma_act)) * damping - reproduction_number(p)


def crossing_probability(r0: float, n_s: float, horizon: float) -> float:
    """Probability that the effective reproduction number ``R0 S_t / N``
    reaches 1 before ``horizon``, for S the geometric Brownian motion
    ``log(S_t / N) = n_S W_t - n_S**2 t / 2`` that S follows on the
    rumor-free set from ``S = N``.

    The reflection principle for Brownian motion with drift gives, with
    ``a = ln(1 / R0)`` and ``Phi`` the standard normal CDF,

        P = Phi((-a - n_S**2 T / 2) / (n_S sqrt(T))) + R0 Phi((-a + n_S**2 T / 2) / (n_S sqrt(T)))

    evaluated as ``Phi(-a / s - s / 2) + R0 Phi(-a / s + s / 2)`` with
    ``s = n_S sqrt(T)``, so that no finite input overflows.  It is 1 for
    ``R0 >= 1``, 0 for ``R0 < 1`` at ``n_S = 0``, and tends to ``R0`` as
    ``T`` grows: the chance that a path leaves the region that
    :func:`stochastic_margin` and :func:`simulate_linearized` cover.
    """
    values = check(
        "crossing", {"r0": POSITIVE, "n_s": NONNEGATIVE, "horizon": POSITIVE}, r0=r0, n_s=n_s, horizon=horizon
    )
    r0, spread = values["r0"], values["n_s"] * math.sqrt(values["horizon"])
    if r0 >= 1.0:
        return 1.0
    if spread == 0.0:
        return 0.0
    # Phi(x) = erfc(-x / sqrt(2)) / 2
    a, root2 = -math.log(r0) / spread, math.sqrt(2.0)
    return (math.erfc((a + spread / 2.0) / root2) + r0 * math.erfc((a - spread / 2.0) / root2)) / 2.0


def growth_bound_constant(p: ModelParams, radius: float) -> float:
    """Explicit constant K(R) with ``|b|^2 + |g|^2 <= K (1 + |x|^2 + |y|^2)``
    for all nonnegative ``x, y`` with norms at most ``radius``.

    Derivation (triangle plus Young inequalities, componentwise): with
    ``|x_1| <= R`` the squared drift components are bounded by

        b1^2 <= beta^2 R^2 y_3^2
        b2^2 <= 2 beta^2 R^2 y_3^2 + 2 sigma_act^2 x_2^2
        b3^2 <= 2 sigma_act^2 x_2^2 + 2 (gamma+rho)^2 x_3^2
        b4^2 = gamma^2 x_3^2
        b5^2 <= 2 rho^2 x_3^2 + 2 theta^2 x_5^2
        b6^2 = theta^2 x_5^2

    so ``|b|^2 <= C_b (|x|^2 + |y|^2)`` with ``C_b`` the largest collected
    coefficient, and the diagonal diffusion satisfies
    ``|g|^2 <= max(noise)^2 |x|^2``.  The bound is restricted to a ball
    because the transmission term is quadratic: the ratio grows linearly
    in the radius and no radius-free constant exists.
    """
    radius = check("growth_bound", {"radius": POSITIVE}, radius=radius)["radius"]
    # squares as float products, which overflow to +inf where ** raises
    br, gr, noise = p.beta * radius, p.removal_rate, p.noise.max_intensity
    drift_coeff = max(
        3.0 * (br * br),
        4.0 * (p.sigma_act * p.sigma_act),
        2.0 * (gr * gr) + p.gamma * p.gamma + 2.0 * (p.rho * p.rho),
        3.0 * (p.theta * p.theta),
    )
    return drift_coeff + noise * noise


def lipschitz_constant(p: ModelParams, radius: float) -> float:
    """Explicit constant L(R) with
    ``|b(x,y) - b(x',y')| <= L (|x-x'| + |y-y'|)`` on the radius-R ball.

    Each flow appears in exactly two drift components, so the l1 norm of
    the component differences is bounded by ``2 max(beta R, sigma_act,
    gamma+rho, theta)`` times the l1 norms of the state differences;
    ``sqrt(6)`` converts l1 to the Euclidean norm used in the estimate.
    """
    radius = check("lipschitz_bound", {"radius": POSITIVE}, radius=radius)["radius"]
    return math.sqrt(6.0) * 2.0 * max(
        p.beta * radius, p.sigma_act, p.removal_rate, p.theta
    )


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of a sampled bound verification."""

    max_ratio: float
    bound: float
    passed: bool
    sample_count: int
    radius: float


def _sample_nonnegative_ball(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    # Directions from folded normals (uniform over the nonnegative part of
    # the sphere), radii pushed toward the boundary where the bounds are
    # tightest.
    direction = np.abs(rng.standard_normal((count, 6)))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / 6.0)
    return direction / norms * radii[:, None]


def _check_sampled_bound(constant, p, sample_count, radius, rng_seed, points, terms) -> BoundCheckReport:
    """Compare ``constant(p, radius)`` with the largest ratio over
    ``sample_count`` draws of ``points`` nonnegative points in the radius
    ball, drawn in chunks in argument order; ``terms`` gives each draw's
    numerator and denominator, and draws with a zero denominator are
    skipped.  A constant, term or ratio beyond the float range would make
    the report vacuous, so it raises :class:`ConfigurationError`."""
    sample_count = check("sampled_bound", {"sample_count": COUNT}, sample_count=sample_count)["sample_count"]
    bound = constant(p, radius)
    rng = np.random.default_rng(rng_seed)
    max_ratio = 0.0
    remaining = sample_count
    # overflow is detected below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        while remaining > 0:
            chunk = min(remaining, 1 << 17)
            num, den = terms(*[_sample_nonnegative_ball(rng, chunk, radius) for _ in range(points)])
            valid = den > 0.0
            ratios = num[valid] / den[valid]
            if not (math.isfinite(bound) and np.isfinite(num).all() and np.isfinite(den).all()
                    and np.isfinite(ratios).all()):
                raise ConfigurationError(
                    f"sampled_bound: at radius {radius:g} the bound ({bound:g}) or a sampled ratio "
                    f"overflows the float range; lower the radius or the rates"
                )
            if ratios.size:
                max_ratio = max(max_ratio, float(np.max(ratios)))
            remaining -= chunk
    return BoundCheckReport(max_ratio, bound, max_ratio <= bound, sample_count, radius)


def verify_growth_bound(
    p: ModelParams, sample_count: int, radius: float, rng_seed: int
) -> BoundCheckReport:
    """Sample the growth ratio ``(|b|^2 + |g|^2) / (1 + |x|^2 + |y|^2)``
    over random nonnegative pairs in the radius ball and compare its
    maximum against :func:`growth_bound_constant`.
    """

    def terms(x, y):
        b, g = drift(x, y, p), diffusion(x, p)
        num = np.sum(b * b, axis=1) + np.sum(g * g, axis=1)
        return num, 1.0 + np.sum(x * x, axis=1) + np.sum(y * y, axis=1)

    return _check_sampled_bound(growth_bound_constant, p, sample_count, radius, rng_seed, 2, terms)


def verify_lipschitz_bound(
    p: ModelParams, sample_count: int, radius: float, rng_seed: int
) -> BoundCheckReport:
    """Sample ``|b(x,y) - b(x',y')| / (|x-x'| + |y-y'|)`` over random
    nonnegative pairs in the radius ball and compare its maximum against
    :func:`lipschitz_constant`.
    """

    def terms(x, y, x2, y2):
        num = np.linalg.norm(drift(x, y, p) - drift(x2, y2, p), axis=1)
        return num, np.linalg.norm(x - x2, axis=1) + np.linalg.norm(y - y2, axis=1)

    return _check_sampled_bound(lipschitz_constant, p, sample_count, radius, rng_seed, 4, terms)


def generator_growth_constant(p: ModelParams) -> float:
    """Constant C in the squared-norm generator estimate
    ``LV <= C (1 + |X(t)|^2 + |X(t-tau)|^2)`` with ``V = |X|^2``.

    Derived by Young's inequality on the cross terms over the nonnegative
    region with the delayed spreader density bounded by the population
    scale (which holds for projected density simulations): collecting
    coefficients per squared component gives

        S:  beta N + n_S^2        E:  beta N + sigma_act + n_E^2
        I:  sigma_act + gamma + rho + n_I^2
        R:  gamma + n_R^2         Ig: rho + theta + n_Ig^2
        F:  theta + n_F^2

    and C is their maximum.
    """
    bn = p.beta * p.population
    n = p.noise
    # squares as float products, which overflow to +inf where ** raises
    return max(
        bn + n.s * n.s,
        bn + p.sigma_act + n.e * n.e,
        p.sigma_act + p.gamma + p.rho + n.i * n.i,
        p.gamma + n.r * n.r,
        p.rho + p.theta + n.ig * n.ig,
        p.theta + n.f * n.f,
    )


def second_moment_envelope(
    p: ModelParams,
    initial_sq_norm: float,
    times: np.ndarray,
) -> np.ndarray:
    """Gronwall envelope ``(V0 + C t) * exp(2 C t)`` dominating the
    expected squared norm of non-exploding solutions.

    ``C`` comes from :func:`generator_growth_constant`; the delayed squared
    norm is assumed bounded by the current one.  The envelope is deliberately crude - its role
    is to certify the absence of blow-up, not to be tight.  Values whose
    logarithm exceeds the float range saturate at ~8e307 instead of
    overflowing to infinity; so does every ``t > 0`` when ``C`` is
    infinite, where ``t = 0`` keeps ``V0``.
    """
    v0 = check("envelope", {"initial_sq_norm": NONNEGATIVE}, initial_sq_norm=initial_sq_norm)["initial_sq_norm"]
    t = np.asarray(times, dtype=float)
    c = generator_growth_constant(p)
    if c == math.inf:  # C t is NaN at t = 0
        return np.where(t == 0.0, v0, np.exp(709.0))
    with np.errstate(divide="ignore"):  # log(0) = -inf at V0 = t = 0, where the envelope is 0
        log_env = np.log(v0 + c * t) + 2.0 * c * t
    return np.exp(np.minimum(log_env, 709.0))


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


def _linearized_drift(p: ModelParams, x, out):
    # The lab's drift, bound like ``model._drift_with_delayed_i`` but to ``(2, runs)``
    # arrays: ``step(D)`` writes ``(bN D - sigma E, sigma E - (gamma + rho) I)`` as
    # head - tail of the flows (transmission, activation, removal), full rows throughout.
    rates = np.repeat([[p.sigma_act], [p.removal_rate]], x.shape[1], axis=1)
    bn = np.full(x.shape[1], p.beta * p.population)
    flows = np.empty((3, x.shape[1]))
    transmission, head, tail = flows[0], flows[:2], flows[1:]
    multiply, subtract = np.multiply, np.subtract

    def step(i_delayed):
        multiply(rates, x, tail)
        multiply(bn, i_delayed, transmission)
        subtract(head, tail, out)

    return step


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

    The second moment is reduced per block of recorded rows that the
    kernel sizes and hands over, so memory scales with ``run_count`` times
    one block plus the estimate, not with the recorded paths; a non-finite
    state names its run and seed.  Verdict: decay if the terminal estimate
    fell below ``DECAY_RATIO`` times the initial one, growth if it rose
    above ``GROWTH_RATIO`` times, inconclusive in between.
    """
    check("stability", STABILITY_RULES, e0=e0, i0=i0, run_count=run_count)
    rows = cfg.recorded_count
    check_memory(cfg, [(p, run_count)], 2, 2 * rows)  # the estimate and its times

    ms_estimate = np.empty(rows)

    def reduce(first, recorded):  # the kernel reads no row again, so they take their squares
        with np.errstate(over="ignore"):  # finite states whose squares overflow are reported below
            squares = np.square(recorded, out=recorded)
            ms_estimate[first : first + len(recorded)] = squares.sum(axis=1).mean(axis=1)

    early = np.full(delay_steps(p.tau, cfg), i0)
    noise_pair = np.array([p.noise.e, p.noise.i])
    seeds = seed_array([derive_seed(base_seed, j) for j in range(run_count)])
    increments = increment_chunks(seeds, 2, cfg.step_count, cfg.step_size)
    drift = functools.partial(_linearized_drift, p)
    try:
        euler_maruyama(drift, (e0, i0), [(run_count, early)], 1, noise_pair, increments, cfg, reduce, False)
    except NumericsError as exc:
        raise NumericsError(
            f"linearized second moment overflowed at step {exc.step} (t={exc.step * cfg.step_size:g}) "
            f"in run {exc.run} (seed {seeds[exc.run]}); shorten the horizon", step=exc.step, run=exc.run,
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
