"""Six-compartment delayed rumor-propagation model: parameters, state space
and the rules that check them, drift/diffusion fields, the basic
reproduction number, initial histories and defaults; the theory built on
it sits in :mod:`rumorsim.stability`, beside the lab that checks it.

The population splits into susceptible ``S``, exposed ``E``, spreading
``I``, removed ``R``, skeptical ``Ig``, and fact-checked ``F`` classes.
One realization follows the Ito system

    dS  = -beta * S * I(t - tau)              dt + n_S  * S  dW_S
    dE  = (beta * S * I(t - tau) - sigma_act * E) dt + n_E  * E  dW_E
    dI  = (sigma_act * E - (gamma + rho) * I) dt + n_I  * I  dW_I
    dR  = gamma * I                           dt + n_R  * R  dW_R
    dIg = (rho * I - theta * Ig)              dt + n_Ig * Ig dW_Ig
    dF  = theta * Ig                          dt + n_F  * F  dW_F

with independent Wiener processes and a discrete information delay ``tau``.
The drift moves mass between compartments only, so its six components sum
to zero and the deterministic flow conserves the total population ``N``.
Every diffusion coefficient is proportional to its own state component
(multiplicative noise), which makes the nonnegative orthant absorbing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "COMPARTMENTS",
    "CSV_COMPARTMENTS",
    "DEFAULT_NOISE_INTENSITY",
    "DEFAULT_SPREADER_FRACTION",
    "HistoryFunction",
    "ModelParams",
    "NoiseIntensities",
    "StateVector",
    "default_initial_state",
    "default_params",
    "diffusion",
    "drift",
    "reproduction_number",
]

COMPARTMENTS = ("s", "e", "i", "r", "ig", "f")
CSV_COMPARTMENTS = ("S", "E", "I", "R", "Ig", "F")

# Default noise level for the bundled reference regime.  The reference
# table fixes only tau, R0 and beta; the noise intensities are a
# calibration assumption.  0.01 keeps sub-threshold runs quiescent over a
# horizon of 200 time units and matches the dispersion of the reference
# statistics; larger values (>= 0.05) let the susceptible pool wander
# super-critical through its own noise and ignite spurious outbreaks.
DEFAULT_NOISE_INTENSITY = 0.01

# Default initial spreader share of the population (rest susceptible).
DEFAULT_SPREADER_FRACTION = 0.005

NONNEGATIVE = (float, ">= 0", lambda v: v >= 0.0)
POSITIVE = (float, "> 0", lambda v: v > 0.0)
COUNT = (int, ">= 1", lambda v: v >= 1)

# The rules of each block of fields, in the order their violations are
# reported; one table serves a config file (see :mod:`rumorsim.config`) and
# the library's constructors and entry points (see :func:`check`).  A rule
# is a type, a ``(type, bound, test)`` triple, a frozenset of the strings
# allowed, a one-rule list for a non-empty list of values that pass it, or
# the rules of the noise object.
COMPARTMENT_RULES = dict.fromkeys(COMPARTMENTS, NONNEGATIVE)
MODEL_RULES = {
    "beta": NONNEGATIVE, "sigma_act": POSITIVE, "gamma": POSITIVE, "rho": POSITIVE,
    "theta": POSITIVE, "tau": NONNEGATIVE, "population": POSITIVE, "noise": COMPARTMENT_RULES,
}
# here rather than beside their code, so that reading a config loads neither
# the sweep (:mod:`rumorsim.ablation`) nor the lab (:mod:`rumorsim.stability`)
SWEEP_RULES = {"taus": [NONNEGATIVE], "r0_values": [POSITIVE], "run_count": COUNT}
STABILITY_RULES = {"e0": NONNEGATIVE, "i0": NONNEGATIVE, "run_count": COUNT}

_KINDS = {
    float: (numbers.Real, "a number"), int: (numbers.Integral, "an integer"),
    bool: (bool, "true or false"), str: (str, "a non-empty string"),
}


class _Reader:
    """Reads values by their rules, recording every violation; a value that
    breaks its rule reads as its default."""

    def __init__(self):
        self.errors: list[str] = []

    def reject(self, message: str, default):
        self.errors.append(message)
        return default

    def block(self, raw, path: str, rules: dict, default, what: str = "") -> dict:
        """The fields of the object ``raw``, a missing one at its value in ``default``."""
        if not isinstance(raw, dict):
            raw = self.reject(f"{path}: must be an object{what}", {})
        self.errors += [f"{path}.{key}: unknown field" for key in raw if key not in rules]
        values = {}
        for name, rule in rules.items():
            fallback = getattr(default, name)
            values[name] = self.read(raw[name], f"{path}.{name}", rule, fallback) if name in raw else fallback
            # the one rule on two fields, reported as soon as both are read
            if path == "stability" and name == "i0" and values["e0"] == values["i0"] == 0.0:
                self.errors.append("stability.e0/i0: must not both be zero")
        return values

    def read(self, value, path: str, rule, default):
        """``value`` if it passes ``rule``, else ``default``."""
        if isinstance(rule, dict):
            noise = self.block(value, path, rule, default, " with per-compartment intensities")
            return NoiseIntensities(**noise)
        if isinstance(rule, frozenset):
            if value not in sorted(rule):  # a list: a JSON value may be unhashable
                return self.reject(f"{path}: must be one of {sorted(rule)}, got {value!r}", default)
            return value
        if isinstance(rule, list):  # each item read by the one rule, every bad one reported
            if not isinstance(value, (list, tuple)) or not value:
                noun = f"drawn from {sorted(rule[0])}" if isinstance(rule[0], frozenset) else "of numbers"
                return self.reject(f"{path}: must be a non-empty list {noun}", default)
            before = len(self.errors)
            items = tuple(self.read(item, f"{path}[{k}]", rule[0], None) for k, item in enumerate(value))
            return items if len(self.errors) == before else default
        kind, bound, test = rule if isinstance(rule, tuple) else (rule, None, None)
        types, noun = _KINDS[kind]
        # JSON's true and false are Python ints, but neither numbers nor integers here
        if not isinstance(value, types) or isinstance(value, bool) is not (kind is bool) or value == "":
            return self.reject(f"{path}: must be {noun}", default)
        if kind is float:
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the float range
                value = math.inf
            if not math.isfinite(value):
                return self.reject(f"{path}: must be finite", default)
        if bound and not test(value):
            shown = f"{value:g}" if kind is float else value
            return self.reject(f"{path}: must be {bound}, got {shown}", default)
        return value


def check(path: str, rules: dict, **values) -> dict:
    """``values`` as ``rules`` read them (numbers as floats, lists as tuples);
    raises :class:`ConfigurationError` listing every one that breaks its
    rule as ``path.name: must be ...``, in a config file's words."""
    reader = _Reader()
    read = reader.block(values, path, {name: rules[name] for name in values}, SimpleNamespace(**values))
    if reader.errors:
        raise ConfigurationError(reader.errors)
    return read


def store_checked(obj, path: str, rules: dict, **values) -> None:
    """Keep ``values`` on the frozen dataclass ``obj`` as :func:`check` reads them."""
    for name, value in check(path, rules, **values).items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class NoiseIntensities:
    """Per-compartment multiplicative noise intensities (all >= 0)."""

    s: float = DEFAULT_NOISE_INTENSITY
    e: float = DEFAULT_NOISE_INTENSITY
    i: float = DEFAULT_NOISE_INTENSITY
    r: float = DEFAULT_NOISE_INTENSITY
    ig: float = DEFAULT_NOISE_INTENSITY
    f: float = DEFAULT_NOISE_INTENSITY

    def __post_init__(self):
        store_checked(self, "model.noise", COMPARTMENT_RULES, **vars(self))

    @classmethod
    def uniform(cls, level: float) -> "NoiseIntensities":
        return cls(level, level, level, level, level, level)

    @classmethod
    def zero(cls) -> "NoiseIntensities":
        return cls.uniform(0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.s, self.e, self.i, self.r, self.ig, self.f])

    @property
    def max_intensity(self) -> float:
        return float(np.max(self.as_array()))


@dataclass(frozen=True)
class ModelParams:
    """Rate constants, delay, noise intensities, and population size.

    ``beta`` is the transmission rate, ``sigma_act`` the exposed-to-spreader
    activation rate, ``gamma`` the loss-of-interest rate, ``rho`` the
    spreader-to-skeptical rate, and ``theta`` the fact-checking rate.  The
    activation rate is deliberately not called ``sigma`` so it can never be
    confused with the noise intensities.

    ``beta`` may be zero (no transmission; useful for degenerate checks);
    the four other rates must be strictly positive.
    """

    beta: float
    sigma_act: float
    gamma: float
    rho: float
    theta: float
    tau: float = 0.0
    noise: NoiseIntensities = NoiseIntensities()
    population: float = 1.0

    def __post_init__(self):
        if not isinstance(self.noise, NoiseIntensities):
            raise TypeError("noise must be a NoiseIntensities instance")
        store_checked(self, "model", MODEL_RULES, **{k: v for k, v in vars(self).items() if k != "noise"})

    @property
    def removal_rate(self) -> float:
        """Total exit rate from the spreader class, gamma + rho."""
        return self.gamma + self.rho


@dataclass(frozen=True)
class StateVector:
    """One point (s, e, i, r, ig, f) in compartment space, componentwise >= 0."""

    s: float
    e: float
    i: float
    r: float
    ig: float
    f: float

    def __post_init__(self):
        store_checked(self, "initial", COMPARTMENT_RULES, **vars(self))

    def as_array(self) -> np.ndarray:
        return np.array([self.s, self.e, self.i, self.r, self.ig, self.f])

    @property
    def total(self) -> float:
        return self.s + self.e + self.i + self.r + self.ig + self.f


def _state_array(x) -> np.ndarray:
    if isinstance(x, StateVector):
        return x.as_array()
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1] != 6:
        raise ValueError(f"state arrays must have 6 trailing components, got shape {arr.shape}")
    return arr


def _drift_with_delayed_i(c, x, out):
    # Shared kernel, component-major: ``x`` and ``out`` are ``(6, n)``
    # arrays, and the returned ``step(i_delayed)`` writes the drift at ``x``
    # into ``out``, every operand and view bound here; ``c`` holds beta,
    # gamma, rho, sigma_act and theta, each one value or one per run.  Each
    # flow is computed once and reused with both signs, so the components
    # cancel to zero up to the final rounding; stacked rows share one call.
    beta, gamma, rho, sigma_act, theta = c
    rates = np.empty((2, x.shape[1]))
    rates[0], rates[1] = beta, sigma_act
    outflows = np.array(np.broadcast_arrays(gamma, rho), dtype=float).reshape(2, -1)
    theta = np.array(theta, dtype=float)
    flows = np.empty((3, x.shape[1]))  # transmission, activation, removal + skepticism
    transmission, head, tail = flows[0], flows[:2], flows[1:]
    s_e, i, ig = x[:2], x[2], x[4]
    d_s, d_e_i, d_r_ig, d_r, d_ig, d_f = out[0], out[1:3], out[3:5], out[3], out[4], out[5]
    multiply, add, subtract, negative = np.multiply, np.add, np.subtract, np.negative

    def step(i_delayed):
        multiply(rates, s_e, head)  # beta S, activation
        multiply(transmission, i_delayed, transmission)
        multiply(outflows, i, d_r_ig)  # removal, skepticism
        add(d_r, d_ig, flows[2])
        # transmission - activation, activation - (removal + skepticism)
        subtract(head, tail, d_e_i)
        negative(transmission, d_s)
        multiply(theta, ig, d_f)  # verification
        subtract(d_ig, d_f, d_ig)  # skepticism - verification

    return step


def drift(x, x_delayed, p: ModelParams) -> np.ndarray:
    """Deterministic rate of change at state ``x`` given the delayed state.

    Only the spreader component of ``x_delayed`` enters (the delayed
    transmission term).  Accepts :class:`StateVector` or arrays with six
    trailing components (leading axes are broadcast), and returns an array
    of the same shape.  Total function on nonnegative inputs; components
    sum to zero.
    """
    xa = _state_array(x)
    ya = _state_array(x_delayed)
    out = np.empty(xa.shape)
    i_delayed = np.broadcast_to(ya[..., 2], xa.shape[:-1]).reshape(-1)
    rates = (p.beta, p.gamma, p.rho, p.sigma_act, p.theta)
    _drift_with_delayed_i(rates, xa.reshape(-1, 6).T, out.reshape(-1, 6).T)(i_delayed)
    return out


def diffusion(x, p: ModelParams) -> np.ndarray:
    """Diagonal diffusion coefficients ``noise_k * x_k``.

    Multiplicative: a component's coefficient vanishes exactly when the
    component is zero, so noise alone never pushes mass across zero.
    """
    xa = _state_array(x)
    return p.noise.as_array() * xa


def reproduction_number(p: ModelParams) -> float:
    """Basic reproduction number ``beta * N / (gamma + rho)``."""
    return p.beta * p.population / p.removal_rate


class HistoryFunction:
    """Initial trajectory segment on ``[-span, 0]``: states sampled on an
    increasing grid ending at 0, read by linear interpolation.

    A constant history is the one-point grid ``[0]``, which reaches every
    lag (``span`` is ``inf``).  Samples must be componentwise nonnegative;
    whether they sum to the population is checked against concrete
    parameters by :meth:`validate_for`.  The object keeps copies of the
    grid and samples it is given.
    """

    def __init__(self, xi_grid: np.ndarray, samples: np.ndarray):
        xi_grid = np.array(xi_grid, dtype=float)
        samples = np.array(samples, dtype=float)
        if xi_grid.ndim != 1 or samples.shape != (xi_grid.size, 6):
            raise ValueError("history samples must be an (m, 6) array aligned with the grid")
        if xi_grid.size == 0:
            raise ValueError("history grid must hold at least one point")
        if xi_grid[-1] != 0.0:
            raise ValueError("history grid must end at 0")
        if xi_grid.size > 1 and np.any(np.diff(xi_grid) <= 0.0):
            raise ValueError("history grid must be strictly increasing")
        if not np.all(np.isfinite(samples)):
            raise ValueError("history samples must be finite")
        if np.any(samples < 0.0):
            raise ValueError("history samples must be componentwise >= 0")
        self._xi = xi_grid
        self._samples = samples

    @classmethod
    def constant(cls, state) -> "HistoryFunction":
        """Constant history equal to ``state`` for all lags."""
        arr = _state_array(state)
        if arr.shape != (6,):
            raise ValueError("constant history takes a single state")
        return cls(np.array([0.0]), arr[None, :])

    @classmethod
    def sampled(cls, states, span: float) -> "HistoryFunction":
        """History sampled on a uniform grid over ``[-span, 0]``."""
        samples = np.array([_state_array(s) for s in states], dtype=float)
        if samples.ndim != 2 or samples.shape[0] < 2:
            raise ValueError("sampled history needs at least two states")
        span = check("history", {"span": POSITIVE}, span=span)["span"]
        xi = np.linspace(-span, 0.0, samples.shape[0])
        return cls(xi, samples)

    @property
    def is_constant(self) -> bool:
        return self._xi.size == 1

    @property
    def span(self) -> float:
        return math.inf if self.is_constant else float(-self._xi[0])

    def __call__(self, xi) -> np.ndarray:
        """Evaluate the history at lag(s) ``xi <= 0``."""
        xi_arr = np.asarray(xi, dtype=float)
        if not np.all((-self.span - 1e-12 <= xi_arr) & (xi_arr <= 1e-12)):
            raise ValueError(f"history defined on [{-self.span:g}, 0], evaluated outside")
        return np.stack([np.interp(xi_arr, self._xi, column) for column in self._samples.T], axis=-1)

    def validate_for(self, p: ModelParams) -> None:
        """Check the history is usable with ``p``: the span covers the
        delay and every sample sums to the population."""
        if self.span < p.tau * (1.0 - 1e-12):
            raise ValueError(
                f"history span {self.span:g} does not cover the delay {p.tau:g}"
            )
        sums = self._samples.sum(axis=1)
        tol = 1e-9 * p.population
        worst = float(np.max(np.abs(sums - p.population)))
        if worst > tol:
            raise ValueError(
                f"history samples must sum to the population {p.population:g} "
                f"(worst residual {worst:.3g})"
            )


def default_params(
    tau: float = 0.0,
    r0: float = 2.0,
    noise_level: float = DEFAULT_NOISE_INTENSITY,
) -> ModelParams:
    """Parameters of the bundled reference regime.

    The reference statistics fix only ``tau``, ``R0`` and
    ``beta = 0.15 * R0`` (densities, ``N = 1``).  The remaining values are
    documented assumptions: ``gamma = 0.10``, ``rho = 0.05`` (their sum is
    forced by the beta column), ``sigma_act = 0.25``, ``theta = 0.10``,
    uniform noise at ``noise_level``.
    """
    return ModelParams(
        beta=0.15 * r0,
        sigma_act=0.25,
        gamma=0.10,
        rho=0.05,
        theta=0.10,
        tau=tau,
        noise=NoiseIntensities.uniform(noise_level),
        population=1.0,
    )


def default_initial_state(p: ModelParams) -> StateVector:
    """Default seeding: a small spreader share, everyone else susceptible."""
    i0 = DEFAULT_SPREADER_FRACTION * p.population
    return StateVector(s=p.population - i0, e=0.0, i=i0, r=0.0, ig=0.0, f=0.0)
