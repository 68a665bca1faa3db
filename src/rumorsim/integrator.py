"""Euler-Maruyama integration of the delayed system with a ring-buffer
delay, optional nonnegativity projection, and deterministic counter-based
noise.

One streaming kernel, :func:`euler_maruyama`, integrates batches of runs
of the full model and of the linearized stability subsystem; its memory
scales with what is recorded, not with the step count.

The delay must land on the step grid (``tau = k * h`` exactly, within a
1e-9 relative rounding allowance): the delayed spreader value at step
``n >= k`` is that of step ``n - k`` exactly, and comes from the initial
history function before that.  Requiring grid alignment avoids
silent interpolation error inside the delayed drift term.

With all noise intensities zero and no projection events the Euler step
preserves the population sum exactly up to rounding, because the drift
components cancel pairwise.  Under noise the six perturbations are
independent and do not sum to zero, so stochastic paths do not conserve
the population; nothing is renormalized.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericsError
from .model import (
    CSV_COMPARTMENTS,
    HistoryFunction,
    ModelParams,
    StateVector,
    _drift_with_delayed_i,
)
from .rng import normal_block, seed_array

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "simulate_paths",
    "generator_growth_constant",
    "second_moment_envelope",
    "write_trajectory_csv",
]

_GRID_RTOL = 1e-9

# Noise is drawn in step chunks of about this many draws, which keeps a
# chunk and the temporaries of its generation in cache; on the benchmark's
# wide batches a whole-horizon block costs about twice as much per draw.
_NOISE_CHUNK_DRAWS = 32_768

CSV_FLOAT_FORMAT = "%.9g"


def steps_on_grid(value: float, step_size: float, what: str) -> int:
    """Number of steps covering ``value``, requiring an integral ratio."""
    ratio = value / step_size
    n = round(ratio)
    if abs(ratio - n) > _GRID_RTOL * max(1.0, abs(ratio)):
        raise ConfigurationError(
            f"{what} ({value:g}) must be an integer multiple of the step size "
            f"({step_size:g}); got ratio {ratio!r}"
        )
    return int(n)


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon, projection switch, and recording stride.

    The horizon must be a whole number of steps and the step count a whole
    number of recording strides so the recorded grid always contains both
    ``t = 0`` and ``t = horizon``.
    """

    step_size: float = 0.1
    horizon: float = 200.0
    projection_enabled: bool = True
    record_stride: int = 1

    def __post_init__(self):
        if not (self.step_size > 0.0 and np.isfinite(self.step_size)):
            raise ConfigurationError(f"step_size must be > 0, got {self.step_size!r}")
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ConfigurationError(f"horizon must be > 0, got {self.horizon!r}")
        if not isinstance(self.record_stride, int) or self.record_stride < 1:
            raise ConfigurationError(
                f"record_stride must be a positive integer, got {self.record_stride!r}"
            )
        n = steps_on_grid(self.horizon, self.step_size, "horizon")
        if n < 1:
            raise ConfigurationError("horizon must cover at least one step")
        if n % self.record_stride != 0:
            raise ConfigurationError(
                f"step count {n} is not a multiple of record_stride {self.record_stride}"
            )

    @property
    def step_count(self) -> int:
        return steps_on_grid(self.horizon, self.step_size, "horizon")

    @property
    def recorded_count(self) -> int:
        """Number of recorded points, including t=0."""
        return self.step_count // self.record_stride + 1


@dataclass(frozen=True)
class Trajectory:
    """One realization on the recorded grid.

    ``times`` is uniform with spacing ``step_size * record_stride`` and
    includes both endpoints; ``states`` has one row per recorded time;
    ``projection_event_count`` counts the steps at which at least one
    component was clamped to zero.
    """

    times: np.ndarray
    states: np.ndarray
    projection_event_count: int

    def __post_init__(self):
        if self.states.shape != (self.times.size, 6):
            raise ValueError("states must be (len(times), 6)")

    def compartment(self, name: str) -> np.ndarray:
        """Column for a compartment, by lower- or CSV-case name."""
        key = name.lower()
        names = [c.lower() for c in CSV_COMPARTMENTS]
        if key not in names:
            raise KeyError(f"unknown compartment {name!r}")
        return self.states[:, names.index(key)]

    def final_state(self) -> StateVector:
        """Terminal state; components are clamped at zero, which only
        matters for trajectories integrated with projection disabled."""
        return StateVector.from_array(np.maximum(self.states[-1], 0.0))


def euler_maruyama(
    drift, start, early_delayed, delayed_column, noise, seeds, cfg, record, project
) -> tuple[np.ndarray, np.ndarray]:
    """Stream ``X(n+1) = X(n) + drift(X(n), D(n)) h + (noise * X(n)) *
    sqrt(h) Z(n)`` for one run per seed.

    ``D(n)`` is column ``delayed_column`` of ``X(n - k)``, or
    ``early_delayed[n]`` for the first ``k = len(early_delayed)`` steps; a
    ring buffer holds the ``k + 1`` delayed values still to be read, and no
    other past state is kept.  ``Z(n)`` is each run's counter stream at step
    ``n``, drawn step-major in chunks.  ``record(row, x)`` receives the
    start as row 0 and every ``cfg.record_stride``-th state after it.  With
    ``project``, negative components are clamped to zero after each step.
    Returns the terminal state and the per-run count of clamped steps;
    raises :class:`NumericsError` with ``step`` and ``run`` set.
    """
    seeds = seed_array(seeds)
    h, n_steps, stride, k = cfg.step_size, cfg.step_count, cfg.record_stride, len(early_delayed)
    x = np.empty((seeds.size, noise.size))
    x[...] = start
    lag = np.empty((k + 1, seeds.size))
    lag[:k] = np.reshape(early_delayed, (k, 1))
    lag[k] = x[:, delayed_column]
    record(0, x)
    projection_counts = np.zeros(seeds.size, dtype=np.int64)
    noisy = bool(np.any(noise > 0.0))
    chunk = max(1, _NOISE_CHUNK_DRAWS // x.size)

    for step in range(n_steps):
        if noisy and step % chunk == 0:
            dw = normal_block(seeds, min(chunk, n_steps - step), noise.size, step_offset=step)
            dw *= np.sqrt(h)
        slot = step % (k + 1)
        x_next = x + drift(x, lag[slot]) * h
        if noisy:
            x_next += (noise * x) * dw[step % chunk]
        if project:
            clamped = x_next < 0.0
            if clamped.any():
                projection_counts += clamped.any(axis=1)
                np.maximum(x_next, 0.0, out=x_next)
        finite = np.isfinite(x_next)
        if not finite.all():
            bad = int(np.argwhere(~finite.all(axis=1))[0, 0])
            raise NumericsError(
                f"non-finite state at step {step + 1} (t={(step + 1) * h:g}) "
                f"in run index {bad} (seed {seeds[bad]})",
                step=step + 1,
                run=bad,
            )
        lag[slot] = x_next[:, delayed_column]  # D(step + k + 1) replaces D(step)
        x = x_next
        if (step + 1) % stride == 0:
            record((step + 1) // stride, x)
    return x, projection_counts


def stream_model(
    p: ModelParams, history: HistoryFunction, cfg: IntegratorConfig, seeds, record, beta=None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`euler_maruyama` for the model, one run per seed; ``beta``, if
    given, is a per-run transmission rate replacing ``p.beta``."""
    history.validate_for(p)
    h = cfg.step_size
    # the first k = tau / h steps read the delayed spreader from the history
    lags = np.arange(steps_on_grid(p.tau, h, "tau")) * h - p.tau
    if not history.is_constant:
        # guard against rounding a hair past the sampled span
        lags = np.clip(lags, -history.span, 0.0)
    return euler_maruyama(
        lambda x, i_delayed: _drift_with_delayed_i(x, i_delayed, p, beta),
        history(0.0), history(lags)[:, 2], 2, p.noise.as_array(), seeds, cfg, record,
        cfg.projection_enabled,
    )


def simulate_paths(
    p: ModelParams,
    history: HistoryFunction,
    cfg: IntegratorConfig,
    seeds,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate one path per seed on a shared grid.

    Returns ``(times, paths, projection_counts)`` where ``paths`` has shape
    ``(len(seeds), recorded_count, 6)``.  Row ``j`` is bit-identical to the
    single-path result for ``seeds[j]``: the noise is a pure function of
    ``(seed, step)`` and all state updates are elementwise.  Memory scales
    with the recorded rows, not with the step count.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    paths = np.empty((len(seeds), cfg.recorded_count, 6))

    def record(row, x):
        paths[:, row] = x

    _, projection_counts = stream_model(p, history, cfg, seeds, record)
    times = cfg.step_size * np.arange(0, cfg.step_count + 1)[:: cfg.record_stride]
    return times, paths, projection_counts


def integrate(
    p: ModelParams,
    history: HistoryFunction,
    cfg: IntegratorConfig,
    rng_seed: int,
) -> Trajectory:
    """Integrate a single realization.

    The recursion is ``X(t+h) = X(t) + b(X(t), X(t-tau)) h + g(X(t)) * dW``
    with ``dW`` a vector of six independent Gaussian increments of variance
    ``h`` drawn from the counter stream of ``rng_seed``.  When projection
    is enabled, negative components are clamped to zero after the full
    step and the clamped steps are counted.  The result is a deterministic
    function of ``(p, history, cfg, rng_seed)``.

    Raises :class:`ConfigurationError` if the delay or horizon is not a
    whole number of steps, and :class:`NumericsError` if any state becomes
    non-finite.
    """
    times, paths, counts = simulate_paths(p, history, cfg, [rng_seed])
    return Trajectory(times=times, states=paths[0], projection_event_count=int(counts[0]))


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
    return max(
        bn + n.s**2,
        bn + p.sigma_act + n.e**2,
        p.sigma_act + p.gamma + p.rho + n.i**2,
        p.gamma + n.r**2,
        p.rho + p.theta + n.ig**2,
        p.theta + n.f**2,
    )


def second_moment_envelope(
    p: ModelParams,
    initial_sq_norm: float,
    times: np.ndarray,
    razumikhin_q: float = 1.0,
) -> np.ndarray:
    """Gronwall envelope ``(V0 + C t) * exp(C (1 + q) t)`` dominating the
    expected squared norm of non-exploding solutions.

    ``C`` comes from :func:`generator_growth_constant`; ``q >= 0`` weights
    the delayed term (the delayed squared norm is assumed bounded by ``q``
    times the current one).  The envelope is deliberately crude - its role
    is to certify the absence of blow-up, not to be tight.  Values whose
    logarithm exceeds the float range saturate at ~8e307 instead of
    overflowing to infinity.
    """
    if initial_sq_norm < 0:
        raise ValueError("initial_sq_norm must be >= 0")
    if razumikhin_q < 0:
        raise ValueError("razumikhin_q must be >= 0")
    t = np.asarray(times, dtype=float)
    c = generator_growth_constant(p)
    log_env = np.log(initial_sq_norm + c * t) + c * (1.0 + razumikhin_q) * t
    return np.exp(np.minimum(log_env, 709.0))


def _format_row(values) -> str:
    return ",".join(CSV_FLOAT_FORMAT % v for v in values)


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Write ``t,S,E,I,R,Ig,F`` rows with 9 significant digits."""
    buf = io.StringIO()
    buf.write("t," + ",".join(CSV_COMPARTMENTS) + "\n")
    for t, row in zip(trajectory.times, trajectory.states):
        buf.write(_format_row([t, *row]) + "\n")
    with open(path, "w", newline="\n") as fh:
        fh.write(buf.getvalue())
