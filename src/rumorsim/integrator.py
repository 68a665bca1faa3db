"""Euler-Maruyama integration of the delayed system with a ring-buffer
delay, optional nonnegativity projection, and deterministic counter-based
noise; and the one CSV table writer every output goes through.

One streaming kernel, :func:`euler_maruyama`, integrates batches of runs
of the full model and of the linearized stability subsystem, updating a
component-major ``(components, runs)`` state in place.  The model's one
entry, :func:`stream_model`, takes a batch as a list of ``(params, runs)``
cells, which may differ in delay, rates and noise, draws its increments
and picks its stepper by run count.  Memory scales with what is recorded.

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

import functools
import itertools
import math
import os
import struct
from array import array
from dataclasses import dataclass

import numpy as np

from . import numtext
from .errors import ConfigurationError, NumericsError
from .model import (
    COUNT,
    CSV_COMPARTMENTS,
    POSITIVE,
    HistoryFunction,
    ModelParams,
    _drift_with_delayed_i,
    store_checked,
)
from .rng import chunk_values, increment_chunks, seed_array

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "simulate_paths",
    "write_table",
    "write_trajectory_csv",
]

_GRID_RTOL = 1e-9
KEY_DECIMALS = 9

# No batch may take more path-steps (runs x steps) than this, so that every
# input ends; it is 2,500 times the 4 M path-steps of the largest
# documented workload.
_MAX_PATH_STEPS = 10_000_000_000

# The steppers hand recorded rows over in blocks of about this many values,
# so no caller holds a path per run and row.  It gives an ensemble and its
# one copy the 131,072 values that reduced the benchmark's batches fastest
# of 2**15 to 2**21; smaller blocks pay more per call than they save.
_STATS_BLOCK_VALUES = 65_536

# +inf's bits: an entry whose bits, read unsigned, are below them is finite, sign bit clear
_INF_BITS = 0x7FF0000000000000

# CSV rows are formatted and written about this many cells at a time
_CSV_CHUNK_CELLS = 4096

INTEGRATOR_RULES = {
    "step_size": POSITIVE, "horizon": POSITIVE, "projection_enabled": bool, "record_stride": COUNT,
}


def steps_on_grid(value: float, step_size: float, what: str) -> int:
    """Number of steps covering ``value``, requiring an integral ratio."""
    ratio = value / step_size
    if not np.isfinite(ratio):
        raise ConfigurationError(
            f"{what} ({value:g}) spans more steps of size {step_size:g} than can be counted"
        )
    n = round(ratio)
    if abs(ratio - n) > _GRID_RTOL * max(1.0, abs(ratio)):
        raise ConfigurationError(
            f"{what} ({value:g}) must be an integer multiple of the step size "
            f"({step_size:g}); got ratio {ratio!r}"
        )
    return int(n)


def grid_violations(step_size: float, horizon: float, record_stride: int, tau: float = 0.0) -> list[str]:
    """Every breach of the grid contract, in a config file's words: the
    horizon is a whole number of at least one step, the step count a whole
    number of recording strides, and the delay on the step grid."""
    errors = []
    try:
        n = steps_on_grid(horizon, step_size, "horizon")
        if n < 1:
            errors.append(
                f"integrator.horizon: must cover at least one step of size {step_size:g}, got {horizon:g}"
            )
        elif n % record_stride != 0:
            errors.append(f"integrator.record_stride: step count {n} is not a multiple of {record_stride}")
        steps_on_grid(tau, step_size, "tau")
    except ConfigurationError as exc:
        errors.append(f"integrator: {exc}")
    return errors


def cell_key(tau: float, r0: float) -> tuple[float, float]:
    """A sweep cell's key: two cells are one if they agree to ``KEY_DECIMALS`` decimals."""
    return (round(float(tau), KEY_DECIMALS), round(float(r0), KEY_DECIMALS))


def sweep_violations(taus, r0_values, step_size: float) -> list[str]:
    """Every breach of a sweep grid's own rules, in a config file's words:
    a repeated cell (an axis repeats a key), and each off-grid delay."""
    errors = []
    if any(len({cell_key(v, 0.0) for v in axis}) < len(axis) for axis in (taus, r0_values)):
        errors.append(
            f"sweep grid repeats a cell: taus and R0 values must each be distinct to {KEY_DECIMALS} decimals"
        )
    for k, tau in enumerate(taus):
        try:
            steps_on_grid(tau, step_size, "tau")
        except ConfigurationError as exc:
            errors.append(f"sweep.taus[{k}]: {exc}")
    return errors


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon, projection switch, and recording stride.

    The horizon must be a whole number of at least one step and the step
    count a whole number of recording strides so the recorded grid always
    contains both ``t = 0`` and ``t = horizon``.
    """

    step_size: float = 0.1
    horizon: float = 200.0
    projection_enabled: bool = True
    record_stride: int = 1

    def __post_init__(self):
        store_checked(self, "integrator", INTEGRATOR_RULES, **vars(self))
        errors = grid_violations(self.step_size, self.horizon, self.record_stride)
        if errors:
            raise ConfigurationError(errors)

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


def delay_steps(tau: float, cfg: IntegratorConfig) -> int:
    """Steps that read the delayed value from the history: ``tau / h``,
    capped at the step count, since no step beyond the horizon is taken."""
    return min(steps_on_grid(tau, cfg.step_size, "tau"), cfg.step_count)


def check_memory(cfg: IntegratorConfig, cells, components: int, held_values: int) -> None:
    """Raise :class:`ConfigurationError` when a batch of ``cells``, the
    ``(params, runs)`` pairs :func:`stream_model` takes, would hold more
    than the machine's physical memory, or take more than
    ``_MAX_PATH_STEPS`` path-steps.  The estimate adds the buffers of
    :func:`euler_maruyama`, with its delay rings at ``k + 1`` values per
    run of a cell (``D(n)`` at ``k = 0``), six drift scratch rows per run
    (the most a drift binds), the noise chunk that :mod:`rumorsim.rng`
    sizes and the record block and a copy, to the caller's ``held_values``.
    """
    runs = sum(n for _, n in cells)
    rings = sum((delay_steps(p.tau, cfg) + 1) * n for p, n in cells)
    blocks = 2 * block_rows(cfg, components * runs) * components * runs
    held = 8 * (held_values + runs * (3 * components + 3 + 6) + rings + chunk_values(components, runs) + blocks)
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        physical = None  # no way to tell on this platform
    if physical is not None and held > physical:
        gib = min(held, 2**1023) / 2**30  # a float even for absurd run counts
        raise ConfigurationError(
            f"a batch of {runs} runs would hold about {gib:.3g} GiB, more than the "
            f"{physical / 2**30:.3g} GiB of physical memory; lower the run count, "
            f"the horizon or the recorded rows"
        )
    path_steps = runs * cfg.step_count
    if path_steps > _MAX_PATH_STEPS:
        raise ConfigurationError(
            f"a batch of {runs} runs of {cfg.step_count:.3g} steps would take "
            f"{min(path_steps, 2**1023):.3g} path-steps, more than the bound of "
            f"{_MAX_PATH_STEPS:.3g}; lower the run count or the horizon, or raise the step size"
        )


def recorded_times(cfg: IntegratorConfig) -> np.ndarray:
    """The times of the recorded rows, ``0`` and the horizon included."""
    return cfg.step_size * np.arange(0, cfg.step_count + 1, cfg.record_stride)


def block_rows(cfg: IntegratorConfig, values_per_row: int) -> int:
    """Recorded rows per block a stepper hands over: as many as
    ``_STATS_BLOCK_VALUES`` values hold, at least one and at most all."""
    return max(1, min(cfg.recorded_count, _STATS_BLOCK_VALUES // values_per_row))


def _non_finite(step: int, h: float, run: int) -> NumericsError:
    return NumericsError(f"non-finite state at step {step} (t={step * h:g}) in run index {run}", step=step, run=run)


def euler_maruyama(
    drift, start, delays, delayed_column, noise, increments, cfg, reduce, project
) -> tuple[np.ndarray, np.ndarray]:
    """Stream ``X(n+1) = X(n) + drift(X(n), D(n)) h + (noise * X(n)) *
    dW(n)`` on a ``(components, runs)`` state, with ``noise`` one intensity
    per component or one per component and run, and ``dW(n)`` plane ``n``
    of ``increments``: C-contiguous ``(steps, components, runs)`` chunks,
    read in order and only if some intensity is above zero.  The operation
    order fixes the bits of every output.  ``drift(x, out)`` binds the
    state and a drift buffer once and returns ``step(d)``, which writes the
    drift at ``x`` into ``out``; the state is then updated in place.

    ``delays`` splits the runs, in order, into groups ``(runs,
    early)`` whose ``D(n)`` is row ``delayed_column`` of ``X(n - k)``, or
    ``early[n]`` for the first ``k = len(early)`` steps.  A group with
    ``k > 0`` keeps its own ring of ``k + 1`` rows holding ``D(n .. n +
    k)``, so the rings hold ``(k + 1) * runs`` values per group; a group
    with ``k = 0`` keeps none and reads its own state row.  With one group
    the drift reads that row in place; with several, each step first
    gathers the groups' rows into one ``D(n)`` row.  Recorded row ``r``
    (the start, then every ``cfg.record_stride``-th state) goes to row
    ``r % block`` of a ``(block, components, runs)`` array the kernel
    allocates, ``block = block_rows(cfg, components * runs)``, and
    ``reduce(first, rows)`` is handed the filled rows of each full block
    and of the last one, from row ``first``.  The kernel never reads a
    handed row again: ``reduce`` may overwrite the rows, and copies what
    it keeps.  With ``project``, negative components are clamped to zero
    after each step.  Returns the terminal state and the per-run count of
    clamped steps; raises :class:`NumericsError` with ``step`` and ``run``
    set for the lowest run index at the earliest non-finite step.

    Every operand, view and ufunc is bound before the loop, and every call
    in it takes its output positionally.  One ``argmax`` screens a projected
    step: when the largest entry's bits, read unsigned, are below those of
    +inf, each is finite with its sign bit clear, and no clamp or
    finiteness test runs.  Other steps run both in full, so ``-0.0`` (sign
    bit set) clamps nothing; their finiteness test is one dot product of
    the state with itself, non-finite whenever an entry is, and only when
    it is non-finite are the entries scanned one by one.
    """
    h, n_steps, stride = cfg.step_size, cfg.step_count, cfg.record_stride
    n_comp, n_runs = len(noise), sum(runs for runs, _ in delays)
    x = np.empty((n_comp, n_runs))  # the state, updated in place
    x[...] = np.reshape(start, (n_comp, 1))
    dx = np.empty_like(x)
    step_drift, flat = drift(x, dx), x.reshape(-1)
    bits = flat.view(np.uint64)
    # each group's slots hold D(n .. n + k): slot n % (k + 1) is read at
    # step n and then takes the new state's row, D(n + k + 1)
    groups, first = [], 0  # (columns, slots, the state row that feeds them)
    for runs, early in delays:
        cols = slice(first, first + runs)
        first += runs
        own = x[delayed_column, cols]
        slots = [own]  # with no delay, D(n) is the state's own row
        if len(early):
            ring = np.empty((len(early) + 1, runs))
            ring[:-1], ring[-1] = np.reshape(early, (-1, 1)), own
            slots = list(ring)
        groups.append((cols, slots, own))
    writes = [(slots, len(slots), own) for _, slots, own in groups if len(slots) > 1]
    rows, gathers = groups[0][1], []  # one group: the drift reads its slot in place
    if len(groups) > 1:  # several: each step gathers their slots into one row
        rows = [np.empty(n_runs)]
        gathers = [(rows[0][cols], slots, len(slots)) for cols, slots, _ in groups]
    ring_rows, block = len(rows), block_rows(cfg, n_comp * n_runs)
    staged = np.empty((block, n_comp, n_runs))
    staged[0] = x
    projection_counts = np.zeros(n_runs, dtype=np.int64)
    noise = np.broadcast_to(np.reshape(noise, (n_comp, -1)), (n_comp, n_runs)).copy()
    noisy = bool(np.any(noise > 0.0))
    planes = itertools.chain.from_iterable(increments)  # drawn only when read
    dt, zero = np.array(float(h)), np.array(0.0)
    multiply, add, top = np.multiply, np.add, bits.argmax

    # non-finite values are detected and reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            for target, slots, size in gathers:
                target[...] = slots[step % size]
            step_drift(rows[step % ring_rows])
            multiply(dx, dt, dx)
            if noisy:  # x is read for the last time here, so it takes the noise term
                add(dx, x, dx)  # x + drift * h
                multiply(noise, x, x)
                multiply(x, next(planes), x)  # (noise * x) * dw
            add(dx, x, x)  # x + drift * h, plus the noise term if any
            if not (project and bits[top()] < _INF_BITS):
                if project and not np.minimum.reduce(flat) >= 0.0:
                    clamped = x < zero
                    if clamped.any():
                        projection_counts += clamped.any(axis=0)
                        np.maximum(x, zero, out=x)  # a positional out is deprecated here
                # the sum of squares is non-finite whenever an entry is; only then scan
                if not math.isfinite(flat.dot(flat)):
                    bad = np.flatnonzero(~np.isfinite(x).all(axis=0))
                    if bad.size:
                        raise _non_finite(step + 1, h, int(bad[0]))
            # each copy is an assignment, the bits of np.copyto without its dispatch
            for slots, size, source in writes:
                slots[step % size][...] = source  # D(step + k + 1)
            if (step + 1) % stride == 0:
                row = (step + 1) // stride
                j = row % block
                if j == 0:  # the block before this row is full
                    reduce(row - block, staged)
                staged[j] = x
        last = cfg.recorded_count - 1
        reduce(last - last % block, staged[: last % block + 1])
    return x, projection_counts


def stream_model(
    cells, history: HistoryFunction, cfg: IntegratorConfig, seeds, reduce
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`euler_maruyama` for the model, one run per seed; either
    stepper sizes and allocates its own block of rows for ``reduce``.  ``cells``
    is a sequence of ``(params, runs)`` pairs, a :class:`ModelParams` for
    each consecutive group of runs in seed order; every run starts from
    ``history(0)``.  Consecutive cells of one delay form one delay group
    of the kernel, and each rate and the noise intensities go to it as
    one value where every cell agrees and one value per run otherwise,
    and both steppers read the increments it draws from the seeds.

    One seed is stepped in Python floats by :func:`_stream_one`, where
    numpy's per-call cost would dominate six-element steps, and two or more
    by :func:`euler_maruyama`; both take the same operations in the same
    order, so a run has the same bits, clamp count and error either way.
    The error's text ends in ``(seed S)``, the run's ``uint64`` seed.
    """
    params, runs = zip(*cells)
    if sum(runs) != len(seeds):  # a run past the cells would read a D(n) never written
        raise ValueError(f"the cells hold {sum(runs)} runs for {len(seeds)} seeds")
    for p in params:
        history.validate_for(p)
    delays = []  # (runs, early) of each delay group
    for tau, group in itertools.groupby(cells, lambda cell: cell[0].tau):
        # the clip guards against rounding a hair past the sampled span
        lags = np.clip(np.arange(delay_steps(tau, cfg)) * cfg.step_size - tau, -history.span, 0.0)
        delays.append((sum(n for _, n in group), history(lags)[:, 2]))

    def per_run(values):  # one value where every cell agrees, else one per run
        values = np.array(values)
        return values[0] if (values == values[0]).all() else np.repeat(values, runs, axis=0).T

    rates = [per_run(rate) for rate in zip(*[(p.beta, p.gamma, p.rho, p.sigma_act, p.theta) for p in params])]
    noise, seeds = per_run([p.noise.as_array() for p in params]), seed_array(seeds)
    dw = increment_chunks(seeds, 6, cfg.step_count, cfg.step_size)
    try:
        if seeds.size > 1:
            drift = functools.partial(_drift_with_delayed_i, rates)
            return euler_maruyama(drift, history(0.0), delays, 2, noise, dw, cfg, reduce, cfg.projection_enabled)
        (early,) = [early for n, early in delays if n]  # a cell may hold no runs
        return _stream_one(rates, history(0.0), early, noise, dw, cfg, reduce, cfg.projection_enabled)
    except NumericsError as exc:
        raise NumericsError(f"{exc} (seed {seeds[exc.run]})", step=exc.step, run=exc.run) from exc


def _clamped(v: float) -> float:
    # ``np.maximum(v, 0.0)``: -0.0 becomes +0.0 and NaN is kept
    return v if v > 0.0 or v != v else 0.0


def _stream_one(rates, start, early, noise, increments, cfg, reduce, project) -> tuple[np.ndarray, np.ndarray]:
    """:func:`euler_maruyama` for the model's drift on its ``rates`` and one
    run, in Python floats, with the kernel's operations in its order;
    ``early`` holds the delayed spreader values of the first ``len(early)``
    steps.  Each recorded row is packed as six doubles into a buffer of
    ``block`` rows, which ``reduce`` is handed as ``(rows, 6, 1)`` views."""
    h, n_steps, stride, block = cfg.step_size, cfg.step_count, cfg.record_stride, block_rows(cfg, 6)
    beta, gamma, rho, sigma, theta = (np.ravel(rate).item() for rate in rates)
    ns, ne, ni, nr, nig, nf = noise = np.ravel(noise).tolist()
    noisy = any(n > 0.0 for n in noise)
    six = struct.Struct("6d")
    draws = itertools.chain.from_iterable(map(six.iter_unpack, increments))
    buf = bytearray(six.size * block)
    staged = np.frombuffer(buf).reshape(block, 6, 1)  # the rows as reduce is handed them
    s, e, i, r, ig, f = start.tolist()
    six.pack_into(buf, 0, s, e, i, r, ig, f)
    ring = array("d", [*early.tolist(), i])  # D(0 .. k)
    slots, clamps = len(ring), 0
    for step in range(n_steps):
        slot = step % slots
        t = beta * s * ring[slot]  # transmission
        rr, q = gamma * i, rho * i  # removal, skepticism
        a, v = sigma * e, theta * ig  # activation, verification
        s2, e2, i2 = -t * h + s, (t - a) * h + e, (a - (rr + q)) * h + i
        r2, ig2, f2 = rr * h + r, (q - v) * h + ig, v * h + f
        if noisy:
            w0, w1, w2, w3, w4, w5 = next(draws)
            s2, e2, i2 = s2 + ns * s * w0, e2 + ne * e * w1, i2 + ni * i * w2
            r2, ig2, f2 = r2 + nr * r * w3, ig2 + nig * ig * w4, f2 + nf * f * w5
        s, e, i, r, ig, f = s2, e2, i2, r2, ig2, f2
        if project and (s < 0.0 or e < 0.0 or i < 0.0 or r < 0.0 or ig < 0.0 or f < 0.0):
            clamps += 1
            s, e, i, r, ig, f = map(_clamped, (s, e, i, r, ig, f))
        if not math.isfinite(s + e + i + r + ig + f) and not all(map(math.isfinite, (s, e, i, r, ig, f))):
            raise _non_finite(step + 1, h, 0)
        ring[slot] = i  # D(step + k + 1)
        if (step + 1) % stride == 0:
            row = (step + 1) // stride
            j = row % block
            if j == 0:  # the block before this row is full
                reduce(row - block, staged)
            six.pack_into(buf, six.size * j, s, e, i, r, ig, f)
    last = cfg.recorded_count - 1
    reduce(last - last % block, staged[: last % block + 1])
    return np.array([[s], [e], [i], [r], [ig], [f]]), np.array([clamps], dtype=np.int64)


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
    cells = [(p, len(seeds))]
    check_memory(cfg, cells, 6, 6 * len(seeds) * cfg.recorded_count)  # the paths
    paths = None

    def reduce(first, recorded):
        nonlocal paths
        if paths is None:  # at the first hand-over: a run of one block draws all its noise before it holds them
            paths = np.empty((len(seeds), cfg.recorded_count, 6))
        paths[:, first : first + len(recorded)] = recorded.transpose(2, 0, 1)

    _, projection_counts = stream_model(cells, history, cfg, seeds, reduce)
    return recorded_times(cfg), paths, projection_counts


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


def _cell_texts(column: np.ndarray) -> list[str]:
    """Integers and booleans as integers, other cells as text quoted the
    way ``csv.writer`` quotes it by default."""
    if column.dtype.kind in "biu":
        return ["%d" % x for x in column.tolist()]
    texts = map(str, column.tolist())
    return ['"' + t.replace('"', '""') + '"' if any(c in t for c in ',"\n') else t for t in texts]


def write_table(path, header, columns, meta=None) -> None:
    """Write a CSV table an array at a time.

    ``columns`` holds one sequence per ``header`` name.  Floats print in
    ``numtext.GENERAL_FORMAT`` (``nan`` and ``inf`` as such) through the exact
    array formatter of :mod:`rumorsim.numtext`, with a per-cell fallback to
    ``%``; integers and booleans print as integers, and text csv-quoted
    where it needs quoting.  Rows are written in chunks of about
    ``_CSV_CHUNK_CELLS`` cells, so memory follows the chunk, not the table.
    Each ``meta`` item becomes a ``# key=value`` line above the header,
    with a float value in ``numtext.GENERAL_FORMAT``.
    """
    columns = [np.asarray(column) for column in columns]
    floats = [j for j, column in enumerate(columns) if column.dtype.kind == "f"]
    seps = np.array([ord(",")] * (len(columns) - 1) + [ord("\n")], np.uint8)
    chunk = max(1, _CSV_CHUNK_CELLS // max(1, len(columns)))
    with open(path, "w", newline="\n") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}={numtext.GENERAL_FORMAT % value if isinstance(value, float) else value}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, min(map(len, columns), default=0), chunk):
            part = slice(start, start + chunk)
            if floats:
                codes, keep = numtext.records(np.stack([columns[j][part] for j in floats], 1), seps[floats])
            cells = [
                (codes[:, floats.index(j)], keep[:, floats.index(j)]) if j in floats
                else numtext.strings(_cell_texts(column[part]), seps[j])
                for j, column in enumerate(columns)
            ]
            fh.write(numtext.join([(codes, keep)] if len(floats) == len(columns) else cells))


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Write ``t,S,E,I,R,Ig,F`` rows with 9 significant digits."""
    write_table(
        path, ["t", *CSV_COMPARTMENTS], [trajectory.times, *trajectory.states.T]
    )
