"""Independent oracles used to cross-check the package.

Everything here restates the mathematics from scratch (explicit formulas,
classic fixed-step RK4, textbook order statistics) and deliberately does
not call into the integration or statistics code it is used to verify;
``recorder`` only keeps the rows a stepper hands over.
"""

from __future__ import annotations

import math

import numpy as np

from rumorsim.rng import normal_block


def compartment_rhs(x, beta, sigma_act, gamma, rho, theta):
    """The six flow equations, written out directly (no delay)."""
    s, e, i, r, ig, f = x
    return np.array(
        [
            -beta * s * i,
            beta * s * i - sigma_act * e,
            sigma_act * e - (gamma + rho) * i,
            gamma * i,
            rho * i - theta * ig,
            theta * ig,
        ]
    )


def rk4_path(x0, h, horizon, beta, sigma_act, gamma, rho, theta):
    """Classic fixed-step RK4 for the deterministic no-delay system.

    Returns the full path, shape ``(steps + 1, 6)``.
    """
    n = round(horizon / h)
    path = np.empty((n + 1, 6))
    path[0] = x0
    for m in range(n):
        x = path[m]
        k1 = compartment_rhs(x, beta, sigma_act, gamma, rho, theta)
        k2 = compartment_rhs(x + 0.5 * h * k1, beta, sigma_act, gamma, rho, theta)
        k3 = compartment_rhs(x + 0.5 * h * k2, beta, sigma_act, gamma, rho, theta)
        k4 = compartment_rhs(x + h * k3, beta, sigma_act, gamma, rho, theta)
        path[m + 1] = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return path


def quantile_band(values, level):
    """Order-statistic quantile band with linear interpolation.

    Position of the q-quantile in the sorted sample of size n is
    ``q * (n - 1)`` (0-indexed); fractional positions interpolate linearly
    between the neighboring order statistics.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)

    def at(q):
        pos = q * (n - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    alpha = (1.0 - level) / 2.0
    return at(alpha), at(1.0 - alpha)


def sample_std(values):
    """Standard deviation (ddof=1) along the first axis, exactly zero
    where the largest and smallest values agree."""
    values = np.asarray(values, dtype=float)
    std = values.std(axis=0, ddof=1)
    return np.where(values.max(axis=0) == values.min(axis=0), 0.0, std)


def linear_cascade(e0, i0, sigma_act, removal, t):
    """Closed-form solution of the decoupled linear pair
    ``E' = -sigma_act * E``, ``I' = sigma_act * E - removal * I``
    (no transmission feedback, no noise, no delay)."""
    e_t = e0 * math.exp(-sigma_act * t)
    i_t = i0 * math.exp(-removal * t) + sigma_act * e0 * (
        math.exp(-sigma_act * t) - math.exp(-removal * t)
    ) / (removal - sigma_act)
    return e_t, i_t


def final_size_exact(p, initial):
    """Outbreak size ``R + F`` of the zero-noise delayed model as time goes
    to infinity, from a constant history at ``initial``.

    Integrating ``S'/S = -beta I(t - tau)`` over all time, with
    ``I = i0`` on ``[-tau, 0]`` and ``(S + E + I)' = -(gamma + rho) I``,
    gives the final-size relation

        ln(S0 / S_inf) = beta tau i0 + beta (S0 + E0 + I0 - S_inf) / (gamma + rho),

    solved here for ``S_inf`` in ``(0, S0)`` by bisection.  Every class but
    ``S``, ``R`` and ``F`` empties, so the rest of the mass ends in ``R + F``.
    """
    s0, e0, i0, r0, ig0, f0 = (float(v) for v in initial.as_array())
    beta, removal = p.beta, p.gamma + p.rho

    def excess(s):  # decreasing through the one root below s0
        return math.log(s0 / s) - beta * p.tau * i0 - beta * (s0 + e0 + i0 - s) / removal

    lo, hi = 0.0, s0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid > 0.0 and excess(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return s0 + e0 + i0 + r0 + ig0 + f0 - hi


def linearized_second_moment(p, e0, i0, h, n_steps, k, stride, seeds):
    """Run mean of ``E^2 + I^2`` on every ``stride``-th step of the
    Euler-Maruyama scheme of the linearized (E, I) subsystem with delay
    ``k`` steps and constant history ``(e0, i0)``, one run per seed.

    A numpy recursion over whole steps that takes the stability lab's
    operations in its order: ``tail = rates * x``, ``transmission = bN * D``,
    ``out = head - tail``, then ``x + out * h``, plus ``(noise * x) * dw``,
    with ``D`` the spreader row ``k`` steps back (``i0`` before that) and
    ``dw`` from ``normal_block``.  Every noise intensity should be positive,
    as the kernel adds no noise term when all are zero.
    """
    runs = len(seeds)
    dw = normal_block(np.array(seeds, dtype=np.uint64), n_steps, 2) * np.sqrt(h)
    rates = np.array([[p.sigma_act], [p.removal_rate]])
    noise = np.array([[p.noise.e], [p.noise.i]])
    bn = p.beta * p.population
    x = np.empty((2, runs))
    x[0], x[1] = e0, i0
    spreaders, recorded = [x[1]], [x]
    for n in range(n_steps):
        delayed = spreaders[n - k] if n >= k else np.full(runs, i0)
        tail = rates * x  # activation, removal
        head = np.stack([bn * delayed, tail[0]])  # transmission, activation
        out = head - tail
        x = (x + out * h) + (noise * x) * dw[n].T
        spreaders.append(x[1])
        if (n + 1) % stride == 0:
            recorded.append(x)
    states = np.array(recorded)
    return (np.square(states[:, 0]) + np.square(states[:, 1])).mean(axis=1)


def weak_noise_ratios(mean_at, eps):
    """``(2 m(e) - 3 m(2 e) + m(4 e)) / (2 m(e / 2) - 3 m(e) + m(2 e))`` for
    ``m = mean_at`` at ``e = 2 eps`` and ``e = eps``, each noise level run
    once.  Where ``m`` is a polynomial in the noise level (fixed draws, no
    projection), both differences cancel its zero-noise value and its
    linear term exactly, leaving ``6 e^2 c + O(e^3)``, so each ratio tends
    to 4 at order ``e``, with no Monte Carlo tolerance.  The least-squares
    order of the three differences against ``log e``, over all five levels,
    is ``log2(coarse * fine) / 2``; it tends to 2 at order ``e`` too."""
    m = [np.asarray(mean_at(eps * 2.0**k)) for k in range(-1, 4)]  # eps / 2 .. 8 eps

    def ratio(j):  # e = eps * 2**(j - 1)
        return (2 * m[j] - 3 * m[j + 1] + m[j + 2]) / (2 * m[j - 1] - 3 * m[j] + m[j + 1])

    return ratio(2), ratio(1)


def recorder(cfg, components, runs):
    """A ``(recorded_count, components, runs)`` array and the ``reduce``
    that copies every block of rows a stepper hands over into it."""
    rows = np.full((cfg.recorded_count, components, runs), np.nan)

    def keep(first, recorded):
        rows[first : first + len(recorded)] = recorded

    return rows, keep
