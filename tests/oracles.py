"""Independent oracles used to cross-check the package.

Everything here restates the mathematics from scratch (explicit formulas,
classic fixed-step RK4, textbook order statistics) and deliberately does
not call into the integration or statistics code it is used to verify.
"""

from __future__ import annotations

import math

import numpy as np


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
