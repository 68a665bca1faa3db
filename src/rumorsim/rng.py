"""Counter-based deterministic Gaussian streams for the simulation engine.

All randomness in the integrator flows through a SplitMix64-style counter
construction so that the noise consumed at a given step is a pure function
of ``(seed, step_index, component)``.  This gives three properties the
ensemble machinery relies on:

* bit-exact reproducibility of any run from its seed alone,
* identical noise whether runs are integrated one at a time or in a batch,
* cheap, collision-free derivation of per-run and per-cell child seeds.

The construction, spelled out so results can be reproduced independently:

1. ``mix64`` is the SplitMix64 output permutation (Stafford "Mix13"
   variant): ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
   z *= 0x94D049BB133111EB; z ^= z >> 31`` on 64-bit words.
2. A stream key is ``mix64(seed ^ KEY_SALT)``.
3. The raw word for ``(step, component)`` is
   ``mix64(key + (8*step + component + 1) * GOLDEN_GAMMA)`` (mod 2**64);
   the stride of 8 fixes the layout independently of how many components
   a consumer reads (at most 8).
4. The word is mapped to a uniform in the open interval (0, 1) via
   ``((word >> 11) + 0.5) * 2**-53`` and to a standard normal through the
   inverse normal CDF.

Child seeds come from the same finalizer:
``derive_seed(base, k) = mix64(base + (k+1) * GOLDEN_GAMMA)``, chained left
to right when several indices are given.  For a fixed base this map is
injective in each index, so ensemble runs and sweep cells never share a
stream.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = [
    "GOLDEN_GAMMA",
    "derive_seed",
    "mix64",
    "normal_block",
    "seed_array",
    "wiener_increments",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_KEY_SALT = 0xD1B54A32D192ED03
_STREAM_STRIDE = 8

_U_GOLDEN = np.uint64(GOLDEN_GAMMA)
_U_KEY_SALT = np.uint64(_KEY_SALT)
_U_M1 = np.uint64(0xBF58476D1CE4E5B9)
_U_M2 = np.uint64(0x94D049BB133111EB)
_U_S30 = np.uint64(30)
_U_S27 = np.uint64(27)
_U_S31 = np.uint64(31)
_U_S11 = np.uint64(11)


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python integer, reduced mod 2**64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2**64, matching mix64 above bit for bit
    z = (z ^ (z >> _U_S30)) * _U_M1
    z = (z ^ (z >> _U_S27)) * _U_M2
    return z ^ (z >> _U_S31)


def derive_seed(base: int, *indices: int) -> int:
    """Derive a child seed from a base seed and one or more indices.

    Injective in each index for a fixed base, so distinct ensemble runs
    (or sweep cells) receive distinct, statistically independent streams.
    """
    state = base & _MASK64
    for idx in indices:
        if idx < 0:
            raise ValueError("seed derivation indices must be nonnegative")
        state = mix64((state + (idx + 1) * GOLDEN_GAMMA) & _MASK64)
    return state


def _stream_key(seed: int) -> np.uint64:
    return np.uint64(mix64((seed & _MASK64) ^ _KEY_SALT))


def seed_array(seeds) -> np.ndarray:
    """Seeds as a 1-D ``uint64`` array, reduced mod 2**64 like one seed is;
    a ``uint64`` array is returned as is, so callers can convert once."""
    if np.ndim(seeds) != 1:
        raise ValueError("seeds must be a one-dimensional sequence")
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    # element by element: numpy infers float64 for a list that mixes
    # integers on both sides of 2**63, which would round the seeds
    return np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)


def normal_block(
    seed, n_steps: int, n_components: int = 6, step_offset: int = 0
) -> np.ndarray:
    """Standard-normal draws for steps ``step_offset .. step_offset+n_steps-1``.

    Returns an array of shape ``(n_steps, n_components)`` whose row ``m``
    is exactly :func:`wiener_increments` at ``step_offset + m``: the block
    is a view into the counter stream, not a separate generator.  For a
    1-D array of seeds the block is step-major, ``(n_steps, len(seeds),
    n_components)``, and ``block[:, j, :]`` equals ``normal_block(seeds[j],
    ...)`` bit for bit, since each draw depends only on its counter.
    """
    if n_components < 1 or n_components > _STREAM_STRIDE:
        raise ValueError(f"n_components must be in 1..{_STREAM_STRIDE}")
    if n_steps < 0 or step_offset < 0:
        raise ValueError("n_steps and step_offset must be nonnegative")
    steps = np.arange(step_offset, step_offset + n_steps, dtype=np.uint64)
    comps = np.arange(n_components, dtype=np.uint64)
    positions = steps[:, None] * np.uint64(_STREAM_STRIDE) + comps[None, :] + np.uint64(1)
    offsets = positions * _U_GOLDEN
    if np.ndim(seed) == 0:
        key = _stream_key(seed)
    else:
        key = _mix64_array(seed_array(seed) ^ _U_KEY_SALT)[:, None]
        offsets = offsets[:, None, :]
    words = _mix64_array(key + offsets)
    uniforms = ((words >> _U_S11).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(uniforms)


def wiener_increments(rng_seed: int, step_index: int) -> np.ndarray:
    """Six unit-variance Gaussian increments for one integration step.

    Fully determined by ``(rng_seed, step_index)``; the integrator scales
    them by ``sqrt(h)`` to obtain Wiener increments of variance ``h``.
    """
    if step_index < 0:
        raise ValueError("step_index must be nonnegative")
    return normal_block(rng_seed, 1, 6, step_offset=step_index)[0]
