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
   ``((word >> 11) + 0.5) * 2**-53``, at most ``1 - 2**-53`` (the top word
   alone rounds to 1.0), and to a standard normal through the inverse
   normal CDF.

Blocks are hashed in place in component-major memory.
:func:`normal_block` returns its documented step-major shape as a
transposed view of it, and :func:`increment_chunks`, the integrator's
one source of increments, yields that memory as it is, so each step's
``(components, runs)`` plane is read without a copy.

Child seeds come from the same finalizer:
``derive_seed(base, k) = mix64(base + (k+1) * GOLDEN_GAMMA)``, chained left
to right when several indices are given.  For a fixed base this map is
injective in each index, so ensemble runs and sweep cells never share a
stream.
"""

from __future__ import annotations

import os
import sys
import types

import numpy as np
import scipy

__all__ = [
    "GOLDEN_GAMMA",
    "derive_seed",
    "increment_chunks",
    "mix64",
    "normal_block",
    "seed_array",
    "wiener_increments",
]


def _load_ndtri():
    """scipy's compiled ``ndtri`` ufunc, loaded without ``scipy.special``'s
    ``__init__``.

    That ``__init__`` builds scipy's array-API layer, which imports
    ``numpy.f2py`` and ``numpy.testing``: more import time and memory than
    the rest of the package, for one ufunc that needs none of it.  A bare
    stand-in package lets the import system find the extension module, and
    is removed again, so a later ``import scipy.special`` runs the real
    package, which reuses the loaded extensions: its ``ndtri`` is this one.
    """
    loaded = sys.modules.get("scipy.special")
    if loaded is not None:
        return loaded.ndtri
    stand_in = types.ModuleType("scipy.special")
    stand_in.__path__ = [os.path.join(root, "special") for root in scipy.__path__]
    sys.modules["scipy.special"] = stand_in
    try:
        from scipy.special._ufuncs import ndtri
    finally:
        del sys.modules["scipy.special"]
        # not getattr: scipy's module __getattr__ would import the real package
        if vars(scipy).get("special") is stand_in:
            del scipy.special
    return ndtri


ndtri = _load_ndtri()

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

# Increments are drawn in step chunks of about this many draws, which keeps a
# chunk and the temporaries of its generation in cache; on the benchmark's
# wide batches a whole-horizon block costs about twice as much per draw.
_NOISE_CHUNK_DRAWS = 32_768


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python integer, reduced mod 2**64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray, work: np.ndarray) -> None:
    # uint64 arithmetic wraps mod 2**64, matching mix64 above bit for bit;
    # ``work`` is a scratch array of z's shape
    for shift, multiplier in ((_U_S30, _U_M1), (_U_S27, _U_M2), (_U_S31, None)):
        np.right_shift(z, shift, out=work)
        np.bitwise_xor(z, work, out=z)
        if multiplier is not None:
            np.multiply(z, multiplier, out=z)


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


def _stream_keys(seeds: np.ndarray) -> np.ndarray:
    """``mix64(seed ^ KEY_SALT)`` for each ``uint64`` seed."""
    keys = seeds ^ _U_KEY_SALT
    _mix64_inplace(keys, np.empty_like(keys))
    return keys


def _normals(keys: np.ndarray, step_offset: int, n_steps: int, n_components: int) -> np.ndarray:
    """The draws of steps ``step_offset .. step_offset+n_steps-1`` of every
    key, as a C-contiguous ``(n_steps, n_components, len(keys))`` array."""
    positions = np.add.outer(
        np.arange(step_offset, step_offset + n_steps, dtype=np.uint64) * np.uint64(_STREAM_STRIDE),
        np.arange(1, n_components + 1, dtype=np.uint64),
    )
    positions *= _U_GOLDEN
    words = np.empty((n_steps, n_components, keys.size), dtype=np.uint64)
    np.add(positions[:, :, None], keys, out=words)
    # a block of one seed is as large as its positions: at most two such
    # arrays are held at once
    del positions
    work = np.empty_like(words)
    _mix64_inplace(words, work)
    np.right_shift(words, _U_S11, out=words)
    # the uniforms overwrite the scratch words, and the normals the uniforms
    draws = _open_uniforms(words, work.view(np.float64))
    ndtri(draws, out=draws)
    return draws


def _open_uniforms(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(m + 0.5) * 2**-53`` into ``out`` for 53-bit ``uint64`` words ``m``,
    but at most ``1 - 2**-53``: only the top word's rounds up to 1.0."""
    np.copyto(out, words.view(np.int64), casting="unsafe")  # exact, and faster, read as int64
    out += 0.5
    out *= 2.0**-53
    if out.max() == 1.0:  # a read-only scan costs less than clamping every draw
        np.minimum(out, 1 - 2.0**-53, out=out)
    return out


def normal_block(
    seed, n_steps: int, n_components: int = 6, step_offset: int = 0
) -> np.ndarray:
    """Standard-normal draws for steps ``step_offset .. step_offset+n_steps-1``.

    Returns an array of shape ``(n_steps, n_components)`` whose row ``m``
    is exactly :func:`wiener_increments` at ``step_offset + m``: the block
    is a view into the counter stream, not a separate generator.  For a
    1-D array of seeds the block has shape ``(n_steps, len(seeds),
    n_components)``, and ``block[:, j, :]`` equals ``normal_block(seeds[j],
    ...)`` bit for bit, since each draw depends only on its counter.  The
    block is a view of component-major memory: ``block.transpose(0, 2,
    1)`` is C-contiguous.
    """
    if n_components < 1 or n_components > _STREAM_STRIDE:
        raise ValueError(f"n_components must be in 1..{_STREAM_STRIDE}")
    if n_steps < 0 or step_offset < 0:
        raise ValueError("n_steps and step_offset must be nonnegative")
    keys = _stream_keys(seed_array([seed] if np.ndim(seed) == 0 else seed))
    block = _normals(keys, step_offset, n_steps, n_components).transpose(0, 2, 1)
    return block[:, 0] if np.ndim(seed) == 0 else block


def chunk_values(n_components: int, runs: int) -> int:
    """The most values drawing a chunk of :func:`increment_chunks` holds: two arrays of its draws."""
    return 2 * max(n_components * runs, _NOISE_CHUNK_DRAWS)


def increment_chunks(seeds: np.ndarray, n_components: int, n_steps: int, step_size: float):
    """``normal_block(seeds, n_steps, n_components).transpose(0, 2, 1) *
    np.sqrt(step_size)`` for ``uint64`` seeds, bit for bit, drawn lazily in
    C-contiguous chunks of about ``_NOISE_CHUNK_DRAWS`` draws (at least one
    step); each seed's key is hashed once for the whole stream."""
    keys = _stream_keys(seeds)
    chunk = max(1, _NOISE_CHUNK_DRAWS // (n_components * keys.size))
    for step in range(0, n_steps, chunk):
        dw = _normals(keys, step, min(chunk, n_steps - step), n_components)
        dw *= np.sqrt(step_size)
        yield dw
        del dw  # before the next chunk is drawn


def wiener_increments(rng_seed: int, step_index: int) -> np.ndarray:
    """Six unit-variance Gaussian increments for one integration step.

    Fully determined by ``(rng_seed, step_index)``; the integrator scales
    them by ``sqrt(h)`` to obtain Wiener increments of variance ``h``.
    """
    if step_index < 0:
        raise ValueError("step_index must be nonnegative")
    return normal_block(rng_seed, 1, 6, step_offset=step_index)[0]
