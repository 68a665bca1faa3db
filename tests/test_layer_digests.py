"""Layer digests: the SHA-256 of what each stage under the CLI makes of
fixed inputs, so that a golden digest that fails (``test_golden_outputs``)
comes with the name of the layer that moved.

* ``rng.increment_chunks``: the noise, whose bits follow scipy's ``ndtri``
  and the C library's ``log`` under it;
* ``integrator.euler_maruyama`` on hand-made increments: the kernel, which
  calls no library transcendental, on the model's drift and on the lab's;
* ``ensemble._spread_and_band`` on a fixed sample: the statistics and the
  band, whose bits follow numpy's reduction order and sort (and, for the
  ``normal`` band, scipy's ``ndtri``);
* ``numtext.join`` of ``numtext.records`` on a fixed corpus: the text of
  every CSV and SVG number, kernel-printed and ``%``-printed alike.

The hand-made increments and samples are uniforms from numpy's
``Generator.random``, which uses integer arithmetic and one exact scaling,
so no library transcendental reaches the kernel's or the band's digest.
"""

import functools
import hashlib

import numpy as np
import pytest

from oracles import recorder
from rumorsim import IntegratorConfig, default_initial_state, default_params, derive_seed
from rumorsim import numtext
from rumorsim.ensemble import _spread_and_band
from rumorsim.integrator import delay_steps, euler_maruyama
from rumorsim.model import _drift_with_delayed_i
from rumorsim.rng import _NOISE_CHUNK_DRAWS, increment_chunks, seed_array
from rumorsim.stability import _linearized_drift


def digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


# name -> (seeds, components, steps); each step count crosses a chunk boundary
NOISE_CASES = {
    "one_seed_6": ([12345], 6, _NOISE_CHUNK_DRAWS // 6 + 3),
    "four_seeds_2": ([0, 1, 2**63, 2**64 - 1], 2, _NOISE_CHUNK_DRAWS // 8 + 5),
    "wide_6": ([derive_seed(7, k) for k in range(3000)], 6, 3),  # one step per chunk
}

NOISE_DIGESTS = {
    "one_seed_6": "f979c21314771573df7331c5eef72bf5184ae20b19aff63a0a701f16f4e6dbe4",
    "four_seeds_2": "54a7d85cdb4c84c42c061bdbb098acca198b231f44055384bf7d819cd2e0842a",
    "wide_6": "abcaf8502737798fea965c857c4741a5bdf3871a3a4bc1c78ae2d06ebc029cdd",
}


def noise_digest(name):
    seeds, components, steps = NOISE_CASES[name]
    chunks = list(increment_chunks(seed_array(seeds), components, steps, 0.1))
    assert len(chunks) > 1 and sum(len(c) for c in chunks) == steps
    return digest(*chunks)


@pytest.mark.parametrize("name", sorted(NOISE_CASES))
def test_noise(name):
    assert noise_digest(name) == NOISE_DIGESTS[name]


def uniform_increments(seed, steps, components, runs, h):
    """Increments of variance ``h``, uniform on ``(-sqrt(3h), sqrt(3h))``,
    split into seven uneven chunks."""
    u = np.random.default_rng(seed).random((steps, components, runs))
    return np.array_split((u - 0.5) * (2.0 * np.sqrt(3.0 * h)), 7)


def model_case():
    """The model's drift on two delay groups (k = 0 and k = 5) of runs
    whose rates differ, strong noise and projection on: steps clamp."""
    p = default_params(tau=0.5, r0=2.5)
    cfg = IntegratorConfig(0.1, 30.0, projection_enabled=True, record_stride=3)
    runs = (2, 3)
    beta = np.repeat([p.beta, 1.5 * p.beta], runs)
    drift = functools.partial(_drift_with_delayed_i, [beta, p.gamma, p.rho, p.sigma_act, p.theta])
    delays = [(runs[0], []), (runs[1], np.linspace(0.001, 0.02, delay_steps(p.tau, cfg)))]
    noise = np.array([0.5, 3.0, 3.0, 0.3, 2.5, 0.2])
    start = default_initial_state(p).as_array()
    return drift, start, delays, noise, cfg, sum(runs)


def lab_case():
    """The lab's linearized (E, I) drift on one delay group (k = 20),
    unprojected."""
    p = default_params(tau=2.0, r0=1.5)
    cfg = IntegratorConfig(0.1, 40.0, projection_enabled=False, record_stride=2)
    early = np.linspace(0.02, 0.01, delay_steps(p.tau, cfg))
    drift = functools.partial(_linearized_drift, p)
    return drift, (0.01, 0.02), [(4, early)], np.array([0.8, 0.6]), cfg, 4


KERNEL_CASES = {"model": model_case, "lab": lab_case}

KERNEL_DIGESTS = {
    "model": "9732b5eeeae4f5a12ec17d970e4e27cea52acb20af269b234f011b9f33425b68",
    "lab": "60655c00b38aa95704d4f137f4d0b22f485f93ac9721a25b408d09b3c9eb34aa",
}


def kernel_digest(name):
    drift, start, delays, noise, cfg, runs = KERNEL_CASES[name]()
    increments = uniform_increments(11, cfg.step_count, len(noise), runs, cfg.step_size)
    rows, keep = recorder(cfg, len(noise), runs)
    terminal, counts = euler_maruyama(drift, start, delays, noise, increments, cfg, keep)
    assert not np.isnan(rows).any() and counts.all() == cfg.projection_enabled  # every projected run clamps
    return digest(rows, terminal, counts)


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel(name):
    assert kernel_digest(name) == KERNEL_DIGESTS[name]


BAND_DIGESTS = {
    "quantile": "1dabb998c867f501af0df3555fa8fcbda5ae737a03037a8505975d2988ec88de",
    "normal": "06d57e1422be2e32826623765347e77838cc072154fc83853e1e31912a5b8a04",
}


def band_digest(method):
    """The spread and band of 41 runs by 5 rows by 6 components, held as
    ``run_ensemble`` holds a block; one lane has every run equal, and one
    holds values whose squared deviations overflow."""
    recorded = np.random.default_rng(3).random((5, 6, 41))  # rows, components, runs
    recorded[1, 2] = 0.25
    recorded[3, 4] *= 1e300
    values = np.ascontiguousarray(recorded.transpose(2, 0, 1))
    mean = values.mean(axis=0)
    std, lower, upper = _spread_and_band(values, mean, 0.9, method, recorded)
    assert np.isfinite(std).all() and std[1, 2] == 0.0
    return digest(mean, std, lower, upper)


@pytest.mark.parametrize("method", ["quantile", "normal"])
def test_band(method):
    assert band_digest(method) == BAND_DIGESTS[method]


def numtext_corpus(top):
    """Uniforms scaled by exact powers of ten from ``1e-30`` to ``10**top``,
    either sign, in rows of three, followed by values that ``%`` prints:
    not finite, ``%.9g``'s zeros, near a tie, beyond ``1e9``.  Under
    ``%.3f``, values from ``1e24`` up widen the record."""
    rng = np.random.default_rng(29)
    powers = np.array([float(f"1e{k}") for k in range(-30, top + 1)])
    values = rng.random(600) * powers[rng.integers(0, powers.size, 600)] * rng.choice([-1.0, 1.0], 600)
    edges = [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.0625, 0.5825, 3522.4575, 100000000.5, 5e-324, 1e-05, 1e23]
    return np.concatenate([values, edges]).reshape(-1, 3)


# name -> (fixed, top)
NUMTEXT_CASES = {"general": (False, 30), "fixed": (True, 20), "fixed_widened": (True, 30)}

NUMTEXT_DIGESTS = {
    "general": "173ff0e70f8732507ee7f862f1582d153298fd5b7138c419c8cec442633b8a94",
    "fixed": "344b51c8c134e05b9ef78fa4f2cea1a7b1520c71bcb5694944b9fb0453e752eb",
    "fixed_widened": "bff2f52722c929a402ae87ae00d337b3206725c0fd1771765034c7639bef9fa3",
}


def numtext_digest(name):
    fixed, top = NUMTEXT_CASES[name]
    seps = np.array([ord(","), ord(","), ord("\n")], np.uint8)
    text = numtext.join([numtext.records(numtext_corpus(top), seps, fixed)])
    widest = max(map(len, text.replace("\n", ",").split(",")))
    assert (widest > 28) == (name == "fixed_widened")  # a record holds 28 slots of text
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(NUMTEXT_CASES))
def test_numtext(name):
    assert numtext_digest(name) == NUMTEXT_DIGESTS[name]
