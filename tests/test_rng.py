import json
import math
import textwrap

import numpy as np
import pytest
from test_cli import run_python

from rumorsim.rng import (
    _open_uniforms, derive_seed, increment_chunks, mix64, ndtri, normal_block, seed_array, wiener_increments,
)


def test_same_seed_and_step_is_identical():
    a = wiener_increments(1234, 17)
    b = wiener_increments(1234, 17)
    assert a.shape == (6,)
    assert np.array_equal(a, b)


def test_block_rows_match_per_step_draws():
    block = normal_block(99, 50, 6)
    for step in (0, 1, 7, 49):
        assert np.array_equal(block[step], wiener_increments(99, step))


def test_block_offset_is_a_window():
    block = normal_block(5, 100, 6)
    shifted = normal_block(5, 40, 6, step_offset=60)
    assert np.array_equal(block[60:], shifted)


@pytest.mark.parametrize("n_components", [2, 6])
def test_seed_array_block_is_step_major(n_components):
    seeds = [derive_seed(3, k) for k in range(5)] + [0, 7]  # both sides of 2**63
    block = normal_block(seeds, 30, n_components, step_offset=45)
    assert block.shape == (30, len(seeds), n_components)
    for j, seed in enumerate(seeds):
        assert np.array_equal(block[:, j, :], normal_block(seed, 30, n_components, step_offset=45))


# one seed on each side of 2**63, or 2,000 seeds that include both
_STREAM_SEEDS = {
    "below": [2**63 - 1],
    "above": [2**63 + 5],
    "many": [2**63 - 1, 2**63 + 5, *(derive_seed(11, k) for k in range(1998))],
}


@pytest.mark.parametrize("n_components", [1, 2, 6])
@pytest.mark.parametrize("seeds", list(_STREAM_SEEDS))
def test_increment_chunks_equal_normal_block_run_by_run(seeds, n_components, monkeypatch):
    # chunks of 7 steps; the windows start inside a chunk and cross its ends
    seeds = seed_array(_STREAM_SEEDS[seeds])
    assert (seeds < 2**63).any() and (seeds >= 2**63).any() or seeds.size == 1
    monkeypatch.setattr("rumorsim.rng._NOISE_CHUNK_DRAWS", 8 * n_components * seeds.size - 1)  # 7 steps
    chunks = list(increment_chunks(seeds, n_components, 40, 1.0))
    assert [c.shape[0] for c in chunks] == [7] * 5 + [5]
    assert all(c.flags.c_contiguous and c.shape[1:] == (n_components, seeds.size) for c in chunks)
    stream = np.concatenate(chunks).view(np.uint64)
    for j, seed in enumerate(seeds.tolist()):
        for offset, steps in ((0, 40), (5, 10), (13, 16), (34, 6)):
            window = normal_block(seed, steps, n_components, step_offset=offset)
            assert np.array_equal(stream[offset : offset + steps, :, j], window.view(np.uint64))


def test_increments_are_draws_times_root_step(monkeypatch):
    seeds = seed_array([2**63 - 1, 2**63 + 5, 3])
    monkeypatch.setattr("rumorsim.rng._NOISE_CHUNK_DRAWS", 100)  # chunks of 5 steps
    stream = np.concatenate(list(increment_chunks(seeds, 6, 30, 0.01)))
    want = normal_block(seeds, 30, 6).transpose(0, 2, 1) * np.sqrt(0.01)
    assert np.array_equal(stream.view(np.uint64), want.view(np.uint64))


def test_gaussian_moments():
    n = 10**6
    draws = normal_block(2024, n // 6 + 1, 6).ravel()[:n]
    assert abs(draws.mean()) < 4.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) < 0.01


def test_component_streams_uncorrelated():
    block = normal_block(7, 10**5, 6)
    s, i = block[:, 0], block[:, 2]
    corr = np.corrcoef(s, i)[0, 1]
    assert abs(corr) < 0.01


def test_distinct_seeds_give_distinct_streams():
    a = normal_block(1, 100, 6)
    b = normal_block(2, 100, 6)
    assert not np.array_equal(a, b)
    # and the streams should look unrelated, not shifted copies
    assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 0.05


def test_derive_seed_injective_over_runs():
    seeds = [derive_seed(42, k) for k in range(10_000)]
    assert len(set(seeds)) == len(seeds)


def test_derive_seed_multi_index_chains():
    assert derive_seed(5, 1, 2) == derive_seed(derive_seed(5, 1), 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


def test_derive_seed_rejects_negative_indices():
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def test_mix64_is_stable():
    # frozen values pin the published construction; a change here breaks
    # reproducibility of every archived run
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(0x9E3779B97F4A7C15) == 16294208416658607535


def test_only_the_top_word_is_clamped_below_one():
    # (m + 0.5) * 2**-53 rounds to 1.0 at m = 2**53 - 1 alone, whose normal is +inf
    words = np.array([0, 2**52 + 1, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    unclamped = (words.astype(float) + 0.5) * 2.0**-53
    uniforms = _open_uniforms(words, np.empty(words.size))
    assert unclamped[-1] == 1.0 and uniforms[-1] == 1.0 - 2.0**-53
    assert uniforms[:-1].tobytes() == unclamped[:-1].tobytes()
    assert np.isfinite(ndtri(uniforms)).all()
    words = np.random.default_rng(7).integers(0, 2**53 - 1, 200_000, dtype=np.uint64)
    uniforms = _open_uniforms(words, np.empty(words.size))
    assert uniforms.tobytes() == ((words.astype(float) + 0.5) * 2.0**-53).tobytes()
    assert 0.0 < uniforms.min() and uniforms.max() < 1.0


def test_invalid_block_arguments():
    with pytest.raises(ValueError):
        normal_block(1, 10, 9)
    with pytest.raises(ValueError):
        normal_block(1, -1)
    with pytest.raises(ValueError):
        wiener_increments(1, -1)
    with pytest.raises(ValueError):
        normal_block([[1, 2]], 10)


def _fresh_python(code):
    """The JSON that ``code`` prints in a fresh interpreter: which branch of
    the ``ndtri`` loader runs depends on what the process imported first,
    which in this one is up to test collection order."""
    proc = run_python("-c", textwrap.dedent(code), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_ndtri_without_scipy_special_then_leaves_it_importable():
    seen = _fresh_python(
        """
        import json, sys
        import rumorsim.cli
        import scipy
        before = {
            "modules": [m for m in ("scipy.special", "scipy.special._support_alternative_backends") if m in sys.modules],
            "attribute": "special" in vars(scipy),
        }
        import scipy.special
        import rumorsim.rng
        print(json.dumps({
            **before,
            "erf": float(scipy.special.erf(0.5)),
            "ufuncs": scipy.special._ufuncs.__name__,
            "same": scipy.special.ndtri is rumorsim.rng.ndtri,
        }))
        """
    )
    assert seen == {
        "modules": [],
        "attribute": False,
        "erf": pytest.approx(math.erf(0.5)),
        "ufuncs": "scipy.special._ufuncs",
        "same": True,
    }


def test_ndtri_is_scipy_specials_when_that_is_imported_first():
    # the loaded package must stay registered: a stand-in put over it and
    # removed again would take the real ``scipy.special`` out of sys.modules
    seen = _fresh_python(
        """
        import json, sys
        import scipy.special
        import rumorsim.rng
        print(json.dumps({
            "same": rumorsim.rng.ndtri is scipy.special.ndtri,
            "registered": sys.modules.get("scipy.special") is scipy.special,
        }))
        """
    )
    assert seen == {"same": True, "registered": True}
