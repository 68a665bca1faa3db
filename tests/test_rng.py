import numpy as np
import pytest

from rumorsim.rng import derive_seed, mix64, normal_block, wiener_increments


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


def test_invalid_block_arguments():
    with pytest.raises(ValueError):
        normal_block(1, 10, 9)
    with pytest.raises(ValueError):
        normal_block(1, -1)
    with pytest.raises(ValueError):
        wiener_increments(1, -1)
    with pytest.raises(ValueError):
        normal_block([[1, 2]], 10)
