import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rumorsim import (
    HistoryFunction,
    IntegratorConfig,
    default_initial_state,
    default_params,
)


@pytest.fixture
def seed_shift():
    """Added to the base seed of each Monte Carlo test whose assertions
    must hold for any seed set, so that each shift draws a disjoint set;
    read from ``RUMORSIM_SEED_SHIFT``, and 0, which keeps every pinned
    seed and bit, when that is unset."""
    return int(os.environ.get("RUMORSIM_SEED_SHIFT", "0"))


@pytest.fixture
def params():
    """Reference-regime parameters at R0 = 2, no delay."""
    return default_params(tau=0.0, r0=2.0)


@pytest.fixture
def initial_history(params):
    return HistoryFunction.constant(default_initial_state(params))


@pytest.fixture
def short_cfg():
    return IntegratorConfig(step_size=0.1, horizon=50.0)
