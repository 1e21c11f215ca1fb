import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# the same examples on every run, and no example database written, so Tier-1 stays deterministic
settings.register_profile("derandomize", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomize")

from kbf import InitialConditionSpec, ModelParams, build_initial, make_grid

TWO_PI = 2.0 * np.pi


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def full_params():
    """Every mechanism switched on with unit strength."""
    return ModelParams(nu=1.0, mu=1.0, gamma=1.0, eps_conv=1.0, eps_react=1.0)


@pytest.fixture(scope="session")
def grid256():
    return make_grid(256, 0.0, TWO_PI)


@pytest.fixture(scope="session")
def sine_initial(grid256):
    return build_initial(InitialConditionSpec(kind="paper"), grid256)
