import os

import numpy as np
import pytest
from hypothesis import is_hypothesis_test, seed, settings

from gmc import heisenberg as hb
from gmc import torus as tr

# Tier-1 draws the same examples on every run: each @given test's draws follow from its
# own code, and no example database replays what another run found. Each test keeps its
# own max_examples and strategies. GMC_HYPOTHESIS_SEED=<n> loads a random profile seeded
# by n instead, for exploration outside Tier-1; a failure it finds becomes an @example.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.register_profile("explore", derandomize=False, deadline=None, database=None)
_EXPLORE_SEED = os.environ.get("GMC_HYPOTHESIS_SEED")
settings.load_profile("tier1" if _EXPLORE_SEED is None else "explore")


def pytest_collection_modifyitems(items):
    if _EXPLORE_SEED is not None:
        for item in items:
            if isinstance(item, pytest.Function) and is_hypothesis_test(item.obj):
                seed(int(_EXPLORE_SEED))(item.obj)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def torus_model():
    return tr.TORUS


@pytest.fixture(scope="session")
def heisenberg_model():
    return hb.HEISENBERG
