import numpy as np
import pytest

from gmc import heisenberg as hb
from gmc import torus as tr


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def torus_model():
    return tr.TORUS


@pytest.fixture(scope="session")
def heisenberg_model():
    return hb.HEISENBERG
