# diffuq first: importing it sets the one-thread BLAS default, which numpy's
# OpenBLAS reads only when numpy loads (test_harness.py checks it)
from diffuq import ToyPriorSpec, build_schedule, build_toy_prior

import numpy as np
import pytest


@pytest.fixture(scope="session")
def toy_prior():
    return build_toy_prior(ToyPriorSpec())


@pytest.fixture(scope="session")
def sched_small():
    return build_schedule(0.01, 10.0, 30)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
