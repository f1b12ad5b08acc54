import pathlib

import numpy as np
import pytest

from strongstab import (
    build_context,
    build_p1p2,
    gamma_opt,
    stabilize_finite,
    stabilize_infinite,
)
from strongstab.config import load_problem

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

EX1_RHO = 0.814
EX2_RHO = 1.9454


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true",
                     help="also run the tests marked slow (about a minute)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow: run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def ex1():
    return load_problem(CONFIG_DIR / "example1.json")


@pytest.fixture(scope="session")
def ex2():
    return load_problem(CONFIG_DIR / "example2.json")


@pytest.fixture(scope="session")
def ex1_gamma(ex1):
    plant, weights, opts = ex1
    return gamma_opt(plant, weights, opts.gamma_bracket)


@pytest.fixture(scope="session")
def ex2_gamma(ex2):
    plant, weights, opts = ex2
    return gamma_opt(plant, weights, opts.gamma_bracket)


@pytest.fixture(scope="session")
def ex1_ctx(ex1):
    plant, weights, opts = ex1
    return build_context(plant, weights, EX1_RHO, opts.interp_a)


@pytest.fixture(scope="session")
def ex2_ctx(ex2):
    plant, weights, opts = ex2
    return build_context(plant, weights, EX2_RHO, opts.interp_a)


@pytest.fixture(scope="session")
def ex2_p1p2(ex2, ex2_ctx):
    plant, weights, opts = ex2
    return build_p1p2(plant, ex2_ctx)


@pytest.fixture(scope="session")
def ex1_search(ex1, ex1_ctx):
    plant, weights, opts = ex1
    return stabilize_infinite(plant, weights, ex1_ctx, opts)


@pytest.fixture(scope="session")
def ex2_search(ex2, ex2_ctx):
    plant, weights, opts = ex2
    return stabilize_finite(plant, weights, ex2_ctx, opts)


@pytest.fixture(scope="session")
def bracket_max():
    """max |f(w)| over 2M + 1 evenly spaced w in the bracket that
    `rational.grid_sup` refines for the grid `om`: the grid argmax's two
    neighbours.  `f` takes a 1-D array of frequencies; it gets chunks of them."""
    def dense_max(f, om):
        i, last = int(np.argmax(np.abs(f(om)))), len(om) - 1
        w = np.linspace(om[max(i - 1, 0)], om[min(i + 1, last)], 2_000_001)
        return max(np.abs(f(w[k:k + 50_000])).max() for k in range(0, w.size, 50_000))
    return dense_max
