import numpy as np
import pytest

from uqpc.polybasis import gauss_legendre_rule
from uqpc.transport import SlabProblem


def _tensor_gauss_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Reference only: the n-point rule on every axis, nodes (n**d, d) and
    # weights (n**d,) summing to 1.
    nodes, weights = gauss_legendre_rule(n)
    grid = np.stack(np.meshgrid(*[nodes] * d, indexing="ij"), axis=-1).reshape(-1, d)
    wgrid = np.stack(np.meshgrid(*[weights] * d, indexing="ij"), axis=-1).reshape(-1, d)
    return grid, np.prod(wgrid, axis=1)


@pytest.fixture(scope="session")
def tensor_rule():
    """The tensor-product Gauss rule, as a quadrature reference for tests."""
    return _tensor_gauss_rule


@pytest.fixture(scope="session")
def d1_problem() -> SlabProblem:
    # Single 1 cm section, cross section U(0.05, 1.95).
    return SlabProblem(sigma0=[1.0], sigma_delta=[0.95], dx=[1.0])


@pytest.fixture(scope="session")
def d3_problem() -> SlabProblem:
    # Three identical 1 cm sections, cross sections U(0.01, 0.59).
    return SlabProblem(sigma0=[0.3] * 3, sigma_delta=[0.29] * 3, dx=[1.0] * 3)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)
