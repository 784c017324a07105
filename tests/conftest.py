"""Shared fixtures: the reference ring population and its stimulus prior."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from popcode_mi import fisher
from popcode_mi.fisher import GridPrior
from popcode_mi.models import PoissonPopulation

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

PERIOD = np.pi
CENTER_SPAN = 1.0
AMPLITUDE = 20.0
WIDTH = 0.5
PRIOR_WIDTH = np.pi / 4

#: A 2x2 block that factors in floating point although it is singular to
#: working precision: its second squared pivot is about 1e-15 of its diagonal.
ROUNDING_SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])

#: Covariances that are not positive-definite by the pivot rule.
NOT_PD_COVARIANCES = [
    np.array([[1.0, 3.0], [3.0, 1.0]]),
    ROUNDING_SINGULAR,
    np.full((2, 2), np.nan),
    np.diag([np.inf, 1.0]),
]


def ring_population(n: int) -> PoissonPopulation:
    """Poisson population of ``n`` identical bumps on evenly spaced centers."""
    if n == 1:
        centers = np.array([0.0])
    else:
        centers = np.arange(n) * CENTER_SPAN / (n - 1) - CENTER_SPAN / 2
    return PoissonPopulation(AMPLITUDE, WIDTH, PERIOD, centers)


def tabulated_prior(nodes: np.ndarray, pdf: np.ndarray, period: float) -> GridPrior:
    """Grid prior from a positive density table on a uniform periodic grid:
    renormalized by the rectangle rule, derivatives by 4th-order differences."""
    dx = period / nodes.size
    log_pdf = np.log(pdf / (np.sum(pdf) * dx))
    return GridPrior(nodes, log_pdf, fisher._central_diff4(log_pdf, dx),
                     fisher._central_diff4_second(log_pdf, dx), period=period)


@pytest.fixture(scope="session")
def pop10() -> PoissonPopulation:
    return ring_population(10)


@pytest.fixture(scope="session")
def prior() -> GridPrior:
    """Bimodal periodic prior on a 1000-point grid (the library default)."""
    return GridPrior.von_mises(period=PERIOD, width=PRIOR_WIDTH, m=1000)


@pytest.fixture(scope="session")
def prior_small() -> GridPrior:
    """Same prior on a coarse grid, for tests that loop over many models."""
    return GridPrior.von_mises(period=PERIOD, width=PRIOR_WIDTH, m=200)
