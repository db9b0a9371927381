import random

import pytest

from rookposet import Scope, placement
from rookposet.exactlin import random_upper


def upper_samples(n, seed, count, bound=3):
    """``count`` invertible Borel matrices drawn from one random.Random(seed)."""
    rng = random.Random(seed)
    return [random_upper(n, rng, bound, Scope.BOREL) for _ in range(count)]


@pytest.fixture
def golden8():
    """The running 8-board example used throughout the test suite."""
    return placement(8, [(3, 1), (6, 2), (7, 3), (5, 4), (8, 6)])


@pytest.fixture
def golden8_rank_table():
    return (
        (0, 0, 0, 0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0, 0, 0),
        (1, 2, 0, 0, 0, 0, 0, 0),
        (0, 1, 2, 0, 0, 0, 0, 0),
        (0, 1, 2, 3, 0, 0, 0, 0),
        (0, 1, 2, 2, 2, 0, 0, 0),
        (0, 0, 1, 1, 1, 2, 0, 0),
        (0, 0, 0, 0, 0, 1, 1, 0),
    )


@pytest.fixture
def chain6():
    """The 6-board example with a long chain and dimension gap."""
    return placement(6, [(3, 1), (5, 2), (4, 3), (6, 4)])
