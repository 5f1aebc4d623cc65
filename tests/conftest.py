import pytest

from curvejac import fixtures
from curvejac.construction import Fixture
from curvejac.poly import MultiPoly


@pytest.fixture(scope="session")
def fixture_a():
    return fixtures.fixture_a()


@pytest.fixture(scope="session")
def fixture_b():
    return fixtures.fixture_b()


@pytest.fixture(scope="session")
def fixture_b_nonsplit(fixture_b):
    """Fixture B with a linear form restricting to 1 + t^2 (roots +-i), so the
    special points leave the rationals and the complex path is exercised."""
    l = MultiPoly(
        5,
        {(1, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0): 1, (0, 0, 0, 1, 0): 2, (0, 0, 0, 0, 1): 3},
    )
    return Fixture("B-nonsplit", fixture_b.q, l, fixture_b.p, fixture_b.c0, 2)


@pytest.fixture()
def fermat_quintic():
    return MultiPoly(
        5,
        {
            (5, 0, 0, 0, 0): 1,
            (0, 5, 0, 0, 0): 1,
            (0, 0, 5, 0, 0): 1,
            (0, 0, 0, 5, 0): 1,
            (0, 0, 0, 0, 5): 1,
        },
    )
