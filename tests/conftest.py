import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest

from curvejac import cli, fixtures
from curvejac.construction import Fixture
from curvejac.poly import MultiPoly


@pytest.fixture()
def no_euclid(monkeypatch):
    """Make coprime's fallback, Euclid over Q, raise."""

    def refuse(polys):
        raise AssertionError("Euclid over Q ran")

    monkeypatch.setattr("curvejac.poly._gcd_degree", refuse)


@pytest.fixture()
def table_builds(monkeypatch):
    """Counts the restriction tables built (`poly._curve_monomials`): the
    builder is replaced in every curvejac module that binds it, and the
    returned list gets one entry per table."""
    from curvejac import poly

    builds, build = [], poly._curve_monomials

    def counting_build(components):
        builds.append(len(components))
        return build(components)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "curvejac" and getattr(module, "_curve_monomials", None) is build:
            monkeypatch.setattr(module, "_curve_monomials", counting_build)
    return builds


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


def _b_with_l(fixture_b, name, l_terms):
    return Fixture(name, fixture_b.q, MultiPoly(5, l_terms), fixture_b.p, fixture_b.c0, 2)


@pytest.fixture(scope="session")
def fixture_b_large_split(fixture_b):
    """Fixture B with l restricting to (t - r1)(t - r2), r1 = (10^60 + 7)/3
    and r2 = -(10^59 + 1)/7: split roots of height 10^60."""
    r1, r2 = Fraction(10**60 + 7, 3), Fraction(-(10**59 + 1), 7)
    return _b_with_l(fixture_b, "B-large-split", {
        (1, 0, 0, 0, 0): r1 * r2, (0, 1, 0, 0, 0): -(r1 + r2), (0, 0, 1, 0, 0): 1,
        (0, 0, 0, 0, 1): 3})


@pytest.fixture(scope="session")
def fixture_b_large_nonsplit(fixture_b):
    """Fixture B with l restricting to t^2 - (2*10^60 + 1): roots near
    +-1.41e30, far from the unit circle where the numeric iteration starts."""
    return _b_with_l(fixture_b, "B-large-nonsplit", {
        (1, 0, 0, 0, 0): -(2 * 10**60 + 1), (0, 0, 1, 0, 0): 1, (0, 0, 0, 0, 1): 3})


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


@pytest.fixture()
def jacobian_command(tmp_path):
    """Runs the `jacobian` command on a problem and a curve, written to
    files, with the given options, and returns its JSON output."""

    def run(problem, curve, *options):
        paths = []
        for name, obj in (("problem.json", problem), ("curve.json", curve)):
            path = tmp_path / name
            path.write_text(json.dumps(obj.to_obj()))
            paths.append(str(path))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["jacobian", *paths, *options]) == 0
        return json.loads(out.getvalue())

    return run
