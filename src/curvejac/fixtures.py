"""Shipped verification fixtures.

Both fixtures are engineered so the whole pipeline stays on the exact
rational path: l restricts to the curve as a polynomial that splits over the
rationals, and p restricts to one that avoids both the roots of l(c0(t)) and
the image of the quartic's gradient pairing.  The z0/z1 cross terms of p are
what keep p(c0(t)) outside that image; a diagonal quartic lands inside it for
these curves and would drop the Jacobian rank by one.
"""

from __future__ import annotations

from .construction import Fixture
from .errors import InputError
from .incidence import CurveParam
from .poly import MultiPoly

__all__ = [
    "fixture_a",
    "fixture_b",
    "get",
    "FIXTURE_NAMES",
]

FIXTURE_NAMES = ("A", "B")

_P_SHARED = MultiPoly(
    5,
    {
        (4, 0, 0, 0, 0): 1,
        (3, 1, 0, 0, 0): 1,
        (2, 2, 0, 0, 0): 1,
        (1, 3, 0, 0, 0): -2,
        (0, 4, 0, 0, 0): 1,
        (0, 0, 4, 0, 0): 1,
        (0, 0, 0, 4, 0): 1,
        (0, 0, 0, 0, 4): 1,
    },
)


def fixture_a() -> Fixture:
    """Line (1, t, 0, 0, 0) on the smooth quartic z0^3 z2 + z1^3 z3 + z2^4 + z3^4.

    l(c0(t)) = 1 + 2t with the single root -1/2, where p(c0(-1/2)) = 17/16.
    """
    q = MultiPoly(
        5,
        {(3, 0, 1, 0, 0): 1, (0, 3, 0, 1, 0): 1, (0, 0, 4, 0, 0): 1, (0, 0, 0, 4, 0): 1},
    )
    l = MultiPoly(
        5,
        {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 2, (0, 0, 1, 0, 0): 3,
         (0, 0, 0, 1, 0): 5, (0, 0, 0, 0, 1): 7},
    )
    c0 = CurveParam.from_rationals(4, 1, ([1], [0, 1], [], [], []))
    return Fixture("A", q, l, _P_SHARED, c0, 1)


def fixture_b() -> Fixture:
    """Conic (1, t, t^2, 0, 0) on (z0 z2 - z1^2)(z0^2+z1^2+z2^2) + z3 (z0^3+z1^3+z2^3).

    l = z0 - z2 + 2 z3 + 3 z4 restricts to 1 - t^2, roots -1 and 1.  The
    quadric and cubic factors restrict to 1+t^2+t^4 and 1+t^3+t^6, which are
    coprime with top-degree terms present, so the quartic is smooth along the
    curve and the gradient pairing has the expected four-dimensional kernel.
    """
    base = MultiPoly(5, {(1, 0, 1, 0, 0): 1, (0, 2, 0, 0, 0): -1})
    quadric = MultiPoly(5, {(2, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0): 1, (0, 0, 2, 0, 0): 1})
    cubic = MultiPoly(5, {(3, 0, 0, 0, 0): 1, (0, 3, 0, 0, 0): 1, (0, 0, 3, 0, 0): 1})
    q = base * quadric + MultiPoly.monomial((0, 0, 0, 1, 0)) * cubic
    l = MultiPoly(
        5,
        {(1, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0): -1, (0, 0, 0, 1, 0): 2, (0, 0, 0, 0, 1): 3},
    )
    c0 = CurveParam.from_rationals(4, 2, ([1], [0, 1], [0, 0, 1], [], []))
    return Fixture("B", q, l, _P_SHARED, c0, 2)


def get(name: str) -> Fixture:
    if name == "A":
        return fixture_a()
    if name == "B":
        return fixture_b()
    raise InputError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")

