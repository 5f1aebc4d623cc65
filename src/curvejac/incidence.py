"""Incidence scheme of parametrized rational curves on a hypersurface.

A curve of degree bound d in projective n-space is a tuple of n+1 univariate
polynomials of degree <= d; the parameter space has dimension (n+1)(d+1) in
the theta coordinates (component-major, power-minor).  A hypersurface of
degree e imposes the e*d+1 coefficient equations of f(c(t)), and the Jacobian
of those equations comes in two forms: the coefficient form (rows indexed by
powers of t) and the evaluation form (rows indexed by chosen points), linked
exactly by a Vandermonde factor.

A curve's components are pairs (den, ints), each an integer coefficient
list over its own least denominator.  The restricted gradient
(`restricted_gradient`), the package's one restriction, which each form is
written from and a fixture reads l, p and q's partials from, is one pair
(den, lists) from f's terms (`poly`'s gradient map): integer coefficient
lists over their least denominator.  The coefficient form is a Toeplitz
block per partial (`_convolution_matrix`) of those lists, an `IntMatrix`,
den times the Jacobian, with its rank and kernel.  An evaluation row
(`_evaluation_rows`) evaluates the homogenized partials by Horner at a
point (a, b): at a rational t = a/b, the pair (a, b) in lowest terms,
b > 0, with integer lists it is an integer row, a positive multiple of the
value row, and at (t, 1), t complex, the value row itself.  The evaluation
form is such rows, never eliminated exactly.  The `jacobian` command alone
prints either form and labels its rows and columns.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from math import gcd, lcm

from .errors import DimensionError, InputError, Record
from .linalg import (
    MAX_D,
    MAX_DEGREE,
    MAX_N,
    IntMatrix,
    KernelBasis,
    format_rational,
    kernel_exact,
    parse_list,
    parse_rational,
    parse_size,
)
from .poly import MultiPoly, _curve_monomials, _gradient_map, _pack, _scaled, _slot_size, coprime

__all__ = [
    "CurveParam",
    "IncidenceProblem",
    "membership_checks",
    "jacobian_coefficient_form",
    "jacobian_evaluation_form",
    "restricted_gradient",
    "vanishes_on_curve",
    "symmetry_kernel_vectors",
    "quintics_through_curve",
    "random_member",
    "theta_labels",
]


class CurveParam(Record):
    """A point of the curve parameter space: n+1 components of degree <= d,
    components[m] = (den, ints) with c_m(t) = sum_i ints[i] t**i / den, as
    `from_rationals` builds it: den > 0 least, ints a tuple of ints, t**0
    first, no trailing zero (a zero component is (1, ())).  Only a common
    factor of den and ints goes unchecked: at the input limits its gcd
    costs more than reading the curve."""

    __slots__ = _fields = ("n", "d", "components")

    def _check(self):
        if len(self.components) != self.n + 1:
            raise InputError(f"curve needs {self.n + 1} components, got {len(self.components)}")
        for m, (den, xs) in enumerate(self.components):
            if len(xs) - 1 > self.d:
                raise InputError(f"component {m} has degree {len(xs) - 1} > bound {self.d}")
            if not (type(xs) is tuple and all(type(x) is int for x in (den, *xs))
                    and den > 0 and (not xs or xs[-1])):
                raise InputError(f"component {m} is not (den > 0, ints) without a trailing zero")

    @classmethod
    def from_rationals(cls, n: int, d: int, comps) -> "CurveParam":
        """The curve whose components have the coefficient lists comps[m]
        (t**0 first; trailing zeros dropped), ints or other rationals with a
        numerator and a denominator, each over its own least denominator."""
        return cls(n, d, tuple(_scaled([(x.numerator, x.denominator) for x in cs])
                               for cs in comps))

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "components": [{"coeffs": [format_rational(x, den) for x in xs]}
                           for den, xs in self.components],
        }

    @classmethod
    def from_obj(cls, obj) -> "CurveParam":
        try:
            n, d, comps = obj["n"], obj["d"], obj["components"]
        except (KeyError, TypeError) as exc:
            raise InputError("curve object needs 'n', 'd', 'components'") from exc
        n, d = parse_size(n, "n", MAX_N), parse_size(d, "d", MAX_D)
        parsed = []
        for comp in parse_list(comps, "components"):
            try:
                coeffs = comp["coeffs"]
            except (KeyError, TypeError) as exc:
                raise InputError("univariate polynomial object needs 'coeffs'") from exc
            parsed.append(_scaled([parse_rational(c) for c in parse_list(coeffs, "coeffs")]))
        return cls(n, d, tuple(parsed))


class IncidenceProblem(Record):
    """A hypersurface div(f) of degree e together with the curve degree bound."""

    __slots__ = _fields = ("n", "d", "e", "f")

    def _check(self):
        if self.f.num_vars != self.n + 1:
            raise DimensionError(
                f"f has {self.f.num_vars} variables, ambient dimension wants {self.n + 1}"
            )
        if self.f.is_zero:
            raise InputError("defining polynomial must be nonzero")
        if self.f.homogeneous_degree() != self.e:
            raise InputError(
                f"f is not homogeneous of degree {self.e}"
            )

    @property
    def num_equations(self) -> int:
        return self.e * self.d + 1

    @property
    def dim_m(self) -> int:
        return (self.n + 1) * (self.d + 1)

    def to_obj(self) -> dict:
        return {"n": self.n, "d": self.d, "e": self.e, "f": self.f.to_obj()}

    @classmethod
    def from_obj(cls, obj) -> "IncidenceProblem":
        try:
            n, d, e, f = obj["n"], obj["d"], obj["e"], obj["f"]
        except (KeyError, TypeError) as exc:
            raise InputError("problem object needs 'n', 'd', 'e', 'f'") from exc
        return cls(parse_size(n, "n", MAX_N), parse_size(d, "d", MAX_D),
                   parse_size(e, "e", MAX_DEGREE), MultiPoly.from_obj(f))


def theta_labels(n: int, d: int) -> tuple[str, ...]:
    return tuple(f"c{m}[t^{i}]" for m in range(n + 1) for i in range(d + 1))


def _point_label(t) -> str:
    if isinstance(t, tuple):
        return format_rational(*t)
    z = complex(t)
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _complex(t) -> complex:
    """A point as a complex number: a rational (a, b) as the float a / b,
    which int division rounds correctly."""
    return complex(t[0] / t[1]) if isinstance(t, tuple) else complex(t)


def membership_checks(c: CurveParam) -> dict:
    """Necessary conditions for a parameter point to be an embedded curve,
    each a bool, and "all_pass", their conjunction.  Base-point-free means
    the components are coprime (`coprime`)."""
    lists = [xs for _, xs in c.components]
    checks = {"base_point_free": False, "attains_degree": False, "nonconstant": False}
    if any(lists):
        checks = {"base_point_free": coprime(*lists),
                  "attains_degree": max(map(len, lists)) - 1 == c.d,
                  "nonconstant": any(len(xs) >= 2 for xs in lists)}
    return {**checks, "all_pass": all(checks.values())}


def _check_curve(prob: IncidenceProblem, c: CurveParam):
    if c.n != prob.n or c.d != prob.d:
        raise DimensionError(
            f"curve (n={c.n}, d={c.d}) does not match problem (n={prob.n}, d={prob.d})"
        )


def restricted_gradient(f: MultiPoly, c: CurveParam) -> tuple[int, list[list[int]]]:
    """The partials (df/dz_m)(c(t)), one per variable of f, restricted
    together from f's terms through a table of c's own (`_gradient_map`):
    (den, lists), lists[m] den * (df/dz_m)(c(t)) in integers, den least."""
    return _gradient_map(f.num_vars, list(f.terms), _curve_monomials(c.components))(f)


def vanishes_on_curve(grads: tuple[int, list[list[int]]], c: CurveParam, degree: int) -> bool:
    """Whether f(c(t)) = 0, given grads = restricted_gradient(f, c) of a form
    f of the given degree.

    Euler: sum_m z_m * df/dz_m = degree * f, so for positive degree f(c(t))
    vanishes iff sum_m c_m(t) * (df/dz_m)(c(t)) does; a nonzero constant
    never does.  The sum is taken in integers, times a positive scale: the
    components over their common denominator (`_common_ints`) times the
    lists of grads, packed (`_pack`) at a slot that holds every coefficient
    of the sum, so one integer that is zero iff the sum is.
    """
    if degree <= 0:
        return False
    pairs = [(a, g) for a, g in zip(_common_ints(c), grads[1]) if a and g]
    size = _slot_size(sum(min(len(a), len(g)) * max(map(abs, a)) * max(map(abs, g))
                          for a, g in pairs))
    return not sum(_pack(a, size) * _pack(g, size) for a, g in pairs)


def _common_ints(c: CurveParam) -> list[list[int]]:
    """The integer lists D * c_m(t) of the curve's components, D the lcm of
    their denominators."""
    big = lcm(*(den for den, _ in c.components))
    return [[x * (big // den) for x in xs] for den, xs in c.components]


def _convolution_matrix(ints: Sequence[Sequence[int]], d: int, nrows: int) -> IntMatrix:
    """Matrix of (v_m) -> sum_m g_m * v_m over coefficient bases, v_m of
    degree <= d and g_m the polynomial with integer coefficient list ints[m]
    (t**0 first): entry (row j, column (m, i)) is ints[m][j - i], a Toeplitz
    block per m, in integers."""
    entries = tuple(g[j - i] if 0 <= j - i < len(g) else 0
                    for j in range(nrows) for g in ints for i in range(d + 1))
    return IntMatrix(nrows, len(ints) * (d + 1), entries)


def _evaluation_rows(coeffs: Sequence[Sequence], d: int, points: Sequence[tuple]) -> list[list]:
    """Row s, column (m, i) is b**K * g_m(a/b) * a**i * b**(d - i) at the
    point (a, b) = points[s], g_m the polynomial with coefficient list
    coeffs[m] (t**0 first) and K + 1 the length of the longest list.

    Each b**K * g_m(a/b) is a Horner evaluation of the homogenized g_m.  With
    integer coefficients and t = a/b in lowest terms, b > 0, the row is in
    integers: the value row g_m(t) * t**i times b**(K + d) > 0, so it has
    the value rows' rank and zeros.  At (t, 1) it is the value row itself,
    exact or complex as t is: a power of b = 1 is never multiplied in.
    """
    top = max(map(len, coeffs))
    rows = []
    for a, b in points:
        mono = [1]  # a**i * b**(d - i), i = 0..d
        for _ in range(d):
            mono.append(mono[-1] * a)
        bpow = [1]
        if b != 1:
            for _ in range(max(top, d)):
                bpow.append(bpow[-1] * b)
            mono = [x * bpow[d - i] for i, x in enumerate(mono)]
        row = []
        for cs in coeffs:
            acc = 0
            if b == 1:
                for c in reversed(cs):
                    acc = acc * a + c
            else:
                for c, bk in zip(reversed(cs), bpow):
                    acc = acc * a + c * bk
                acc *= bpow[top - len(cs)]
            row.extend(acc * x for x in mono)
        rows.append(row)
    return rows


def jacobian_coefficient_form(
    prob: IncidenceProblem, c: CurveParam, grads: tuple[int, list[list[int]]]
) -> IntMatrix:
    """Exact Jacobian with rows indexed by the coefficient equations, times
    den, in integers: the Jacobian's rank and kernel.

    Entry (row j, column (m, i)) is den times the t**j coefficient of
    (df/dz_m)(c(t)) * t**i, given grads = (den, ints) =
    restricted_gradient(prob.f, c).
    """
    _check_curve(prob, c)
    return _convolution_matrix(grads[1], prob.d, prob.num_equations)


def jacobian_evaluation_form(
    prob: IncidenceProblem,
    c: CurveParam,
    points: Sequence,
    grads: tuple[int, list[list[int]]],
) -> tuple[list[list], list]:
    """Jacobian with rows indexed by evaluation points: its rows and the
    points, all rational pairs (a, b) in lowest terms, b > 0, or else all
    taken as complex.

    Entry (row s, column (m, i)) is (df/dz_m)(c(t_s)) * t_s**i, given
    grads = (den, ints) = restricted_gradient(prob.f, c).  At rational
    points the rows evaluate the integer lists at (a, b) exactly: row s is
    den * b**(K + d) times the Jacobian's, K + 1 the longest list, so at
    points (a, 1) they are den times V times the Jacobian's coefficient
    form, V the Vandermonde matrix with entry (s, j) = t_s**j.  At complex
    points they evaluate the floats x / den, each correctly rounded: the
    Jacobian itself.
    """
    _check_curve(prob, c)
    points = list(points)
    if len(points) != prob.num_equations:
        raise DimensionError(
            f"need exactly {prob.num_equations} evaluation points, got {len(points)}"
        )
    exact = all(isinstance(t, tuple) for t in points)
    den, ints = grads
    try:
        pts = points if exact else [_complex(t) for t in points]
        if len(set(pts)) != len(pts):
            raise ValueError("evaluation points must be pairwise distinct")
        coeffs = ints if exact else [[x / den for x in g] for g in ints]
        rows = _evaluation_rows(coeffs, prob.d, pts if exact else [(t, 1) for t in pts])
    except OverflowError as exc:  # only complex evaluation divides into floats
        raise ValueError("a point or a coefficient is beyond the float range") from exc
    return rows, pts


def symmetry_kernel_vectors(c: CurveParam) -> list[tuple[int, ...]]:
    """Theta images of D*c', D*t*c', D*(t^2*c' - d*t*c) and D*c, in integers.

    D is the lcm of the components' denominators (`_common_ints`).  With
    D*c_m = sum_k c_k t**k, the four t**k coefficients, k = 0..d, are
    (k+1)*c_{k+1}, k*c_k, (k-1-d)*c_{k-1} and c_k: the third family's
    t**(d+1) coefficient is 0*c_d, so every image keeps the degree bound.
    These span the reparametrization-plus-scaling directions; whenever the
    curve lies on the hypersurface they are annihilated by the Jacobian.
    """
    d, out = c.d, ([], [], [], [])
    for cs in _common_ints(c):
        p = [0, *cs] + [0] * (d + 2 - len(cs))  # p[k + 1] = c_k, k = -1..d+1
        out[0].extend((k + 1) * p[k + 2] for k in range(d + 1))
        out[1].extend(k * p[k + 1] for k in range(d + 1))
        out[2].extend((k - 1 - d) * p[k] for k in range(d + 1))
        out[3].extend(p[1 : d + 2])
    return [tuple(v) for v in out]


def quintics_through_curve(c: CurveParam, mons: Sequence[tuple[int, ...]],
                           table) -> KernelBasis:
    """All degree-e forms vanishing on the curve, over the monomials mons =
    monomial_basis(n+1, e), which the caller builds.

    The linear map sending a form to the coefficients of its restriction to
    the curve is an (e*d+1) x C(n+e, e) matrix, column j the restriction of
    mons[j], and the result is its exact kernel, columns in the order of
    mons.  The curve's table of restricted monomials, table =
    `_curve_monomials`(c.components), which the caller builds too, gives
    column j as (den_j, ints_j), ints_j = den_j times the column.  The
    kernel is taken of the integer matrix of the ints_j: scaling column j by
    den_j > 0 keeps the pivot columns, and each of its basis vectors is a
    basis vector of the map's with entry j divided by den_j, up to a scale.
    So entry j times den_j, the vector divided by its gcd, is the map's
    basis vector in primitive form, its lead still positive.
    """
    if len(mons[0]) != c.n + 1:
        raise DimensionError(f"curve has n={c.n}, monomials are in {len(mons[0])} variables")
    cols = [table(mono) for mono in mons]
    nrows = sum(mons[0]) * c.d + 1
    ints = [xs + [0] * (nrows - len(xs)) for _, xs in cols]
    basis = kernel_exact(IntMatrix(nrows, len(cols), tuple(x for row in zip(*ints) for x in row)))
    vectors = []
    for terms in basis.vectors:
        if len(terms) > 1:  # a unit vector stays one
            terms = [(j, x * cols[j][0]) for j, x in terms]
            g = gcd(*(x for _, x in terms))
            terms = tuple((j, x // g) for j, x in terms)
        vectors.append(terms)
    return KernelBasis(len(cols), tuple(vectors))


def random_member(basis: KernelBasis, seed: int, mons: Sequence[tuple[int, ...]]) -> MultiPoly:
    """Seeded random small-integer combination of the basis, as a polynomial
    with integer coefficients.

    The monomials mons that index the basis columns are passed explicitly
    because the bare kernel basis does not determine them.  Coefficients c_k
    are drawn uniformly from [-9, 9], redrawing the all-zero pull, so the
    result is nonzero and reproducible for a fixed seed.  The member is
    sum_k c_k * w_k, w_k the integer numerators `KernelBasis` keeps for
    vector k, which are the vector in primitive integer form, lead positive.
    It is summed with one multiply-add per nonzero basis entry and no
    division, and no coefficient exceeds 9 * dim times the largest numerator
    of the basis: at most bit_length(9 * dim) bits more.
    """
    if basis.dim == 0:
        raise ValueError("cannot sample from an empty basis")
    if basis.ambient_dim != len(mons):
        raise DimensionError(
            f"basis ambient dimension {basis.ambient_dim} does not match {len(mons)} monomials")
    rng = random.Random(seed)
    while True:
        coefs = [rng.randint(-9, 9) for _ in range(basis.dim)]
        if any(coefs):
            break
    acc = [0] * basis.ambient_dim
    for coef, terms in zip(coefs, basis.vectors):
        if coef:
            for j, x in terms:
                acc[j] += coef * x
    return MultiPoly._of_items(len(mons[0]), 1, zip(mons, acc))
