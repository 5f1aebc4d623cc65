"""Incidence scheme of parametrized rational curves on a hypersurface.

A curve of degree bound d in projective n-space is a tuple of n+1 univariate
polynomials of degree <= d; the parameter space has dimension (n+1)(d+1) in
the theta coordinates (component-major, power-minor).  A hypersurface of
degree e imposes the e*d+1 coefficient equations of f(c(t)), and the Jacobian
of those equations comes in two forms: the coefficient form (rows indexed by
powers of t) and the evaluation form (rows indexed by chosen points), linked
exactly by a Vandermonde factor.

Each form is written once.  The coefficient form is a Toeplitz block per
partial (`_convolution_matrix`), built from integer coefficient lists: the
restricted gradient over its common denominator, so the matrix is in
integers, that denominator times the Jacobian, with its rank and kernel.
An evaluation row (`_evaluation_rows`) evaluates the homogenized partials by
Horner at a point (a, b): at a rational t = a/b with integer lists it is an
integer row, a positive multiple of the value row, and at (t, 1) the value
row itself, exact or complex as t is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import DimensionError, InputError
from .linalg import (
    ComplexMatrix,
    MAX_D,
    MAX_DEGREE,
    MAX_N,
    KernelBasis,
    RationalMatrix,
    _scaled,
    format_rational,
    kernel_exact,
    parse_list,
    parse_size,
)
from .poly import (
    MultiPoly,
    UniPoly,
    _curve_monomials,
    gcd_univariate,
    monomial_basis,
    restrict_to_curve,
)

__all__ = [
    "CurveParam",
    "IncidenceProblem",
    "JacobianMatrix",
    "MembershipReport",
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


@dataclass(frozen=True)
class CurveParam:
    """A point of the curve parameter space: n+1 components of degree <= d."""

    n: int
    d: int
    components: tuple[UniPoly, ...]

    def __post_init__(self):
        if len(self.components) != self.n + 1:
            raise InputError(
                f"curve needs {self.n + 1} components, got {len(self.components)}"
            )
        for m, comp in enumerate(self.components):
            if comp.degree > self.d:
                raise InputError(
                    f"component {m} has degree {comp.degree} > bound {self.d}"
                )

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "components": [c.to_obj() for c in self.components],
        }

    @classmethod
    def from_obj(cls, obj) -> "CurveParam":
        try:
            n, d, comps = obj["n"], obj["d"], obj["components"]
        except (KeyError, TypeError) as exc:
            raise InputError("curve object needs 'n', 'd', 'components'") from exc
        return cls(parse_size(n, "n", MAX_N), parse_size(d, "d", MAX_D),
                   tuple(UniPoly.from_obj(c) for c in parse_list(comps, "components")))


@dataclass(frozen=True)
class IncidenceProblem:
    """A hypersurface div(f) of degree e together with the curve degree bound."""

    n: int
    d: int
    e: int
    f: MultiPoly

    def __post_init__(self):
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


@dataclass(frozen=True)
class MembershipReport:
    """Necessary conditions for a parameter point to be an embedded curve."""

    base_point_free: bool
    attains_degree: bool
    nonconstant: bool

    @property
    def all_pass(self) -> bool:
        return self.base_point_free and self.attains_degree and self.nonconstant

    def to_obj(self) -> dict:
        return {
            "base_point_free": self.base_point_free,
            "attains_degree": self.attains_degree,
            "nonconstant": self.nonconstant,
            "all_pass": self.all_pass,
        }


@dataclass(frozen=True, eq=False)
class JacobianMatrix:
    """Jacobian of the incidence equations at a curve.

    form is "coefficient" (rows = powers of t) or "evaluation" (rows = chosen
    points); the matrix is rational unless evaluation points are irrational.
    It is den times the Jacobian, which `to_obj` writes: the coefficient
    form keeps its matrix in integers.
    """

    matrix: RationalMatrix | ComplexMatrix
    form: str
    points: tuple | None = None
    den: int = 1

    @property
    def is_exact(self) -> bool:
        return isinstance(self.matrix, RationalMatrix)

    def to_obj(self) -> dict:
        matrix = self.matrix.to_obj()
        if self.den != 1:
            m = self.matrix
            matrix["entries"] = [[format_rational(Fraction(x, self.den)) for x in m.row(i)]
                                 for i in range(m.rows)]
        obj = {"form": self.form, "matrix": matrix, "exact": self.is_exact}
        if isinstance(self.matrix, RationalMatrix):
            obj["row_labels"] = list(self.matrix.row_labels or ())
            obj["col_labels"] = list(self.matrix.col_labels or ())
        if self.points is not None:
            obj["points"] = [_point_label(t) for t in self.points]
        return obj


def theta_labels(n: int, d: int) -> tuple[str, ...]:
    return tuple(f"c{m}[t^{i}]" for m in range(n + 1) for i in range(d + 1))


def _point_label(t) -> str:
    if isinstance(t, (int, Fraction)):
        return format_rational(t)
    z = complex(t)
    return f"{z.real:.12g}{z.imag:+.12g}i"


def membership_checks(c: CurveParam) -> MembershipReport:
    nonzero = [comp for comp in c.components if not comp.is_zero]
    if not nonzero:
        return MembershipReport(False, False, False)
    g = nonzero[0]
    for comp in nonzero[1:]:
        g = gcd_univariate(g, comp)
    base_point_free = g.degree == 0
    attains_degree = max(comp.degree for comp in c.components) == c.d
    nonconstant = any(comp.degree >= 1 for comp in c.components)
    return MembershipReport(base_point_free, attains_degree, nonconstant)


def _check_curve(prob: IncidenceProblem, c: CurveParam):
    if c.n != prob.n or c.d != prob.d:
        raise DimensionError(
            f"curve (n={c.n}, d={c.d}) does not match problem (n={prob.n}, d={prob.d})"
        )


def restricted_gradient(f: MultiPoly, c: CurveParam) -> list[UniPoly]:
    """The partials (df/dz_m)(c(t)), one per variable of f, restricted
    together by `restrict_to_curve`."""
    return restrict_to_curve([f.partial_derivative(m) for m in range(f.num_vars)], c.components)


def vanishes_on_curve(grads: Sequence[UniPoly], c: CurveParam, degree: int) -> bool:
    """Whether f(c(t)) = 0, given grads = restricted_gradient(f, c) of a form
    f of the given degree.

    Euler: sum_m z_m * df/dz_m = degree * f, so for positive degree f(c(t))
    vanishes iff sum_m c_m(t) * grads[m] does; a nonzero constant never does.
    """
    euler = sum((comp * g for comp, g in zip(c.components, grads)), UniPoly.zero())
    return degree > 0 and euler.is_zero


def _common_ints(polys: Sequence[UniPoly]) -> tuple[int, list[list[int]]]:
    """(den, lists): den the lcm of the denominators of all the polynomials'
    coefficients and lists[m] = den * polys[m] as an integer coefficient
    list, t**0 first."""
    den, flat = _scaled([x for g in polys for x in g.coeffs])
    lists, k = [], 0
    for g in polys:
        lists.append(flat[k : k + len(g.coeffs)])
        k += len(g.coeffs)
    return den, lists


def _convolution_matrix(
    ints: Sequence[Sequence[int]], d: int, nrows: int, row_labels=None, col_labels=None
) -> RationalMatrix:
    """Matrix of (v_m) -> sum_m g_m * v_m over coefficient bases, v_m of
    degree <= d and g_m the polynomial with integer coefficient list ints[m]
    (t**0 first): entry (row j, column (m, i)) is ints[m][j - i], a Toeplitz
    block per m, in integers."""
    entries = tuple(g[j - i] if 0 <= j - i < len(g) else 0
                    for j in range(nrows) for g in ints for i in range(d + 1))
    return RationalMatrix(
        nrows,
        len(ints) * (d + 1),
        entries,
        tuple(row_labels) if row_labels is not None else None,
        tuple(col_labels) if col_labels is not None else None,
    )


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
    prob: IncidenceProblem, c: CurveParam, grads: Sequence[UniPoly]
) -> JacobianMatrix:
    """Exact Jacobian with rows indexed by the coefficient equations.

    Entry (row j, column (m, i)) is the t**j coefficient of
    (df/dz_m)(c(t)) * t**i, given grads = restricted_gradient(prob.f, c).
    The matrix holds it in integers, times den, the lcm of the denominators
    of grads (`JacobianMatrix.den`): the Jacobian's rank and kernel.
    """
    _check_curve(prob, c)
    nrows = prob.num_equations
    den, ints = _common_ints(grads)
    matrix = _convolution_matrix(
        ints,
        prob.d,
        nrows,
        row_labels=[f"k{j}" for j in range(nrows)],
        col_labels=theta_labels(prob.n, prob.d),
    )
    return JacobianMatrix(matrix, "coefficient", den=den)


def jacobian_evaluation_form(
    prob: IncidenceProblem,
    c: CurveParam,
    points: Sequence,
    grads: Sequence[UniPoly],
) -> JacobianMatrix:
    """Jacobian with rows indexed by evaluation points.

    Entry (row s, column (m, i)) is (df/dz_m)(c(t_s)) * t_s**i, given
    grads = restricted_gradient(prob.f, c).  On rational points this is
    exactly V times the coefficient form, V the Vandermonde matrix with
    entry (s, j) = t_s**j.
    """
    _check_curve(prob, c)
    points = list(points)
    if len(points) != prob.num_equations:
        raise DimensionError(
            f"need exactly {prob.num_equations} evaluation points, got {len(points)}"
        )
    exact = all(isinstance(t, Fraction) for t in points)
    try:
        pts = [Fraction(t) if exact else complex(t) for t in points]
        if len(set(pts)) != len(pts):
            raise ValueError("evaluation points must be pairwise distinct")
        rows = _evaluation_rows([g.coeffs for g in grads], prob.d, [(t, 1) for t in pts])
    except OverflowError as exc:  # only complex evaluation turns Fractions into floats
        raise ValueError("a point or a coefficient is beyond the float range") from exc
    if exact:
        matrix = RationalMatrix.from_rows(
            rows,
            row_labels=[f"t={_point_label(t)}" for t in pts],
            col_labels=theta_labels(prob.n, prob.d),
        )
    else:
        matrix = ComplexMatrix.from_rows(rows)
    return JacobianMatrix(matrix, "evaluation", tuple(pts))


def symmetry_kernel_vectors(c: CurveParam) -> list[tuple[Fraction, ...]]:
    """Theta images of c', t*c', t^2*c' - d*t*c, and c.

    These span the reparametrization-plus-scaling directions; whenever the
    curve lies on the hypersurface they are annihilated by the Jacobian.
    """
    d = c.d
    deriv = [comp.derivative() for comp in c.components]
    families = [
        deriv,
        [g.shift(1) for g in deriv],
        [g.shift(2) - comp.shift(1).scale(d) for g, comp in zip(deriv, c.components)],
        list(c.components),
    ]
    out = []
    for fam in families:
        vec = []
        for comp in fam:
            if comp.degree > d:
                raise AssertionError("symmetry vector exceeds degree bound")
            vec.extend(comp.coefficient(i) for i in range(d + 1))
        out.append(tuple(vec))
    return out


def quintics_through_curve(n: int, e: int, c: CurveParam) -> KernelBasis:
    """All degree-e forms vanishing on the curve, over the monomial basis.

    Builds the (e*d+1) x C(n+e, e) matrix of the linear map sending a form to
    the coefficients of its restriction to the curve, and returns the exact
    kernel.  Basis columns follow monomial_basis(n+1, e) order.  The matrix
    is in integers: column j is the entry (den_j, ints_j) of the table of
    restricted monomials (`_curve_monomials`) scaled to L = lcm(den_j), and
    each row is divided by its gcd, which changes neither the kernel nor the
    pivot columns, so neither the basis.
    """
    if c.n != n:
        raise DimensionError(f"curve has n={c.n}, expected {n}")
    restrict = _curve_monomials(c.components)
    cols = [restrict(mono) for mono in monomial_basis(n + 1, e)]
    big, nrows = lcm(*(den for den, _ in cols)), e * c.d + 1
    cols = [[x * (big // den) for x in xs] + [0] * (nrows - len(xs)) for den, xs in cols]
    entries = []
    for row in zip(*cols):
        g = gcd(*row) or 1
        entries.extend(x // g for x in row)
    return kernel_exact(RationalMatrix(nrows, len(cols), tuple(entries)))


def random_member(
    basis: KernelBasis, seed: int, num_vars: int, degree: int
) -> MultiPoly:
    """Seeded random small-integer combination of the basis, as a polynomial.

    The monomial context (num_vars, degree) is passed explicitly because the
    bare kernel basis does not determine it.  Coefficients are drawn uniformly
    from [-9, 9], redrawing the all-zero pull, so the result is nonzero and
    reproducible for a fixed seed.  The combination is summed in integers
    over the lcm of the denominators of the vectors it uses, one multiply-add
    per nonzero basis entry, and each nonzero sum becomes one Fraction.
    """
    if basis.dim == 0:
        raise ValueError("cannot sample from an empty basis")
    mons = monomial_basis(num_vars, degree)
    if basis.ambient_dim != len(mons):
        raise DimensionError(
            f"basis ambient dimension {basis.ambient_dim} does not match "
            f"{len(mons)} monomials of degree {degree} in {num_vars} variables"
        )
    rng = random.Random(seed)
    while True:
        coefs = [rng.randint(-9, 9) for _ in range(basis.dim)]
        if any(coefs):
            break
    used = [(coef, den, terms) for coef, (den, terms) in zip(coefs, basis.vectors) if coef]
    big = lcm(*(den for _, den, _ in used))
    acc = [0] * basis.ambient_dim
    for coef, den, terms in used:
        w = coef * (big // den)
        for j, x in terms:
            acc[j] += w * x
    return MultiPoly._of_clean(num_vars, {m: Fraction(a, big) for m, a in zip(mons, acc) if a})
