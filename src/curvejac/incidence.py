"""Incidence scheme of parametrized rational curves on a hypersurface.

A curve of degree bound d in projective n-space is a tuple of n+1 univariate
polynomials of degree <= d; the parameter space has dimension (n+1)(d+1) in
the theta coordinates (component-major, power-minor).  A hypersurface of
degree e imposes the e*d+1 coefficient equations of f(c(t)), and the Jacobian
of those equations comes in two forms: the coefficient form (rows indexed by
powers of t) and the evaluation form (rows indexed by chosen points), linked
exactly by a Vandermonde factor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DimensionError, InputError
from .linalg import (
    ComplexMatrix,
    MAX_D,
    MAX_DEGREE,
    MAX_N,
    KernelBasis,
    RationalMatrix,
    format_rational,
    kernel_exact,
    parse_list,
    parse_size,
    rank_exact,
)
from .poly import (
    MultiPoly,
    UniPoly,
    compose_with_curve,
    gcd_univariate,
    monomial_basis,
    restrict_to_curve,
)

__all__ = [
    "CurveParam",
    "IncidenceProblem",
    "JacobianMatrix",
    "TangentDim",
    "MembershipReport",
    "coefficients_k",
    "lies_on",
    "membership_checks",
    "jacobian_coefficient_form",
    "jacobian_evaluation_form",
    "restricted_gradient",
    "vanishes_on_curve",
    "tangent_dim",
    "symmetry_kernel_vectors",
    "quintics_through_curve",
    "random_member",
    "poly_from_vector",
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

    @property
    def dim_m(self) -> int:
        return (self.n + 1) * (self.d + 1)

    def theta(self) -> tuple[Fraction, ...]:
        """Flatten to coordinates, component-major then power-minor."""
        out = []
        for comp in self.components:
            out.extend(comp.coefficient(i) for i in range(self.d + 1))
        return tuple(out)

    @classmethod
    def from_theta(cls, n: int, d: int, vec: Sequence[Fraction]) -> "CurveParam":
        if len(vec) != (n + 1) * (d + 1):
            raise DimensionError("theta vector has wrong length")
        comps = tuple(
            UniPoly.from_coeffs(vec[m * (d + 1) : (m + 1) * (d + 1)]) for m in range(n + 1)
        )
        return cls(n, d, comps)

    def evaluate(self, t) -> tuple:
        return tuple(comp.evaluate(t) for comp in self.components)

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


class TangentDim(NamedTuple):
    value: int
    formal: bool  # True when the basepoint is not actually on the hypersurface


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
    """Jacobian of the incidence equations at a basepoint curve.

    form is "coefficient" (rows = powers of t) or "evaluation" (rows = chosen
    points); the matrix is rational unless evaluation points are irrational.
    """

    matrix: RationalMatrix | ComplexMatrix
    form: str
    basepoint: CurveParam
    points: tuple | None = None

    @property
    def is_exact(self) -> bool:
        return isinstance(self.matrix, RationalMatrix)

    def to_obj(self) -> dict:
        obj = {
            "form": self.form,
            "matrix": self.matrix.to_obj(),
            "exact": self.is_exact,
        }
        if isinstance(self.matrix, RationalMatrix):
            obj["row_labels"] = list(self.matrix.row_labels or ())
            obj["col_labels"] = list(self.matrix.col_labels or ())
        if self.points is not None:
            obj["points"] = [_point_label(t) for t in self.points]
        return obj


def theta_labels(n: int, d: int) -> tuple[str, ...]:
    return tuple(f"c{m}[t^{i}]" for m in range(n + 1) for i in range(d + 1))


def _point_label(t) -> str:
    if isinstance(t, Fraction):
        return format_rational(t)
    z = complex(t)
    return f"{z.real:.12g}{z.imag:+.12g}i"


def coefficients_k(prob: IncidenceProblem, c: CurveParam) -> tuple[Fraction, ...]:
    """The e*d+1 coefficients of f(c(t)), zero-padded at the top."""
    _check_curve(prob, c)
    comp = compose_with_curve(prob.f, c.components)
    return tuple(comp.coefficient(j) for j in range(prob.num_equations))


def lies_on(prob: IncidenceProblem, c: CurveParam) -> bool:
    return all(k == 0 for k in coefficients_k(prob, c))


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


def _convolution_matrix(
    grads: Sequence[UniPoly], d: int, nrows: int, row_labels=None, col_labels=None
) -> RationalMatrix:
    """Matrix of (v_m) -> sum_m grads[m] * v_m over coefficient bases, v_m of
    degree <= d: entry (row j, column (m, i)) is the t**j coefficient of
    grads[m] * t**i, a Toeplitz block per m."""
    rows = [
        [g.coefficient(j - i) for g in grads for i in range(d + 1)] for j in range(nrows)
    ]
    return RationalMatrix.from_rows(rows, row_labels, col_labels)


def _evaluation_rows(grads: Sequence[UniPoly], d: int, points: Sequence) -> list[list]:
    """Row s, column (m, i) is grads[m](t_s) * t_s**i; exact at rational points."""
    rows = []
    for t in points:
        row = []
        for g in grads:
            gval = g.evaluate(t)
            power = Fraction(1) if isinstance(t, Fraction) else complex(1)
            for _ in range(d + 1):
                row.append(gval * power)
                power = power * t
        rows.append(row)
    return rows


def jacobian_coefficient_form(
    prob: IncidenceProblem, c: CurveParam, grads: Sequence[UniPoly] | None = None
) -> JacobianMatrix:
    """Exact Jacobian with rows indexed by the coefficient equations.

    Entry (row j, column (m, i)) is the t**j coefficient of
    (df/dz_m)(c(t)) * t**i; `grads` is restricted_gradient(prob.f, c) when
    the caller already has it.
    """
    _check_curve(prob, c)
    nrows = prob.num_equations
    matrix = _convolution_matrix(
        restricted_gradient(prob.f, c) if grads is None else grads,
        prob.d,
        nrows,
        row_labels=[f"k{j}" for j in range(nrows)],
        col_labels=theta_labels(prob.n, prob.d),
    )
    return JacobianMatrix(matrix, "coefficient", c)


def jacobian_evaluation_form(
    prob: IncidenceProblem,
    c: CurveParam,
    points: Sequence,
    grads: Sequence[UniPoly] | None = None,
) -> JacobianMatrix:
    """Jacobian with rows indexed by evaluation points.

    Entry (row s, column (m, i)) is (df/dz_m)(c(t_s)) * t_s**i.  On rational
    points this equals vandermonde(points) @ coefficient form, exactly.
    `grads` is restricted_gradient(prob.f, c) when the caller already has it.
    """
    _check_curve(prob, c)
    points = list(points)
    if len(points) != prob.num_equations:
        raise DimensionError(
            f"need exactly {prob.num_equations} evaluation points, got {len(points)}"
        )
    exact = all(isinstance(t, Fraction) for t in points)
    if grads is None:
        grads = restricted_gradient(prob.f, c)
    try:
        pts = [Fraction(t) if exact else complex(t) for t in points]
        if len(set(pts)) != len(pts):
            raise ValueError("evaluation points must be pairwise distinct")
        rows = _evaluation_rows(grads, prob.d, pts)
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
    return JacobianMatrix(matrix, "evaluation", c, tuple(pts))


def tangent_dim(prob: IncidenceProblem, c: CurveParam) -> TangentDim:
    """(n+1)(d+1) minus the exact rank of the coefficient-form Jacobian.

    When the curve does not lie on the hypersurface the number is only a
    formal corank and is flagged as such.
    """
    jac = jacobian_coefficient_form(prob, c)
    return TangentDim(prob.dim_m - rank_exact(jac.matrix), not lies_on(prob, c))


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
    kernel.  Basis columns follow monomial_basis(n+1, e) order.
    """
    if c.n != n:
        raise DimensionError(f"curve has n={c.n}, expected {n}")
    cols = restrict_to_curve(
        [MultiPoly.monomial(mono) for mono in monomial_basis(n + 1, e)], c.components
    )
    matrix = RationalMatrix.from_rows(
        [[col.coefficient(j) for col in cols] for j in range(e * c.d + 1)]
    )
    return kernel_exact(matrix)


def poly_from_vector(vec: Sequence[Fraction], num_vars: int, degree: int) -> MultiPoly:
    """Interpret a coefficient vector over monomial_basis(num_vars, degree)."""
    mons = monomial_basis(num_vars, degree)
    if len(vec) != len(mons):
        raise DimensionError(
            f"vector length {len(vec)} does not match {len(mons)} monomials"
        )
    return MultiPoly(num_vars, {m: x for m, x in zip(mons, vec) if x != 0})


def random_member(
    basis: KernelBasis, seed: int, num_vars: int, degree: int
) -> MultiPoly:
    """Seeded random small-integer combination of the basis, as a polynomial.

    The monomial context (num_vars, degree) is passed explicitly because the
    bare kernel basis does not determine it.  Coefficients are drawn uniformly
    from [-9, 9], redrawing the all-zero pull, so the result is nonzero and
    reproducible for a fixed seed.
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
    vec = [Fraction(0)] * basis.ambient_dim
    for coef, bvec in zip(coefs, basis.vectors):
        if coef:
            for i, x in enumerate(bvec):
                if x:
                    vec[i] += coef * x
    return poly_from_vector(vec, num_vars, degree)
