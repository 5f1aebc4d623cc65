"""The special-quintic construction and its mechanical verification.

Given a quartic surface q(z0..z3) = 0 = z4 carrying a rational curve c0, a
linear form l and a quartic p build the quintic f0 = l*q + z4*p through the
curve.  Evaluating the incidence equations at 5d+1 chosen points makes the
Jacobian block-structured: the first d points are the roots of l(c0(t)), so
the mixed block rows there vanish, the corner block is a p-scaled Vandermonde
(hence invertible), and the remaining block is the gradient pairing of q
scaled by l.  `verify_construction` runs the whole chain of checks with exact
witnesses and reports each one.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DimensionError, InputError
from .incidence import (
    CurveParam,
    IncidenceProblem,
    _convolution_matrix,
    _evaluation_rows,
    _point_label,
    restricted_gradient,
    symmetry_kernel_vectors,
)
from .linalg import (
    ComplexMatrix,
    RationalMatrix,
    det_exact,
    format_rational,
    kernel_exact,
    rank_exact,
)
from .poly import (
    MultiPoly,
    UniPoly,
    compose_with_curve,
    gcd_univariate,
    rational_roots,
    roots_numeric,
)

__all__ = [
    "Fixture",
    "SpecialPoints",
    "BlockSet",
    "CheckResult",
    "VerificationReport",
    "build_special_hypersurface",
    "select_special_points",
    "block_decompose",
    "a11_closed_form",
    "a22_closed_form",
    "gradient_pairing_map",
    "smooth_along_curve",
    "verify_construction",
    "render_matrix",
]

MAX_POINT_ATTEMPTS = 8


def build_special_hypersurface(l: MultiPoly, q: MultiPoly, p: MultiPoly) -> MultiPoly:
    """l*q + z4*p, the quintic through every curve on the quartic surface."""
    for poly, deg, name in ((l, 1, "l"), (q, 4, "q"), (p, 4, "p")):
        if poly.num_vars != 5:
            raise DimensionError(f"{name} must live in 5 variables")
        if not poly.is_zero and poly.homogeneous_degree() != deg:
            raise InputError(f"{name} must be homogeneous of degree {deg}")
    if q.uses_variable(4):
        raise InputError("q must not involve z4")
    z4 = MultiPoly.monomial((0, 0, 0, 0, 1))
    return l * q + z4 * p


@dataclass(frozen=True)
class Fixture:
    """Input bundle for the construction: q, l, p, the curve, and f0 = l*q + z4*p."""

    name: str
    q: MultiPoly
    l: MultiPoly
    p: MultiPoly
    c0: CurveParam
    f0: MultiPoly
    d: int

    def __post_init__(self):
        if self.c0.n != 4 or self.c0.d != self.d:
            raise InputError("fixture invariant violated: c0 must have n=4 and the stated d")
        if not self.c0.components[4].is_zero:
            raise InputError("fixture invariant violated: c0's z4-component must be zero")
        if not compose_with_curve(self.q, self.c0.components).is_zero:
            raise InputError("fixture invariant violated: q(c0(t)) == 0 (curve must lie on the quartic)")
        if self.f0 != build_special_hypersurface(self.l, self.q, self.p):
            raise InputError("fixture invariant violated: f0 == l*q + z4*p")

    @classmethod
    def build(cls, name: str, q: MultiPoly, l: MultiPoly, p: MultiPoly,
              c0: CurveParam, d: int) -> "Fixture":
        return cls(name, q, l, p, c0, build_special_hypersurface(l, q, p), d)

    @property
    def problem(self) -> IncidenceProblem:
        return IncidenceProblem(4, self.d, 5, self.f0)

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "d": self.d,
            "q": self.q.to_obj(),
            "l": self.l.to_obj(),
            "p": self.p.to_obj(),
            "c0": self.c0.to_obj(),
        }

    @classmethod
    def from_obj(cls, obj) -> "Fixture":
        try:
            d = obj["d"]
            q = MultiPoly.from_obj(obj["q"])
            l = MultiPoly.from_obj(obj["l"])
            p = MultiPoly.from_obj(obj["p"])
            c0 = CurveParam.from_obj(obj["c0"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"fixture object needs d, q, l, p, c0: {exc}") from exc
        return cls.build(obj.get("name", ""), q, l, p, c0, d)


@dataclass(frozen=True)
class SpecialPoints:
    """The 5d+1 evaluation points: d roots of l(c0(t)) first, then generics.

    Generic points are always rational; in the complex field they are
    labelled as complex numbers, like the roots.
    """

    root_points: tuple
    generic_points: tuple
    field: str  # "rational" | "complex"

    @property
    def all_points(self) -> tuple:
        return self.root_points + self.generic_points

    def label(self, t) -> str:
        return _point_label(complex(t) if self.field == "complex" else t)

    def to_obj(self) -> dict:
        return {
            "field": self.field,
            "root_points": [self.label(t) for t in self.root_points],
            "generic_points": [self.label(t) for t in self.generic_points],
        }


def _generic_candidates(seed: int, attempt: int):
    """Deterministic stream of small rationals for the generic points.

    The first attempt walks reduced fractions ordered by height, 1, -1, 2,
    -2, 1/2, -1/2, ..., so reports are easy to reproduce by hand and point
    magnitudes stay near 1 (which keeps the complex path well conditioned);
    retries draw seeded random small rationals.
    """
    if attempt == 0:
        yield Fraction(1)
        yield Fraction(-1)
        h = 2
        while True:
            pairs = [(h, 1)]
            pairs += [(h, k) for k in range(2, h) if math.gcd(h, k) == 1]
            pairs += [(k, h) for k in range(1, h) if math.gcd(h, k) == 1]
            for num, den in pairs:
                yield Fraction(num, den)
                yield Fraction(-num, den)
            h += 1
    else:
        rng = random.Random(seed * 1_000_003 + attempt)
        while True:
            yield Fraction(rng.randint(-15, 15), rng.randint(1, 6))


def _generic_points(lc: UniPoly, pc: UniPoly, count: int, seed: int, attempt: int) -> tuple:
    """The first `count` distinct candidates of the attempt's stream that are
    no zero of lc or pc (a restriction that vanishes identically excludes
    nothing, so the draw always ends)."""
    avoid = [g for g in (lc, pc) if not g.is_zero]
    points: list[Fraction] = []
    for cand in _generic_candidates(seed, attempt):
        if len(points) == count:
            break
        if cand in points or any(g.evaluate(cand) == 0 for g in avoid):
            continue
        points.append(cand)
    return tuple(points)


def select_special_points(
    lc: UniPoly,
    pc: UniPoly,
    d: int,
    seed: int = 0,
    attempt: int = 0,
    precision: int = 12,
) -> SpecialPoints:
    """Choose the d roots of lc = l(c0(t)) plus 4d+1 generic points.

    Roots are exact when lc splits over the rationals, else complex at the
    configured precision.  Generic points are small rationals avoiding both
    the roots and the zeros of pc = p(c0(t)), which keeps the corner block
    invertible and the scaled rows well-defined.
    """
    if lc.is_zero:
        raise ValueError("l vanishes identically on the curve")
    if lc.degree < d:
        raise ValueError("root at infinity, choose another l")
    if gcd_univariate(lc, lc.derivative()).degree > 0:
        raise ValueError("l not generic for c0")
    if gcd_univariate(lc, pc).degree > 0:
        raise ValueError("p not generic")
    exact_roots, cofactor = rational_roots(lc)
    if cofactor.degree == 0:
        roots: tuple = tuple(exact_roots)
        field = "rational"
    else:
        roots = tuple(roots_numeric(lc, precision))
        field = "complex"
    return SpecialPoints(roots, _generic_points(lc, pc, 4 * d + 1, seed, attempt), field)


@dataclass(frozen=True, eq=False)
class BlockSet:
    """Blocks of the evaluation-form Jacobian under the special split.

    Rows split after the first d+1 points, columns split into the
    z4-component block and the rest.  The top blocks are complex when the
    roots are; the lower 4d points are rational, so a21, a22 and a0 are
    exact.  a0 is a22 with each row divided by l(c0(t_s)); rows where that
    value vanishes are flagged and a0 omitted.
    """

    a11: RationalMatrix | ComplexMatrix
    a12: RationalMatrix | ComplexMatrix
    a21: RationalMatrix
    a22: RationalMatrix
    a0: RationalMatrix | None
    l_values: tuple
    flagged_rows: tuple[int, ...]

    @property
    def is_exact(self) -> bool:
        return isinstance(self.a11, RationalMatrix)


def _matrix(rows: Sequence[Sequence], ncols: int):
    """Rational matrix of the rows, or a complex one if any entry is complex."""
    entries = [x for r in rows for x in r]
    if all(isinstance(x, Fraction) for x in entries):
        return RationalMatrix(len(rows), ncols, tuple(entries))
    data = np.array([complex(x) for x in entries], dtype=np.complex128)
    return ComplexMatrix.from_array(data.reshape(len(rows), ncols))


def block_decompose(rows: Sequence[Sequence], points: Sequence, lc: UniPoly) -> BlockSet:
    """Extract the four blocks and the l-rescaled reduced block.

    `rows` are the evaluation-form Jacobian rows at the 5d+1 special points
    (the d roots, the extra point, then 4d rational points), in theta column
    order; lc = l(c0(t)) divides the lower-right rows.
    """
    if len(rows) != len(points) or (len(points) - 1) % 5:
        raise DimensionError("expected 5d+1 evaluation points")
    d = (len(points) - 1) // 5
    z4_cols = range(4 * (d + 1), 5 * (d + 1))
    rest_cols = range(4 * (d + 1))
    top, bottom = rows[: d + 1], rows[d + 1 :]

    def block(part, cols):
        return _matrix([[r[j] for j in cols] for r in part], len(cols))

    a22 = block(bottom, rest_cols)
    if not isinstance(a22, RationalMatrix):
        raise ValueError("the lower 4d evaluation points must be rational")
    l_values = tuple(lc.evaluate(t) for t in points[d + 1 :])
    flagged = tuple(i for i, v in enumerate(l_values) if v == 0)
    a0 = None if flagged else a22.scale_rows([1 / v for v in l_values])
    return BlockSet(
        block(top, z4_cols), block(top, rest_cols), block(bottom, z4_cols), a22, a0,
        l_values, flagged,
    )


def a11_closed_form(pc: UniPoly, points: Sequence):
    """Corner block from the formula: entry (s, i) = t_s**(d-i) * pc(t_s),
    with pc = p(c0(t)) and d + 1 = len(points).

    Columns run through descending powers, so comparing against the extracted
    block requires reversing the extracted columns.
    """
    d = len(points) - 1
    return _matrix([[pc.evaluate(t) * t ** (d - i) for i in range(d + 1)] for t in points], d + 1)


def a22_closed_form(lc: UniPoly, grads: Sequence[UniPoly], points: Sequence) -> RationalMatrix:
    """Lower block from the formula, at the last 4d (rational) points:
    entry (s, (m, i)) = lc(t_s) * grads[m](t_s) * t_s**i, m = 0..3, with
    lc = l(c0(t)) and grads = restricted_gradient(q, c0)."""
    if len(points) % 4:
        raise DimensionError("lower block needs the last 4d points")
    rows = _evaluation_rows(grads[:4], len(points) // 4, points)
    return RationalMatrix.from_rows(
        [[lc.evaluate(t) * x for x in row] for t, row in zip(points, rows)]
    )


def _require_on_quartic(grads: Sequence[UniPoly], c0: CurveParam):
    # Euler: sum_m z_m * dq/dz_m = deg(q) * q for homogeneous q of positive
    # degree, so q(c0(t)) = 0 iff the sum vanishes on the curve.
    if not sum((comp * g for comp, g in zip(c0.components, grads)), UniPoly.zero()).is_zero:
        raise ValueError("curve does not lie on the quartic")


def gradient_pairing_map(grads: Sequence[UniPoly], c0: CurveParam) -> RationalMatrix:
    """Matrix of v = (v0..v3) -> sum_m (dq/dz_m)(c0(t)) * v_m(t), given
    grads = restricted_gradient(q, c0).

    This is the coefficient Jacobian of q at c0 without the z4 columns:
    shape (4d+1) x (4d+4); the kernel consists of the first-order
    deformations of the curve inside the affine cone over the quartic.
    Requires the curve to lie on the quartic.
    """
    _require_on_quartic(grads, c0)
    return _convolution_matrix(grads[:4], c0.d, 4 * c0.d + 1)


def smooth_along_curve(q: MultiPoly, c0: CurveParam) -> bool:
    """Necessary smoothness of the quartic along the curve's image.

    True iff the four gradient restrictions (dq/dz_m)(c0(t)) have constant
    gcd and do not all drop below degree 3d (no common zero at the point at
    infinity of the degree-3d homogenizations).  This is along-curve only; it
    says nothing about smoothness away from the curve.
    """
    grads = restricted_gradient(q, c0)
    _require_on_quartic(grads, c0)
    grads = grads[:4]
    nonzero = [g for g in grads if not g.is_zero]
    if not nonzero:
        return False
    g = nonzero[0]
    for other in nonzero[1:]:
        g = gcd_univariate(g, other)
    if g.degree > 0:
        return False
    return max(gr.degree for gr in grads) == 3 * c0.d


@dataclass(frozen=True)
class CheckResult:
    check_id: int
    name: str
    status: str  # "pass" | "fail" | "info"
    details: dict

    def to_obj(self) -> dict:
        return {
            "id": self.check_id,
            "name": self.name,
            "status": self.status,
            "details": self.details,
        }


@dataclass(frozen=True)
class VerificationReport:
    fixture_name: str
    d: int
    seed: int
    tol: float
    precision: int
    field: str
    points: tuple[str, ...]
    attempts: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_obj(self) -> dict:
        return {
            "fixture": self.fixture_name,
            "d": self.d,
            "seed": self.seed,
            "tol": self.tol,
            "precision": self.precision,
            "field": self.field,
            "points": list(self.points),
            "attempts": self.attempts,
            "passed": self.passed,
            "checks": [c.to_obj() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        lines = [
            f"fixture {self.fixture_name or '<unnamed>'}  d={self.d}  seed={self.seed}  "
            f"field={self.field}  attempts={self.attempts}",
            f"points: {', '.join(self.points)}",
            "-" * 72,
        ]
        for c in self.checks:
            tag = {"pass": "PASS", "fail": "FAIL", "info": "INFO"}[c.status]
            lines.append(f"[{c.check_id:>2}] {tag}  {c.name}")
            for key, val in c.details.items():
                if isinstance(val, list) and val and isinstance(val[0], list):
                    lines.append(f"      {key}:")
                    lines.extend("        " + row for row in _render_string_rows(val))
                else:
                    lines.append(f"      {key}: {val}")
        lines.append("-" * 72)
        lines.append("RESULT: " + ("all mandatory checks passed" if self.passed else "FAILED"))
        return "\n".join(lines) + "\n"


def render_matrix(m, max_cols: int = 12) -> list[list[str]]:
    """Entries as strings, truncating wide matrices with an elision marker."""
    if isinstance(m, RationalMatrix):
        rows = [[format_rational(x) for x in m.row(i)] for i in range(m.rows)]
    else:
        rows = [[_point_label(complex(x)) for x in row] for row in m.data]
    if m.cols > max_cols:
        keep = max_cols - 1
        rows = [r[:keep] + [f"... ({m.cols - keep} more)"] for r in rows]
    return rows


def _render_string_rows(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return [
        "[ " + "  ".join(x.rjust(w) for x, w in zip(r, widths)) + " ]" for r in rows
    ]


def verify_construction(
    fixture: Fixture, seed: int = 0, tol: float = 1e-8, precision: int = 12
) -> VerificationReport:
    """Run the full check chain on a fixture and report exact witnesses.

    Each polynomial is restricted to the curve once, before the point loop;
    every block is built from those restrictions.  Point-dependent rank
    checks trigger a redraw of the generic points (up to MAX_POINT_ATTEMPTS
    attempts) before being reported as failures; every check lands in the
    report either way.  The generic points are rational, so checks 5 to 7 are
    exact in both fields; only the corner block (check 4) at complex roots is
    compared and inverted numerically, at `tol`.
    """
    d = fixture.d
    prob = fixture.problem
    c0 = fixture.c0

    checks: list[CheckResult] = []

    # (1) f0 vanishes on the curve (holds by fixture validation; re-check).
    restricted = compose_with_curve(fixture.f0, c0.components)
    checks.append(
        CheckResult(
            1,
            "special quintic vanishes on the curve",
            "pass" if restricted.is_zero else "fail",
            {"f0_on_curve": str(restricted)},
        )
    )

    lc = compose_with_curve(fixture.l, c0.components)
    pc = compose_with_curve(fixture.p, c0.components)
    grad_f0 = restricted_gradient(fixture.f0, c0)
    grad_q = restricted_gradient(fixture.q, c0)
    try:
        selected, error = select_special_points(lc, pc, d, seed, 0, precision), None
    except ValueError as exc:
        selected, error = None, str(exc)
    # Every root row of the mixed block vanishes iff lc divides each
    # (df0/dz_m)(c0(t)), m < 4: lc is squarefree and all its roots are used.
    root_rows_zero = error is None and all(g.divmod_exact(lc)[1].is_zero for g in grad_f0[:4])

    for attempt in range(MAX_POINT_ATTEMPTS):
        attempt_checks: list[CheckResult] = []

        # (2) special point selection; retries redraw only the generic points.
        if error is None:
            pts = selected if attempt == 0 else replace(
                selected, generic_points=_generic_points(lc, pc, 4 * d + 1, seed, attempt)
            )
            attempt_checks.append(
                CheckResult(2, "special point selection", "pass", pts.to_obj())
            )
        else:
            # All-generic points keep the rest of the chain running; the
            # root-row census then has nothing to check.
            pts = SpecialPoints((), _generic_points(lc, pc, 5 * d + 1, seed, attempt), "rational")
            attempt_checks.append(
                CheckResult(
                    2,
                    "special point selection",
                    "fail",
                    {"error": error, "fallback": pts.to_obj()},
                )
            )

        points = pts.all_points
        # The corner block is compared and inverted numerically when the
        # roots are complex, the extra point included; the 4d lower rows
        # are exact in both fields.
        top = points[: d + 1]
        if pts.field == "complex":
            top = tuple(complex(t) for t in top)
        rows = _evaluation_rows(grad_f0, d, top + points[d + 1 :])
        blocks = block_decompose(rows, points, lc)

        # (3) the blocks are slices of the evaluation Jacobian's rows, so they
        # reassemble to it exactly when their shapes tile it.
        shapes = {
            name: [getattr(blocks, name).rows, getattr(blocks, name).cols]
            for name in ("a11", "a12", "a21", "a22")
        }
        tiling = [[d + 1, d + 1], [d + 1, 4 * (d + 1)], [4 * d, d + 1], [4 * d, 4 * (d + 1)]]
        attempt_checks.append(
            CheckResult(
                3,
                "blocks reassemble to the evaluation Jacobian",
                "pass" if list(shapes.values()) == tiling else "fail",
                {"shapes": shapes},
            )
        )

        # (4) corner block equals its closed form and is invertible.
        closed11 = a11_closed_form(pc, top)
        extracted11 = blocks.a11.submatrix(range(d + 1), range(d, -1, -1))
        if blocks.is_exact:
            det11 = det_exact(extracted11)
            ok4 = extracted11.entries == closed11.entries and det11 != 0
            det_str = format_rational(det11)
        else:
            det11 = complex(np.linalg.det(extracted11.data))
            ok4 = bool(np.allclose(extracted11.data, closed11.data, rtol=tol, atol=tol))
            ok4 = ok4 and abs(det11) > tol
            det_str = _point_label(det11)
        attempt_checks.append(
            CheckResult(
                4,
                "corner block matches closed form and is invertible",
                "pass" if ok4 else "fail",
                {"det": det_str, "matrix": render_matrix(extracted11)},
            )
        )

        # (5) mixed block rows vanish at the roots of l(c0(t)); the extra
        # row (at the d+1-th point) is reported as found, never failing.  A
        # row at a rational point t vanishes iff every (df0/dz_m)(c0(t)) does.
        nroots = len(pts.root_points)
        census = [
            {
                "point": pts.label(points[s]),
                "is_zero": root_rows_zero if s < nroots
                else all(g.evaluate(points[s]) == 0 for g in grad_f0[:4]),
            }
            for s in range(d + 1)
        ]
        ok5 = all(c["is_zero"] for c in census[:nroots])
        attempt_checks.append(
            CheckResult(
                5,
                "mixed block rows vanish at l-roots (extra row reported)",
                "pass" if ok5 else "fail",
                {"rows": census, "root_rows": nroots},
            )
        )

        # (6) lower block equals its closed form.
        ok6 = blocks.a22 == a22_closed_form(lc, grad_q, points[d + 1 :])
        attempt_checks.append(
            CheckResult(6, "lower block matches closed form", "pass" if ok6 else "fail", {})
        )

        # (7) the l-rescaled block has full row rank 4d.
        rank0 = None if blocks.a0 is None else rank_exact(blocks.a0)
        ok7 = rank0 == 4 * d
        attempt_checks.append(
            CheckResult(
                7,
                "rescaled lower block has full row rank",
                "pass" if ok7 else "fail",
                {"rank": rank0, "expected": 4 * d, "flagged_rows": list(blocks.flagged_rows)},
            )
        )

        if ok7 or attempt == MAX_POINT_ATTEMPTS - 1:
            break
        # Rank degeneration is the one failure mode a fresh draw of generic
        # points can repair; everything else is point-independent.

    checks.extend(attempt_checks)

    # (8) gradient pairing kernel has dimension exactly 4.
    pairing = gradient_pairing_map(grad_q, c0)
    pairing_kernel = kernel_exact(pairing)
    ok8 = pairing_kernel.dim == 4
    checks.append(
        CheckResult(
            8,
            "gradient pairing kernel is four-dimensional",
            "pass" if ok8 else "fail",
            {"rank": pairing.cols - pairing_kernel.dim, "kernel_dim": pairing_kernel.dim},
        )
    )

    # (9) coefficient-form Jacobian has full rank 5d+1; its kernel dimension
    # is the tangent dimension, formal unless f0 vanishes on the curve.
    jac_coeff = _convolution_matrix(grad_f0, d, prob.num_equations)
    kernel = kernel_exact(jac_coeff)
    rank_c = jac_coeff.cols - kernel.dim
    ok9 = rank_c == 5 * d + 1 and kernel.dim == 4 and restricted.is_zero
    checks.append(
        CheckResult(
            9,
            "coefficient Jacobian has full rank and tangent dimension 4",
            "pass" if ok9 else "fail",
            {"rank": rank_c, "expected_rank": 5 * d + 1, "tangent_dim": kernel.dim},
        )
    )

    # (10) the Jacobian kernel equals the span of the symmetry vectors.
    sym = symmetry_kernel_vectors(c0)
    annihilated = all(all(x == 0 for x in jac_coeff.matvec(v)) for v in sym)
    sym_rank = rank_exact(RationalMatrix.from_rows(sym))
    if kernel.dim:
        stack = RationalMatrix.from_rows([list(v) for v in kernel.vectors] + [list(v) for v in sym])
        stack_rank = rank_exact(stack)
    else:
        stack_rank = sym_rank
    ok10 = annihilated and sym_rank == 4 and kernel.dim == 4 and stack_rank == 4
    checks.append(
        CheckResult(
            10,
            "Jacobian kernel equals the symmetry span",
            "pass" if ok10 else "fail",
            {
                "kernel_dim": kernel.dim,
                "symmetry_rank": sym_rank,
                "stack_rank": stack_rank,
                "symmetry_annihilated": annihilated,
            },
        )
    )

    return VerificationReport(
        fixture_name=fixture.name,
        d=d,
        seed=seed,
        tol=tol,
        precision=precision,
        field=pts.field,
        points=tuple(pts.label(t) for t in points),
        attempts=attempt + 1,
        checks=tuple(checks),
    )
