"""The special-quintic construction and its mechanical verification.

Given a quartic surface q(z0..z3) = 0 = z4 carrying a rational curve c0, a
linear form l and a quartic p build the quintic f0 = l*q + z4*p through the
curve.  Evaluating the incidence equations at 5d+1 chosen points makes the
Jacobian block-structured: the first d points are the roots of l(c0(t)), so
the mixed block rows there vanish, the corner block is a p-scaled Vandermonde
(hence invertible), and the remaining block is the gradient pairing of q
scaled by l.  `verify_construction` runs the whole chain of checks with exact
witnesses and reports each one.

`Fixture` restricts l, p and q's partials once, decides q(c0) = 0 from them,
and guarantees a zero z4 component of c0 and a q free of z4, so on the curve
f0 vanishes, (df0/dz4)(c0) = p(c0) and (df0/dz_m)(c0) = l(c0) * (dq/dz_m)(c0),
m < 4; f0 itself is never built.  Checks 1, 3 and 6 and check 5's
root rows hold by construction; the point selection (2), the corner
determinant (4), the extra row (5) and the ranks (7-10) are decided, by five
certified ranks (`rank_exact`) with no evaluation Jacobian and no kernel
basis.  A rank mod p is the lower bound and the row count the upper bound,
except in check 8, where the z0..z3 parts of the four symmetry vectors are
exact kernel witnesses of the pairing map (`gradient_pairing_map`); Bareiss
elimination decides only where the bounds disagree.

Every ranked matrix is in integers.  The restrictions are one pair of
`restrict_to_curve`, integer coefficient lists over their least common
denominator D: the Toeplitz blocks of checks 8 and 9 are D and D**2 times
the pairing map and the coefficient Jacobian, and the rows of check 7 at a
point a/b, like check 5's extra row, are the value rows times a positive
power of b and D (`incidence._evaluation_rows`), so no rank and no zero
changes.  The symmetry vectors are integer lists read off the curve.  The
roots and the corner block read lc and pc off the same pair, and only what
the report prints is rational or complex: the points, the corner block and
its determinant, whose factors pc(t_s) are the block's last column.
`select_special_points` finds the roots once; the generic points are drawn
only in the retry loop of check 7, which ranks the rescaled lower block at
the 4d rational generic points and is the one check retried over a redraw
of those points.  Every check is exact in both fields: complex roots of
l(c0(t)) are labels.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from .errors import DimensionError, InputError, Record
from .incidence import (
    CurveParam,
    _complex,
    _convolution_matrix,
    _evaluation_rows,
    _point_label,
    symmetry_kernel_vectors,
    vanishes_on_curve,
)
from .linalg import MAX_D, IntMatrix, parse_size, rank_exact
from .poly import (MultiPoly, _curve_monomials, _int_mul, coprime, restrict_to_curve,
                   squarefree_roots)

__all__ = [
    "Fixture",
    "select_special_points",
    "gradient_pairing_map",
    "verify_construction",
    "render_text",
    "render_matrix",
]

MAX_POINT_ATTEMPTS = 8
MAX_RENDER_COLS = 12


def _check_factors(l: MultiPoly, q: MultiPoly, p: MultiPoly):
    """Raise unless l, q and p are forms of degree 1, 4 and 4 in z0..z4, or
    zero, and q is free of z4."""
    for poly, deg, name in ((l, 1, "l"), (q, 4, "q"), (p, 4, "p")):
        if poly.num_vars != 5:
            raise DimensionError(f"{name} must live in 5 variables")
        if not poly.is_zero and poly.homogeneous_degree() != deg:
            raise InputError(f"{name} must be homogeneous of degree {deg}")
    if q.uses_variable(4):
        raise InputError("q must not involve z4")


class Fixture(Record):
    """Input bundle for the construction: q, l, p and the curve, d >= 1.
    Derived: `restricted`, the pair (den, lists) of `restrict_to_curve` for
    lc = l(c0), pc = p(c0) and (dq/dz_m)(c0), m < 4, in that order, which
    decides q(c0) = 0.  f0 = l*q + z4*p is never built."""

    _fields = ("name", "q", "l", "p", "c0", "d")
    __slots__ = (*_fields, "restricted")

    def _check(self):
        _check_factors(self.l, self.q, self.p)
        if self.d < 1:
            raise InputError(f"fixture d must be at least 1, got {self.d}")
        if self.c0.n != 4 or self.c0.d != self.d:
            raise InputError("fixture invariant violated: c0 must have n=4 and the stated d")
        if self.c0.components[4][1]:
            raise InputError("fixture invariant violated: c0's z4-component must be zero")
        den, lists = restrict_to_curve(
            [[self.l, self.p, *(self.q.partial_derivative(m) for m in range(4))]],
            _curve_monomials(self.c0.components))[0]
        object.__setattr__(self, "restricted", (den, lists))
        # q is a quartic free of z4, so its partials m < 4 decide q(c0) = 0.
        if not vanishes_on_curve((den, lists[2:]), self.c0, 4):
            raise InputError("fixture invariant violated: q(c0(t)) == 0 (curve must lie on the quartic)")

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
            d = parse_size(obj["d"], "d", MAX_D)
            q = MultiPoly.from_obj(obj["q"])
            l = MultiPoly.from_obj(obj["l"])
            p = MultiPoly.from_obj(obj["p"])
            c0 = CurveParam.from_obj(obj["c0"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"fixture object needs d, q, l, p, c0: {exc}") from exc
        name = obj.get("name", "")
        if not isinstance(name, str):
            raise InputError(f"fixture name must be a string, got {name!r}")
        return cls(name, q, l, p, c0, d)


def _generic_candidates(seed: int, attempt: int):
    """Deterministic stream of small rationals (a, b) for the generic points.

    The first attempt walks reduced rationals ordered by height, 1, -1, 2,
    -2, 1/2, -1/2, ..., so reports are easy to reproduce by hand and point
    magnitudes stay near 1 (which keeps the complex path well conditioned);
    retries draw seeded random small rationals.
    """
    if attempt == 0:
        yield 1, 1
        yield -1, 1
        h = 2
        while True:
            pairs = [(h, 1)]
            pairs += [(h, k) for k in range(2, h) if math.gcd(h, k) == 1]
            pairs += [(k, h) for k in range(1, h) if math.gcd(h, k) == 1]
            for num, den in pairs:
                yield num, den
                yield -num, den
            h += 1
    else:
        rng = random.Random(seed * 1_000_003 + attempt)
        while True:
            num, den = rng.randint(-15, 15), rng.randint(1, 6)
            g = math.gcd(num, den)
            yield num // g, den // g


def _generic_points(lc: Sequence, pc: Sequence, count: int, seed: int, attempt: int) -> tuple:
    """The first `count` distinct candidates of the attempt's stream that are
    no zero of lc or pc, given as coefficient lists, t**0 first (a
    restriction that vanishes identically excludes nothing, so the draw
    always ends).  A candidate a/b is a zero where its evaluation row
    (`_evaluation_rows` at (a, b), degree 0) has a zero entry."""
    avoid = [g for g in (lc, pc) if g]
    points, seen = [], set()
    for cand in _generic_candidates(seed, attempt):
        if len(points) == count:
            break
        if cand in seen or (avoid and not all(_evaluation_rows(avoid, 0, [cand])[0])):
            continue
        seen.add(cand)
        points.append(cand)
    return tuple(points)


def select_special_points(restricted: tuple, d: int) -> tuple[tuple, str]:
    """The d roots of lc = l(c0(t)) and their field, "rational" or "complex",
    given restricted = (den, [lc, pc = p(c0(t)), ...]) (`Fixture.restricted`).

    Roots are exact pairs (a, b) (p-adic lifting, no floats) when lc splits
    over the rationals, else complex labels.  Raises ValueError unless lc
    has degree d, is squarefree and is coprime to pc = p(c0(t)), or when its
    complex roots do not converge.  With the generic points that `_generic_points`
    draws, avoiding the zeros of lc and pc, these make the corner block
    invertible.
    """
    den, (lc, pc, *_) = restricted
    if not lc:
        raise ValueError("l vanishes identically on the curve")
    if len(lc) - 1 < d:
        raise ValueError("root at infinity, choose another l")
    if not coprime(lc, [i * x for i, x in enumerate(lc)][1:]):
        raise ValueError("l not generic for c0")
    if not coprime(lc, pc):
        raise ValueError("p not generic")
    exact_roots, numeric = squarefree_roots((den, lc))
    return tuple(numeric or exact_roots), "complex" if numeric else "rational"


def _corner_rows(den: int, pc: Sequence[int], points: Sequence) -> list[list]:
    """Entry (s, i) = pc(t_s) * t_s**(d-i), d + 1 = len(points), pc =
    (df0/dz4)(c0) as integer coefficients over den: the evaluation rows
    (`_evaluation_rows`), columns reversed, at a rational t_s = (a, b) the
    integer row at (a, b), each entry a pair over den * b**(K+d), K + 1 =
    len(pc), so exact, and at a complex t_s the row at (t_s, 1) of the
    floats x / den.  Entry i = d is pc(t_s)."""
    d, rows = len(points) - 1, []
    for t in points:
        if isinstance(t, tuple):
            scale = den * t[1] ** (len(pc) - 1 + d)
            row = [(x, scale) for x in _evaluation_rows([pc], d, [t])[0]]
        else:
            row = _evaluation_rows([[x / den for x in pc]], d, [(t, 1)])[0]
        rows.append(row[::-1])
    return rows


def gradient_pairing_map(grads: Sequence[Sequence[int]], d: int) -> IntMatrix:
    """Matrix of v = (v0..v3) -> sum_m (dq/dz_m)(c0(t)) * v_m(t) on a curve
    c0 of degree d, times a positive integer D, given the first four entries
    (or all) of restricted_gradient(q, c0) as integer coefficient lists over
    the common denominator D.

    This is the coefficient Jacobian of q at c0 without the z4 columns, in
    integers: shape (4d+1) x (4d+4); when the curve lies on the quartic, the
    kernel consists of the first-order deformations of the curve inside the
    affine cone over the quartic.
    """
    return _convolution_matrix(grads[:4], d, 4 * d + 1)


def render_text(report: dict) -> str:
    """The table `verify` writes to stderr, from the document of
    `verify_construction`: a header, each check's status and details, and
    the verdict."""
    lines = [
        f"fixture {report['fixture'] or '<unnamed>'}  d={report['d']}  seed={report['seed']}  "
        f"field={report['field']}  attempts={report['attempts']}",
        f"points: {', '.join(report['points'])}",
        "-" * 72,
    ]
    for c in report["checks"]:
        lines.append(f"[{c['id']:>2}] {c['status'].upper()}  {c['name']}")
        for key, val in c["details"].items():
            if isinstance(val, list) and val and isinstance(val[0], list):
                lines.append(f"      {key}:")
                lines.extend("        " + row for row in _render_string_rows(val))
            else:
                lines.append(f"      {key}: {val}")
    lines.append("-" * 72)
    lines.append("RESULT: " + ("all mandatory checks passed" if report["passed"] else "FAILED"))
    return "\n".join(lines) + "\n"


def render_matrix(rows: Sequence[Sequence], label=_point_label) -> list[list[str]]:
    """Entries as strings, truncating matrices wider than MAX_RENDER_COLS
    with an elision marker."""
    out = [[label(x) for x in row] for row in rows]
    cols = len(out[0])
    if cols > MAX_RENDER_COLS:
        keep = MAX_RENDER_COLS - 1
        out = [r[:keep] + [f"... ({cols - keep} more)"] for r in out]
    return out


def _render_string_rows(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return [
        "[ " + "  ".join(x.rjust(w) for x, w in zip(r, widths)) + " ]" for r in rows
    ]


def verify_construction(fixture: Fixture, seed: int = 0) -> dict:
    """Run the full check chain on a fixture and return the document
    `verify` prints: the fixture's name, d, the seed, the field, the point
    labels, the attempts, "passed" and the checks, each with its "id",
    "name", "status" ("pass" or "fail") and "details", exact witnesses.

    Reads `fixture.restricted` and restricts nothing; checks 1, 3 and 6 and
    check 5's root rows hold by the fixture's invariants.  The only
    point-dependent rank, check 7, triggers a redraw of the generic points
    (up to MAX_POINT_ATTEMPTS attempts) before it is reported as a failure,
    and checks 2-7 are then reported from the final points.  Checks 7-10 are
    exact ranks with no kernel basis, in both fields: complex roots are labels.
    """
    d = fixture.d
    c0 = fixture.c0
    checks: list[dict] = []

    def record(check_id: int, name: str, ok: bool, details: dict):
        checks.append({"id": check_id, "name": name, "status": "pass" if ok else "fail",
                       "details": details})

    # By the fixture's invariants f0 = l*q + z4*p vanishes on the curve
    # (check 1) and its gradient there is lc * (dq/dz_m)(c0), m < 4, and pc.
    # Every matrix ranked below is in integers: the restrictions over their
    # common denominator D, so D**2 times f0's gradient is lc_i * q_i and
    # D * pc_i, and the symmetry vectors are integer lists already.
    den, (lc_i, pc_i, *q_i) = fixture.restricted
    grad_f0 = [_int_mul(lc_i, g) for g in q_i] + [[den * x for x in pc_i]]
    record(1, "special quintic vanishes on the curve", True, {"f0_on_curve": "0"})
    try:
        roots, root_field = select_special_points(fixture.restricted, d)
        error = None
    except ValueError as exc:
        # All-generic points keep the rest of the chain running; the
        # root-row census then has nothing to check.
        roots, root_field, error = (), "rational", str(exc)

    # (7) is the one check a fresh draw of generic points can repair: the
    # rescaled lower block, rows (dq/dz_m)(c0(t_s)) * t_s**i at the last 4d
    # points, needs full row rank 4d; rows where lc vanishes are flagged.
    for attempt in range(MAX_POINT_ATTEMPTS):
        points = roots + _generic_points(lc_i, pc_i, 5 * d + 1 - len(roots), seed, attempt)
        lower = points[d + 1 :]
        flagged = [s for s, row in enumerate(_evaluation_rows([lc_i], 0, lower)) if not row[0]]
        rank0 = None if flagged else rank_exact(
            IntMatrix.from_rows(_evaluation_rows(q_i, d, lower)))
        if rank0 == 4 * d:
            break

    # (2) special point selection; retries redraw only the generic points,
    # which are rational and, in the complex field, labelled like the roots.
    def label(t) -> str:
        return _point_label(_complex(t) if root_field == "complex" else t)

    selection = {"field": root_field, "root_points": [label(t) for t in roots],
                 "generic_points": [label(t) for t in points[len(roots) :]]}
    record(2, "special point selection", error is None,
           selection if error is None else {"error": error, "fallback": selection})

    # (3) rows split after the first d+1 points, columns into the z4
    # component and the rest: the four blocks tile the evaluation Jacobian,
    # since the points always number 5d+1.
    top = points[: d + 1]
    record(3, "blocks reassemble to the evaluation Jacobian", True,
           {"shapes": {"a11": [len(top), d + 1], "a12": [len(top), 4 * (d + 1)],
                       "a21": [len(lower), d + 1], "a22": [len(lower), 4 * (d + 1)]}})

    # (4) on the curve df0/dz4 = p, so the corner block is pc(t_s) *
    # t_s**(d-i) up to column order, with det prod pc(t_s) * prod (t_s -
    # t_s'), pc(t_s) its last column.  It is invertible when the d+1 points
    # are distinct and no zero of pc, which the selection establishes: lc is
    # squarefree of degree d and coprime to pc, and the extra point avoids
    # the zeros of lc*pc.  The all-generic fallback has rational points only and is
    # decided by its exact determinant, a pair (num, den).
    corner = _corner_rows(den, pc_i, top)
    if root_field == "complex":
        values = [_complex(t) for t in top]
        det11 = math.prod(_complex(row[-1]) for row in corner) * math.prod(
            t - u for s, t in enumerate(values) for u in values[s + 1 :])
    else:
        factors = [row[-1] for row in corner] + [
            (a * y - x * b, b * y) for s, (a, b) in enumerate(top) for x, y in top[s + 1 :]]
        det11 = math.prod(a for a, _ in factors), math.prod(b for _, b in factors)
    record(4, "corner block matches closed form and is invertible",
           error is None or det11[0] != 0,
           {"det": label(det11), "matrix": render_matrix(corner, label)})

    # (5) lc divides each (df0/dz_m)(c0(t)), m < 4, so the mixed block rows
    # vanish at the roots of l(c0(t)), which a successful selection uses.
    # The extra row (at the d+1-th point) is reported as found, never
    # failing; it vanishes iff every (df0/dz_m)(c0(t)) does there, that is
    # iff lc or every (dq/dz_m)(c0) has a zero integer evaluation there.
    def row_vanishes(t: tuple[int, int]) -> bool:
        values = _evaluation_rows([lc_i, *q_i], 0, [t])[0]
        return not values[0] or not any(values[1:])

    nroots = len(roots)
    census = [{"point": label(t), "is_zero": s < nroots or row_vanishes(t)}
              for s, t in enumerate(top)]
    record(5, "mixed block rows vanish at l-roots (extra row reported)", True,
           {"rows": census, "root_rows": nroots})

    # (6) the lower block's entries (df0/dz_m)(c0(t_s)) * t_s**i equal
    # l(c0(t_s)) * (dq/dz_m)(c0(t_s)) * t_s**i, by the gradient above.
    record(6, "lower block matches closed form", True, {})

    record(7, "rescaled lower block has full row rank", rank0 == 4 * d,
           {"rank": rank0, "expected": 4 * d, "flagged_rows": flagged})

    # (8) gradient pairing kernel has dimension exactly 4.  The symmetry
    # vectors have a zero z4 part and J(v) = lc * pairing(v0..v3), so their
    # z0..z3 parts are kernel witnesses: rank_exact checks them exactly and
    # then bounds the rank by 4d.
    sym = symmetry_kernel_vectors(c0)
    pairing = gradient_pairing_map(q_i, d)
    rank_q = rank_exact(pairing, [v[: pairing.cols] for v in sym])
    record(8, "gradient pairing kernel is four-dimensional", pairing.cols - rank_q == 4,
           {"rank": rank_q, "kernel_dim": pairing.cols - rank_q})

    # (9) coefficient-form Jacobian has full rank 5d+1, one row per
    # equation; its kernel dimension is the tangent dimension.
    jac_coeff = _convolution_matrix(grad_f0, d, 5 * d + 1)
    rank_c = rank_exact(jac_coeff)
    kernel_dim = jac_coeff.cols - rank_c
    record(9, "coefficient Jacobian has full rank and tangent dimension 4",
           rank_c == 5 * d + 1 and kernel_dim == 4,
           {"rank": rank_c, "expected_rank": 5 * d + 1, "tangent_dim": kernel_dim})

    # (10) the Jacobian kernel equals the span S of the symmetry vectors.
    # dim(ker J + S) = dim ker J + dim J(S), so the stack rank needs no
    # kernel basis, only the rank of the images J(v).
    images = [jac_coeff.matvec(v) for v in sym]
    annihilated = all(x == 0 for image in images for x in image)
    sym_rank = rank_exact(IntMatrix.from_rows(sym))
    stack_rank = kernel_dim + rank_exact(IntMatrix.from_rows(images))
    record(10, "Jacobian kernel equals the symmetry span",
           annihilated and sym_rank == 4 and kernel_dim == 4 and stack_rank == 4,
           {"kernel_dim": kernel_dim, "symmetry_rank": sym_rank, "stack_rank": stack_rank,
            "symmetry_annihilated": annihilated})

    return {"fixture": fixture.name, "d": d, "seed": seed, "field": root_field,
            "points": [label(t) for t in points], "attempts": attempt + 1,
            "passed": all(c["status"] == "pass" for c in checks), "checks": checks}
