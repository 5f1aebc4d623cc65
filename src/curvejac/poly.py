"""Polynomials over exact rationals.

Two flavors: `MultiPoly`, a sparse multivariate polynomial in the ambient
homogeneous coordinates z_0..z_n, and `UniPoly`, a dense univariate
polynomial in the affine coordinate t of the parametrizing line.  Both are
immutable; all arithmetic is exact.

Restriction to a parametrized curve, f(c(t)), has one entry point,
`restrict_to_curve`: it restricts several forms through one table
(`_curve_monomials`), which builds each power of a component and each
restricted monomial once, and multiplies each term's coefficient into its
small restricted monomial once.

Canonical term order everywhere is graded lexicographic on exponent vectors
(total degree first, then lex), serialized leading term first, which keeps
JSON output byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import DimensionError, InputError
from .linalg import format_rational, parse_int, parse_list, parse_rational

__all__ = [
    "UniPoly",
    "MultiPoly",
    "gcd_univariate",
    "compose_with_curve",
    "restrict_to_curve",
    "monomial_basis",
    "grlex_key",
    "roots_numeric",
    "rational_roots",
    "rational_and_numeric_roots",
]


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial; coeffs[i] is the coefficient of t**i.

    The trailing coefficient is nonzero unless the polynomial is zero, in
    which case coeffs is empty and the degree is -1.
    """

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, *coeffs) -> "UniPoly":
        return cls.from_coeffs(coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "UniPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((Fraction(1),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.from_coeffs(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero or other.is_zero:
                return UniPoly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly.from_coeffs(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "UniPoly":
        s = Fraction(s)
        if s == 0:
            return UniPoly.zero()
        return UniPoly(tuple(c * s for c in self.coeffs))

    def shift(self, k: int) -> "UniPoly":
        """Multiply by t**k."""
        if self.is_zero:
            return self
        return UniPoly((Fraction(0),) * k + self.coeffs)

    def derivative(self) -> "UniPoly":
        return UniPoly.from_coeffs(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def evaluate(self, t):
        """Horner evaluation; exact for rational t, complex otherwise."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def monic(self) -> "UniPoly":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        return self.scale(1 / self.leading)

    def divmod_exact(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return UniPoly.zero(), self
        quot = [Fraction(0)] * (dq + 1)
        inv_lead = 1 / other.leading
        for k in range(dq, -1, -1):
            coef = rem[k + len(div) - 1] * inv_lead
            quot[k] = coef
            if coef != 0:
                for j, b in enumerate(div):
                    rem[k + j] -= coef * b
        return UniPoly.from_coeffs(quot), UniPoly.from_coeffs(rem)

    def to_obj(self) -> dict:
        return {"coeffs": [format_rational(c) for c in self.coeffs]}

    @classmethod
    def from_obj(cls, obj) -> "UniPoly":
        try:
            coeffs = obj["coeffs"]
        except (KeyError, TypeError) as exc:
            raise InputError("univariate polynomial object needs 'coeffs'") from exc
        return cls.from_coeffs(parse_rational(c) for c in parse_list(coeffs, "coeffs"))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(format_rational(c))
            elif i == 1:
                parts.append(f"{format_rational(c)}*t")
            else:
                parts.append(f"{format_rational(c)}*t^{i}")
        return " + ".join(parts)


def gcd_univariate(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic exact gcd; rejects the (0, 0) pair."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a.divmod_exact(b)[1]
    return a.monic()


def grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


def monomial_basis(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of the given total degree, leading-term first."""
    if num_vars == 1:
        return [(degree,)]
    out = []
    for k in range(degree, -1, -1):
        for rest in monomial_basis(num_vars - 1, degree - k):
            out.append((k,) + rest)
    return out


class MultiPoly:
    """Sparse multivariate polynomial; terms map exponent tuples to nonzero
    rational coefficients."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[tuple[int, ...], object]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars:
                raise DimensionError(
                    f"exponent vector {exps} has length {len(exps)}, expected {num_vars}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coef = Fraction(coef)
            if coef != 0:
                clean[exps] = coef
        self.num_vars = num_vars
        self.terms = clean

    @classmethod
    def zero(cls, num_vars: int) -> "MultiPoly":
        return cls(num_vars, {})

    @classmethod
    def monomial(cls, exps: Sequence[int], coef=1) -> "MultiPoly":
        return cls(len(exps), {tuple(exps): coef})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms, or None for 0 or mixed degrees."""
        degs = {sum(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def uses_variable(self, m: int) -> bool:
        return any(e[m] > 0 for e in self.terms)

    def _check_same_ring(self, other: "MultiPoly"):
        if self.num_vars != other.num_vars:
            raise DimensionError(
                f"variable counts differ: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.num_vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_same_ring(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return MultiPoly(self.num_vars, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "MultiPoly":
        s = Fraction(s)
        return MultiPoly(self.num_vars, {e: c * s for e, c in self.terms.items()})

    def partial_derivative(self, m: int) -> "MultiPoly":
        if not 0 <= m < self.num_vars:
            raise DimensionError(f"no variable with index {m}")
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[m] > 0:
                e2 = list(e)
                e2[m] -= 1
                out[tuple(e2)] = c * e[m]
        return MultiPoly(self.num_vars, out)

    def evaluate(self, values: Sequence):
        if len(values) != self.num_vars:
            raise DimensionError("one value per variable required")
        acc = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                for _ in range(k):
                    term = term * v
            acc = acc + term
        return acc

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    __hash__ = None

    def to_obj(self) -> dict:
        return {
            "nvars": self.num_vars,
            "homogeneous_degree": self.homogeneous_degree(),
            "terms": [
                {"exp": list(e), "coef": format_rational(c)} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_obj(cls, obj) -> "MultiPoly":
        try:
            nvars = obj["nvars"]
            terms = obj["terms"]
        except (KeyError, TypeError) as exc:
            raise InputError("polynomial object needs 'nvars' and 'terms'") from exc
        nvars = parse_int(nvars, "nvars")
        parsed: dict[tuple[int, ...], Fraction] = {}
        for i, t in enumerate(parse_list(terms, "terms")):
            try:
                exps, coef = t["exp"], parse_rational(t["coef"])
            except (KeyError, TypeError) as exc:
                raise InputError(f"terms[{i}] needs 'exp' and 'coef'") from exc
            exps = tuple(parse_int(e, f"terms[{i}].exp entry")
                         for e in parse_list(exps, f"terms[{i}].exp"))
            if len(exps) != nvars:
                raise InputError(f"terms[{i}].exp has length {len(exps)}, expected {nvars}")
            parsed[exps] = parsed.get(exps, Fraction(0)) + coef
        poly = cls(nvars, parsed)
        declared = obj.get("homogeneous_degree")
        if declared is not None and poly.homogeneous_degree() != parse_int(
            declared, "homogeneous_degree"
        ):
            raise InputError(
                f"declared homogeneous degree {declared} does not match terms"
            )
        return poly

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"z{m}" if k == 1 else f"z{m}^{k}" for m, k in enumerate(e) if k
            )
            if not mono:
                parts.append(format_rational(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{format_rational(c)}*{mono}")
        return " + ".join(parts)


def _curve_monomials(components: Sequence[UniPoly]):
    """restrict(e) = prod_m components[m] ** e[m], the restriction of the
    monomial z**e to the curve, from one table per curve.

    Each power components[m] ** k is built once from the one below, and each
    monomial once, as its restriction without the last variable times that
    variable's power, so every entry of the table costs at most one product.
    """
    powers = [[UniPoly.one(), comp] for comp in components]
    table: dict[tuple[int, ...], UniPoly] = {}

    def power(m: int, k: int) -> UniPoly:
        row = powers[m]
        while len(row) <= k:
            row.append(row[-1] * components[m])
        return row[k]

    def restrict(e: tuple[int, ...]) -> UniPoly:
        if e not in table:
            m = max((i for i, k in enumerate(e) if k), default=None)
            if m is None:
                table[e] = UniPoly.one()
            else:
                head = e[:m] + (0,) * (len(e) - m)
                table[e] = restrict(head) * power(m, e[m]) if any(head) else power(m, e[m])
        return table[e]

    return restrict


def restrict_to_curve(fs: Iterable[MultiPoly], components: Sequence[UniPoly]) -> list[UniPoly]:
    """The restrictions f(c(t)), z_m := components[m](t), of the forms fs,
    exact; fs may be any iterable, read once.  They share one table of
    restricted monomials; a one-term form with coefficient 1 restricts to
    its table entry, and otherwise each term's coefficient multiplies its
    restricted monomial once."""
    restrict = _curve_monomials(components)
    out = []
    for f in fs:
        if f.num_vars != len(components):
            raise DimensionError(
                f"curve has {len(components)} components, polynomial has {f.num_vars} variables"
            )
        if len(f.terms) == 1 and 1 in f.terms.values():
            out.append(restrict(*f.terms))
            continue
        acc: list = []
        for e, c in f.terms.items():
            coeffs = restrict(e).coeffs
            if len(coeffs) > len(acc):
                acc.extend([0] * (len(coeffs) - len(acc)))
            for i, x in enumerate(coeffs):
                if x:
                    acc[i] += c * x
        out.append(UniPoly.from_coeffs(acc))
    return out


def compose_with_curve(f: MultiPoly, components: Sequence[UniPoly]) -> UniPoly:
    """Substitute z_m := components[m](t): restrict_to_curve of one form."""
    return restrict_to_curve([f], components)[0]


def _polyroots(p: UniPoly, digits: int) -> list:
    """All complex roots with multiplicity as mpmath numbers, at `digits`
    significant digits (simultaneous iteration)."""
    from mpmath import mp, mpf, polyroots

    with mp.workdps(digits):
        coeffs = [mpf(c.numerator) / mpf(c.denominator) for c in reversed(p.coeffs)]
        return polyroots(coeffs, maxsteps=200, extraprec=80)


def _sorted_complex(zs) -> list[complex]:
    return sorted((complex(z) for z in zs), key=lambda z: (z.real, z.imag))


def roots_numeric(p: UniPoly, precision: int = 12) -> list[complex]:
    """All complex roots with multiplicity, sorted by (real, imaginary).

    Uses arbitrary-precision simultaneous iteration internally and rounds to
    machine complex values, so the usable precision caps at roughly 15
    significant digits.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    if precision < 1:
        raise ValueError("precision must be positive")
    return _sorted_complex(_polyroots(p, precision + 20))


# The working digits of roots_numeric at its default precision.
_LABEL_DIGITS = 32


def rational_roots(p: UniPoly) -> tuple[list[Fraction], UniPoly]:
    """Exactly verified rational roots (with multiplicity) plus the cofactor.

    Rational root theorem: with integer coefficients and leading coefficient
    a_n, every rational root of the squarefree part is k / a_n for an integer
    k.  Its numeric roots, resolved to 1 / (2 |a_n|) within their Cauchy
    bound, give each k by rounding a_n * Re(z); a candidate counts only when
    it is an exact root, and is divided out exactly, as often as it divides.
    """
    return rational_and_numeric_roots(p)[:2]


def rational_and_numeric_roots(p: UniPoly) -> tuple[list[Fraction], UniPoly, list[complex]]:
    """rational_roots(p), plus the roots of p's squarefree part as sorted
    machine complex numbers (empty when that part is linear).  Both come
    from one root computation, at _LABEL_DIGITS significant digits or at the
    Cauchy-bound precision if that is higher."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return [], p, []
    sqfree = p.divmod_exact(gcd_univariate(p, p.derivative()))[0]
    if sqfree.degree == 1:
        candidates = {-sqfree.coeffs[0] / sqfree.coeffs[1]}
        numeric = []
    else:
        from mpmath.libmp import to_rational

        scale = lcm(*(c.denominator for c in sqfree.coeffs))
        ints = [int(c * scale) for c in sqfree.coeffs]
        lead = ints[-1]
        # Roots lie within 1 + max|a_i / a_n|; resolve 1 / (2 |a_n|) there.
        digits = len(str(2 * (abs(lead) + max(abs(a) for a in ints)))) + 10
        zs = _polyroots(sqfree, max(digits, _LABEL_DIGITS))
        candidates = {
            Fraction(round(lead * Fraction(*to_rational(z.real._mpf_))), lead) for z in zs
        }
        numeric = _sorted_complex(zs)
    rem = p
    roots: list[Fraction] = []
    for cand in sorted(candidates):
        if sqfree.evaluate(cand) != 0:
            continue
        factor = UniPoly.of(-cand, 1)
        quot, r = rem.divmod_exact(factor)
        while r.is_zero:
            roots.append(cand)
            rem = quot
            quot, r = rem.divmod_exact(factor)
    return roots, rem, numeric
