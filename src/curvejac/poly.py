"""Polynomials over exact rationals.

Two flavors: `MultiPoly`, a sparse multivariate polynomial in the ambient
homogeneous coordinates z_0..z_n, and `UniPoly`, a dense univariate
polynomial in the affine coordinate t of the parametrizing line.  Both are
immutable; all arithmetic is exact.

Restriction to a parametrized curve, f(c(t)), has one entry point,
`restrict_to_curve`: it restricts several forms through one table
(`_curve_monomials`), which scales each component to integers over its own
denominator and builds each power of a component and each restricted
monomial once, as an integer polynomial over a denominator, and multiplies
each term's coefficient into its restricted monomial once, summing integers
over a common denominator.  Every polynomial product in the package, the
table's and `UniPoly.__mul__`'s, is one product of integer polynomials by
Kronecker substitution (`_int_mul`): the coefficients are packed into one
integer, which CPython multiplies by Karatsuba, and unpacked.

Coprimality (`coprime`, also the squarefree test of f against f') is
certified by a gcd of degree 0 modulo a prime, and a common factor by the
gcd modulo a prime lifted to Q and confirmed by exact division, with Euclid
over Q only as the fallback.  The rational roots of a squarefree
polynomial (`squarefree_roots`) are exact and use no floats: its roots
modulo a suitable prime are lifted p-adically and confirmed exactly.  The
complex labels of a polynomial that does not split come from mpmath's
Durand-Kerner iteration run in fixed-point integers (`_polyroots`), so the
module, like the package, needs nothing beyond the standard library.

Canonical term order everywhere is graded lexicographic on exponent vectors
(total degree first, then lex), serialized leading term first, which keeps
JSON output byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import copysign, gcd, inf, isqrt, lcm, ldexp
from typing import Iterable, Mapping, Sequence

from .errors import DimensionError, InputError
from .linalg import _PRIMES, _scaled, format_rational, parse_int, parse_list, parse_rational

__all__ = [
    "UniPoly",
    "MultiPoly",
    "gcd_univariate",
    "coprime",
    "restrict_to_curve",
    "monomial_basis",
    "grlex_key",
    "squarefree_roots",
]


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient lists (t^0 first), all
    len(a) + len(b) - 1 coefficients, by Kronecker substitution (von zur
    Gathen and Gerhard, Modern Computer Algebra, 8.4).

    Each factor is packed into one integer, a slot of w bits per coefficient,
    w a whole number of bytes wider than the largest possible product
    coefficient min(len) * max|a| * max|b| plus a sign bit, so one big-integer
    multiplication gives every product coefficient in its own slot.  Adding
    2^(w-1) to every slot makes the slots non-negative, so packing and
    unpacking go through bytes.
    """
    if not a or not b:
        return []
    big_a, big_b = max(map(abs, a)), max(map(abs, b))
    if not (big_a and big_b):
        return [0] * (len(a) + len(b) - 1)
    size = (max(min(len(a), len(b)) * big_a * big_b, big_a, big_b).bit_length() + 8) // 8
    half = 1 << (8 * size - 1)
    bias = half.to_bytes(size, "little")

    def pack(xs: Sequence[int]) -> int:
        packed = b"".join((x + half).to_bytes(size, "little") for x in xs)
        return int.from_bytes(packed, "little") - int.from_bytes(bias * len(xs), "little")

    n = len(a) + len(b) - 1
    raw = (pack(a) * pack(b) + int.from_bytes(bias * n, "little")).to_bytes(size * n, "little")
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, size * n, size)]


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

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        """The product, as integers over the product of the two
        denominators (`_int_mul`); `scale` multiplies by a number."""
        (da, a), (db, b) = _scaled(self.coeffs), _scaled(other.coeffs)
        den = da * db
        return UniPoly(tuple(Fraction(x, den) for x in _int_mul(a, b)))

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


def gcd_univariate(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic exact gcd; rejects the (0, 0) pair."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a.divmod_exact(b)[1]
    return a.monic()


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd(a, b) over Z/p, coefficients from t^0 up; a and b list
    integer coefficients from t^0 up, and p divides neither lead."""
    a, b = [x % p for x in a], [x % p for x in b]
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            f, off = a[-1] * inv % p, len(a) - len(b)
            for i, y in enumerate(b):
                a[off + i] = (a[off + i] - f * y) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _rational_mod(x: int, p: int) -> Fraction | None:
    """The fraction u/v with |u|, v <= sqrt(p/2) and u = v x mod p, if any
    (rational reconstruction by the half extended Euclid, Wang 1981)."""
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, x % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def coprime(a: UniPoly, b: UniPoly) -> bool:
    """Whether gcd(a, b) is constant; rejects the (0, 0) pair.

    A common factor over Q of degree k >= 1 is, by Gauss's lemma, a
    primitive integer polynomial whose lead divides the leads of a and b
    scaled to integers; so modulo a prime dividing neither lead it keeps
    degree k.  A gcd of degree 0 modulo such a prime therefore proves a and
    b coprime.  A gcd of higher degree is lifted to Q, each coefficient of
    the monic gcd mod p by rational reconstruction, and when that candidate
    divides a and b exactly it proves a common factor.  Euclid over Q
    decides only when every prime of _PRIMES divides a lead or leaves a
    common factor that does not lift.
    """
    if not (a.is_zero or b.is_zero):
        ia, ib = _integral(a)[0], _integral(b)[0]
        for p in _PRIMES:
            if ia[-1] % p == 0 or ib[-1] % p == 0:
                continue
            g = _gcd_mod(ia, ib, p)
            if len(g) == 1:
                return True
            lifted = [_rational_mod(x, p) for x in g]
            if None not in lifted:
                common = UniPoly(tuple(lifted))
                if all(f.divmod_exact(common)[1].is_zero for f in (a, b)):
                    return False
    return gcd_univariate(a, b).degree == 0


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
    def _of_clean(cls, num_vars: int, terms: dict) -> "MultiPoly":
        """A polynomial whose terms are already what __init__ makes them:
        exponent tuples of num_vars ints >= 0 to nonzero Fractions."""
        poly = object.__new__(cls)
        poly.num_vars, poly.terms = num_vars, terms
        return poly

    @classmethod
    def zero(cls, num_vars: int) -> "MultiPoly":
        return cls(num_vars, {})

    @classmethod
    def monomial(cls, exps: Sequence[int], coef=1) -> "MultiPoly":
        return cls(len(exps), {tuple(exps): coef})

    @property
    def is_zero(self) -> bool:
        return not self.terms

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

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_same_ring(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return MultiPoly(self.num_vars, out)

    def scale(self, s) -> "MultiPoly":
        s = Fraction(s)
        return MultiPoly(self.num_vars, {e: c * s for e, c in self.terms.items()})

    def partial_derivative(self, m: int) -> "MultiPoly":
        if not 0 <= m < self.num_vars:
            raise DimensionError(f"no variable with index {m}")
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[m] > 0:
                out[e[:m] + (e[m] - 1,) + e[m + 1 :]] = c * e[m]
        return MultiPoly._of_clean(self.num_vars, out)

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


def _curve_monomials(components: Sequence[UniPoly]):
    """restrict(e) = (den, ints), den * prod_m components[m] ** e[m] as integer
    coefficients: the restriction of the monomial z**e to the curve, from one
    table per curve.

    Each component is scaled to integers over its own denominator D_m, so
    the entry of z**e has the denominator prod_m D_m ** e[m] and integer
    coefficients.  Each power is built once from the one below, and each
    monomial once, as its restriction without the last variable times that
    variable's power, so every entry of the table costs at most one product
    of integer polynomials (`_int_mul`).
    """
    powers = [[(1, [1]), _scaled(comp.coeffs)] for comp in components]
    table: dict[tuple[int, ...], tuple[int, list[int]]] = {}

    def power(m: int, k: int) -> tuple[int, list[int]]:
        row = powers[m]
        while len(row) <= k:
            (den, xs), (dm, cm) = row[-1], row[1]
            row.append((den * dm, _int_mul(xs, cm)))
        return row[k]

    def restrict(e: tuple[int, ...]) -> tuple[int, list[int]]:
        if e not in table:
            m = max((i for i, k in enumerate(e) if k), default=None)
            if m is None:
                table[e] = 1, [1]
            else:
                head = e[:m] + (0,) * (len(e) - m)
                if any(head):
                    (dh, xh), (dp, xp) = restrict(head), power(m, e[m])
                    table[e] = dh * dp, _int_mul(xh, xp)
                else:
                    table[e] = power(m, e[m])
        return table[e]

    return restrict


def restrict_to_curve(fs: Iterable[MultiPoly], components: Sequence[UniPoly]) -> list[UniPoly]:
    """The restrictions f(c(t)), z_m := components[m](t), of the forms fs,
    exact; fs may be any iterable, read once.  They share one integer table
    of restricted monomials (`_curve_monomials`); each term's coefficient
    multiplies its table entry once, as integers over the form's common
    denominator, so each output coefficient takes one gcd."""
    restrict = _curve_monomials(components)
    out = []
    for f in fs:
        if f.num_vars != len(components):
            raise DimensionError(
                f"curve has {len(components)} components, polynomial has {f.num_vars} variables"
            )
        terms = [(c, *restrict(e)) for e, c in f.terms.items()]
        den = lcm(*(c.denominator * d for c, d, _ in terms))
        acc = [0] * max((len(xs) for _, _, xs in terms), default=0)
        for c, d, xs in terms:
            w = c.numerator * (den // (c.denominator * d))
            for i, x in enumerate(xs):
                if x:
                    acc[i] += w * x
        out.append(UniPoly.from_coeffs(Fraction(a, den) for a in acc))
    return out


def _round_to_bits(v: int, bits: int) -> tuple[int, int]:
    """(w, e): v rounded to `bits` significant bits, to nearest with ties to
    even, as w * 2^e."""
    drop = abs(v).bit_length() - bits
    if drop <= 0:
        return v, 0
    q, r = divmod(abs(v), 1 << drop)
    if 2 * r > 1 << drop or (2 * r == 1 << drop and q & 1):
        q += 1
    return (q if v > 0 else -q), drop


def _label_float(v: int, exp: int, prec: int) -> float:
    """v * 2^exp as a float the way mpmath gives a root it returns: rounded
    to the working `prec` bits, then to 53, both to nearest with ties to
    even; inf beyond the float range.  The first rounding drops the noise
    of the 80 extra bits, so a label depends on the root's first prec bits
    only."""
    for bits in (prec, 53):
        v, drop = _round_to_bits(v, bits)
        exp += drop
    try:
        return ldexp(v, exp)
    except OverflowError:
        return copysign(inf, v)


def _dk_sweep(zs: list[tuple[int, int]], coeffs: Sequence[int], bits: int) -> int:
    """One Gauss-Seidel sweep of Durand-Kerner on the monic polynomial whose
    lower coefficients are `coeffs`, highest first: each z_i in turn becomes
    z_i - f(z_i) / prod_{j != i} (z_i - z_j), the z_j already updated in this
    sweep.  Complex numbers are (re, im) integer pairs over 2^bits; a zero
    factor is left out, as mpmath does, and a product that rounds to zero
    divides nothing.  Returns the largest squared correction
    |f(z_i) / prod|^2 over 2^(2 bits)."""
    one, worst = 1 << bits, 0
    for i, (zr, zi) in enumerate(zs):
        xr, xi = one, 0
        for c in coeffs:
            xr, xi = ((xr * zr - xi * zi) >> bits) + c, (xr * zi + xi * zr) >> bits
        qr, qi = one, 0
        for j, (wr, wi) in enumerate(zs):
            dr, di = zr - wr, zi - wi
            if j != i and (dr or di):
                qr, qi = (qr * dr - qi * di) >> bits, (qr * di + qi * dr) >> bits
        den = qr * qr + qi * qi
        if den:
            xr, xi = ((xr * qr + xi * qi) << bits) // den, ((xi * qr - xr * qi) << bits) // den
        zs[i] = (zr - xr, zi - xi)
        worst = max(worst, xr * xr + xi * xi)
    return worst


def _polyroots(p: UniPoly, digits: int) -> list[complex]:
    """All complex roots of p with multiplicity, at `digits` significant
    digits, as machine complex numbers sorted by real then imaginary part.

    The iteration is mpmath's `polyroots` (Durand-Kerner from the points
    (0.4+0.9j)^i, Gauss-Seidel updates, prec = round((digits+1) log2 10)
    bits, 80 extra) run in integers, and returns the same floats.  It starts
    near the unit circle and stops at an absolute correction below
    2^(1-prec), which roots far from it never reach, so it runs on the monic
    p(2^k s), 2^k about the largest root (from max |c_i / c_n|^(1/(n-i)), as
    in Fujiwara's bound), and scales the roots back exactly.  Numbers are
    fixed point over 2^(prec+80+g), where 2^-g is about Cauchy's lower bound
    on the smallest nonzero scaled root, so tiny roots keep prec+80
    significant bits.  After convergence a root, real or imaginary part
    below the tolerance is set to zero.  Roots of very different sizes need
    more steps (1.2-2.4 per digit of the Cauchy height for two sizes, more
    when several crowd together), so it may take up to max(1000, 20 *
    digits) steps; raises ValueError if it has not converged by then.  The
    cap only ends a run that has not converged: a converged run stops at
    the same step under any cap.
    """

    def size(c: Fraction) -> int:
        return abs(c.numerator).bit_length() - c.denominator.bit_length()

    n = p.degree
    k = max(((size(c) - size(p.leading)) // (n - i)
             for i, c in enumerate(p.coeffs[:-1]) if c), default=0)
    # the integer coefficients of p(2^k s), times a power of two
    s = [a << (k * i - min(k, 0) * n) for i, a in enumerate(_scaled(p.coeffs)[1])]
    low = next(i for i, a in enumerate(s) if a)
    g = ((abs(s[low]) + max(map(abs, s[low + 1 :]), default=0)) // abs(s[low])).bit_length()
    prec = round((digits + 1) * 3.3219280948873626)
    bits = prec + 80 + g
    coeffs = [(a << bits) // s[-1] for a in reversed(s[:-1])]
    starts = ((0.4 + 0.9j) ** i for i in range(n))
    zs = [tuple((a << bits) // b for a, b in (w.real.as_integer_ratio(), w.imag.as_integer_ratio()))
          for w in starts]
    tol = 1 << (bits + 1 - prec)
    steps = max(1000, 20 * digits)
    for _ in range(steps):
        if _dk_sweep(zs, coeffs, bits) < tol * tol:
            break
    else:
        raise ValueError(f"complex roots did not converge in {steps} steps at {digits} digits")
    roots = []
    for zr, zi in zs:
        if zr * zr + zi * zi < tol * tol:
            zr = zi = 0
        elif abs(zi) < tol:
            zi = 0
        elif abs(zr) < tol:
            zr = 0
        roots.append(complex(_label_float(zr, k - bits, prec), _label_float(zi, k - bits, prec)))
    return sorted(roots, key=lambda z: (z.real, z.imag))


# The least working digits of complex root labels.
_LABEL_DIGITS = 32


def _integral(f: UniPoly) -> tuple[list[int], int]:
    """f's coefficients times the lcm of their denominators, integers
    a_0..a_n, and the height 2 (|a_n| + max |a_i|): every root r has |a_n r|
    below half of it (Cauchy's bound)."""
    ints = _scaled(f.coeffs)[1]
    return ints, 2 * (abs(ints[-1]) + max(abs(a) for a in ints))


def _horner(coeffs: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _simple_roots_mod_prime(ints: Sequence[int]) -> tuple[int, list[int]]:
    """The first prime p not dividing the lead a_n at which every root of
    sum a_i t^i mod p is simple, and those roots.  Only the primes dividing
    a_n or the discriminant fail, so the search ends when the polynomial is
    squarefree; with a repeated rational root every prime fails."""
    deriv = [i * a for i, a in enumerate(ints)][1:]
    for p in count(2):
        if ints[-1] % p == 0 or any(p % s == 0 for s in range(2, isqrt(p) + 1)):
            continue
        fp, dp = [a % p for a in ints], [a % p for a in deriv]
        roots = [x for x in range(p) if _horner(fp, x, p) == 0]
        if all(_horner(dp, x, p) for x in roots):
            return p, roots


def _squarefree_rational_roots(f: UniPoly) -> list[Fraction]:
    """The rational roots of a squarefree f of degree >= 1, sorted, exactly.

    Rational zeros by p-adic lifting (Loos, SIAM J. Comput. 12, 1983): a
    rational root r of sum a_i t^i is k / a_n for an integer k with 2|k|
    below the height (`_integral`), and reduces mod p to a simple root
    (`_simple_roots_mod_prime`), whose Newton lift mod p^(2^j) is unique.
    So reading a_n times each lift, once p^(2^j) exceeds the height, in the
    symmetric range gives every k; a candidate counts only when it is an
    exact root.
    """
    ints, height = _integral(f)
    lead = ints[-1]
    deriv = [i * a for i, a in enumerate(ints)][1:]
    p, residues = _simple_roots_mod_prime(ints)
    roots = []
    for r in residues:
        m = p
        while m <= height:
            m *= m
            r = (r - _horner(ints, r, m) * pow(_horner(deriv, r, m), -1, m)) % m
        k = lead * r % m
        cand = Fraction(k - m if 2 * k > m else k, lead)
        if f.evaluate(cand) == 0:
            roots.append(cand)
    return sorted(roots)


def _decimal_digits(h: int) -> int:
    """len(str(h)) for h >= 1, from its bit length, without the string
    (CPython refuses int-to-str beyond 4300 digits).  1233/4096 is below
    log10 2, so d - 1 <= log10 h at the start, and the loop ends at the
    least d with h < 10^d."""
    d = ((h.bit_length() - 1) * 1233 >> 12) + 1
    while h >= 10**d:
        d += 1
    return d


def squarefree_roots(f: UniPoly) -> tuple[list[Fraction], list[complex]]:
    """The rational roots of a squarefree f of degree >= 1, sorted, and,
    unless they are all of its roots, all of its roots as sorted machine
    complex numbers (else []).

    The rational roots are exact and use no floats (p-adic lifting).  The
    complex roots come from an integer Durand-Kerner iteration
    (`_polyroots`) at _LABEL_DIGITS significant digits, or at the digits of
    the Cauchy height plus 10 if that is more, and raise ValueError if they
    do not converge.  f must be squarefree: with a repeated rational root
    the prime search of the lifting does not end.
    """
    roots = _squarefree_rational_roots(f)
    if len(roots) == f.degree:
        return roots, []
    digits = _decimal_digits(_integral(f)[1]) + 10
    return roots, _polyroots(f, max(digits, _LABEL_DIGITS))
