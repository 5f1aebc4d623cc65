"""Polynomials over exact rationals, as integers over a denominator.

A rational is a pair (num, den) of ints in lowest terms, den > 0.
`MultiPoly` is a sparse multivariate polynomial in the ambient homogeneous
coordinates z_0..z_n, its coefficients integers over one least `den`.  A
univariate polynomial in the affine coordinate t of the parametrizing line,
a curve's component or a restriction f(c(t)), is a pair (den, ints),
integer coefficients ints (t^0 first, no trailing zero) over a positive
denominator den, least for the group of polynomials that shares it.  All
arithmetic is exact.

Restriction to a parametrized curve goes through a table of the curve
(`_curve_monomials`) that its caller builds once: each restricted monomial
is one product of the components packed into big integers at one slot per
degree (Kronecker substitution: von zur Gathen and Gerhard, Modern Computer
Algebra, 8.4), unpacked once.  `through` reads the table's entries as its
columns; every other restriction is of a gradient, (df/dz_m)(c(t)) for each
m, which `incidence.restricted_gradient` exposes.  Restriction is linear in
the form, so the partials are integer matrices over a list of monomials,
built once (`_gradient_map`), and each gradient is dot products of its
coefficients with their rows: one pair (den, lists), which every matrix is
built from.  Every other polynomial product is one Kronecker product of
integer lists (`_int_mul`); `_pack` and `_unpack` are the one packing.

Coprimality of any number of integer lists (`coprime`: f against f', a
curve's components) is decided modulo a prime, a common factor lifted to Q
and confirmed by an integer pseudo-remainder (`_prem`); Euclid on those
remainders is only its private fallback, which gives just the gcd's degree.
The rational roots of a squarefree polynomial (`squarefree_roots`) are
exact and use no floats: its roots modulo a suitable prime are lifted
p-adically and confirmed exactly.  The complex labels of a polynomial that
does not split come from mpmath's Durand-Kerner iteration run in
fixed-point integers (`_polyroots`), so the module, like the package, needs
nothing beyond the standard library.

Canonical term order everywhere is graded lexicographic on exponent vectors
(total degree first, then lex), serialized leading term first, which keeps
JSON output byte-stable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import count, zip_longest
from operator import mul
from math import copysign, gcd, inf, isqrt, lcm, ldexp, prod

from .errors import DimensionError, InputError
from .linalg import _PRIMES, format_rational, parse_int, parse_list, parse_rational

__all__ = [
    "MultiPoly",
    "coprime",
    "monomial_basis",
    "grlex_key",
    "squarefree_roots",
]


def _scaled(xs: Sequence[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """(den, ints): den the lcm of the denominators of the rationals xs,
    (num, den) pairs in lowest terms, so the least, and ints = den * xs
    without trailing zeros."""
    den = lcm(*(b for _, b in xs))
    ints = [a * (den // b) for a, b in xs]
    while ints and not ints[-1]:
        ints.pop()
    return den, tuple(ints)


def _slot_size(bound: int) -> int:
    """The bytes of a slot that holds every integer x with |x| <= bound."""
    return (bound.bit_length() + 8) // 8


def _pack(xs: Sequence[int], size: int) -> int:
    """sum_i xs[i] * 2**(8 size i), xs packed into slots of `size` bytes:
    adding 2^(8 size - 1) to every slot makes it non-negative, so the
    packing goes through bytes."""
    half = 1 << (8 * size - 1)
    packed = b"".join((x + half).to_bytes(size, "little") for x in xs)
    return int.from_bytes(packed, "little") - int.from_bytes(
        half.to_bytes(size, "little") * len(xs), "little")


def _unpack(x: int, size: int, n: int) -> list[int]:
    """The n-list ys of x = `_pack`(ys, size), through the same bias."""
    half = 1 << (8 * size - 1)
    raw = (x + int.from_bytes(half.to_bytes(size, "little") * n, "little")).to_bytes(
        size * n, "little")
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, size * n, size)]


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient lists (t^0 first), all
    len(a) + len(b) - 1 coefficients, by Kronecker substitution (von zur
    Gathen and Gerhard, Modern Computer Algebra, 8.4): the unpacked product
    of the two packs at a slot that holds min(len) * max|a| * max|b|, the
    largest possible product coefficient (an all-zero factor counts as 1)."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    size = _slot_size(min(len(a), len(b)) * max(1, *map(abs, a)) * max(1, *map(abs, b)))
    return _unpack(_pack(a, size) * _pack(b, size), size, n)


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd(a, b) over Z/p, coefficients from t^0 up; a and b list
    coefficients mod p from t^0 up, a's lead and b's, unless b is [], are
    nonzero, and both lists are overwritten."""
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


def _rational_mod(x: int, p: int) -> tuple[int, int] | None:
    """The rational (u, v), v > 0, with |u|, v <= sqrt(p/2) and u = v x mod
    p, if any (rational reconstruction by the half extended Euclid, Wang
    1981)."""
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, x % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The primitive part of the pseudo-remainder lead(b)**k * a mod b, for
    integer lists a and b, b nonzero: [] iff b divides a over Q, and with
    the gcd of a and b over Q as its gcd with b."""
    r, lead = list(a), b[-1]
    while len(r) >= len(b):
        f, off = r[-1], len(r) - len(b)
        r = [x * lead for x in r]
        for i, y in enumerate(b):
            r[off + i] -= f * y
        while r and not r[-1]:
            r.pop()
    g = gcd(*r)
    return [x // g for x in r] if g > 1 else r


def _gcd_degree(polys: Sequence[Sequence[int]]) -> int:
    """The degree of the gcd over Q of nonzero integer lists, by Euclid on
    primitive pseudo-remainders (`_prem`): `coprime`'s fallback."""
    a = polys[0]
    for b in polys[1:]:
        while b:
            a, b = b, _prem(a, b)
    return len(a) - 1


def coprime(*polys: Sequence[int]) -> bool:
    """Whether the gcd of polys, integer coefficient lists (t**0 first, no
    trailing zero), zero ones ([]) left out and not all zero, is constant.

    A common factor over Q of degree k >= 1 is, by Gauss's lemma, a
    primitive integer polynomial whose lead divides the lead of each poly;
    so modulo a prime p that divides no lead it keeps degree k, and a gcd of
    degree 0 mod p proves the polys coprime.  A gcd of higher degree is
    lifted to Q, each coefficient of the monic gcd mod p by rational
    reconstruction, and when that candidate divides every poly exactly (a
    zero pseudo-remainder, `_prem`) it proves a common factor.  Euclid over
    Q decides only when no prime of _PRIMES decides.
    """
    polys = [f for f in polys if f]
    if not polys:
        raise ValueError("the gcd of zero polynomials only is undefined")
    for p in _PRIMES:
        if any(f[-1] % p == 0 for f in polys):
            continue
        g: list[int] = []
        for f in polys:
            g = _gcd_mod([x % p for x in f], g, p)
        if len(g) == 1:
            return True
        lifted = [_rational_mod(x, p) for x in g]
        if None not in lifted:
            common = _scaled(lifted)[1]
            if not any(_prem(f, common) for f in polys):
                return False
    return _gcd_degree(polys) == 0


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


def _summed(items: Iterable) -> Iterable:
    """The pairs (exps, num) of items, the nums of a repeated exps summed."""
    terms: dict[tuple[int, ...], int] = {}
    for e, c in items:
        terms[e] = terms.get(e, 0) + c
    return terms.items()


class MultiPoly:
    """Sparse multivariate polynomial: terms map exponent tuples to nonzero
    integer coefficients over one least den > 0.  The constructor takes
    ints or any values with a numerator and a denominator in lowest terms."""

    __slots__ = ("num_vars", "terms", "den")

    def __init__(self, num_vars: int, terms: Mapping[tuple[int, ...], object]):
        den, items = lcm(*(c.denominator for c in terms.values())), []
        for exps, coef in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars:
                raise DimensionError(
                    f"exponent vector {exps} has length {len(exps)}, expected {num_vars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            items.append((exps, coef.numerator * (den // coef.denominator)))
        poly = MultiPoly._of_items(num_vars, den, _summed(items))
        self.num_vars, self.terms, self.den = num_vars, poly.terms, poly.den

    @classmethod
    def _of_items(cls, num_vars: int, den: int, items: Iterable) -> "MultiPoly":
        """The polynomial of items, pairs (exps, num) of checked exponent
        tuples, none repeated (`_summed` sums repeats), and integers over
        den > 0: zero terms dropped, and den and the terms divided by their
        gcd when it exceeds 1."""
        terms = {e: c for e, c in items if c}
        g, poly = gcd(den, *terms.values()), object.__new__(cls)
        poly.num_vars, poly.den = num_vars, den // g
        poly.terms = {e: c // g for e, c in terms.items()} if g > 1 else terms
        return poly

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
        den = lcm(self.den, other.den)
        return MultiPoly._of_items(self.num_vars, den, _summed(
            (e, c * (den // f.den)) for f in (self, other) for e, c in f.terms.items()))

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_same_ring(other)
        return MultiPoly._of_items(self.num_vars, self.den * other.den, _summed(
            (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
            for ea, ca in self.terms.items() for eb, cb in other.terms.items()))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.num_vars == other.num_vars
            and self.den == other.den
            and self.terms == other.terms
        )

    __hash__ = None

    def to_obj(self) -> dict:
        return {
            "nvars": self.num_vars,
            "homogeneous_degree": self.homogeneous_degree(),
            "terms": [{"exp": list(e), "coef": format_rational(c, self.den)}
                      for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_obj(cls, obj) -> "MultiPoly":
        try:
            nvars = obj["nvars"]
            terms = obj["terms"]
        except (KeyError, TypeError) as exc:
            raise InputError("polynomial object needs 'nvars' and 'terms'") from exc
        nvars = parse_int(nvars, "nvars")
        items = []
        for i, t in enumerate(parse_list(terms, "terms")):
            try:
                exps, coef = t["exp"], parse_rational(t["coef"])
            except (KeyError, TypeError) as exc:
                raise InputError(f"terms[{i}] needs 'exp' and 'coef'") from exc
            exps = tuple(parse_int(e, f"terms[{i}].exp entry")
                         for e in parse_list(exps, f"terms[{i}].exp"))
            if len(exps) != nvars:
                raise InputError(f"terms[{i}].exp has length {len(exps)}, expected {nvars}")
            items.append((exps, coef))
        den = lcm(*(b for _, (_, b) in items))
        poly = cls._of_items(nvars, den, _summed((e, a * (den // b)) for e, (a, b) in items))
        declared = obj.get("homogeneous_degree")
        if declared is not None and poly.homogeneous_degree() != parse_int(
            declared, "homogeneous_degree"
        ):
            raise InputError(
                f"declared homogeneous degree {declared} does not match terms"
            )
        return poly


def _curve_monomials(components: Sequence[tuple[int, Sequence[int]]]):
    """The table of a curve, given by its `CurveParam.components`: restrict(e)
    = (den, ints), den * prod_m c_m ** e[m] as integer coefficients, the
    restriction of the monomial z**e to the curve.  Each command builds one
    table per curve and passes it to every restriction it makes.

    Each component c_m is held over its own least denominator D_m, so the
    entry of z**e has the denominator prod_m D_m ** e[m] and integer
    coefficients of at most B**k, k the degree of e and B the largest sum of
    |ints| of a component.  So every entry of degree k is read once from the
    product of the components packed (`_pack`) at the slot that holds B**k,
    once per degree: each packed power is built once from the one below,
    and each monomial once, as its packed restriction without the last
    variable times that variable's packed power.  A monomial on a zero
    component restricts to (1, []) at once.  An exponent vector of the wrong
    length raises DimensionError.
    """
    dens = [den for den, _ in components]
    degs = [len(xs) - 1 for _, xs in components]
    zero = [m for m, k in enumerate(degs) if k < 0]
    norm = max((sum(map(abs, xs)) for _, xs in components), default=0)
    slots, powers, packed, table = {}, {}, {}, {}  # the packed caches are keyed by degree

    def power(k: int, m: int, j: int) -> int:
        row = powers.setdefault((k, m), [1, slots[k][1][m]])
        while len(row) <= j:
            row.append(row[-1] * row[1])
        return row[j]

    def value(k: int, e: tuple[int, ...]) -> int:  # prod_m c_m ** e[m] packed at degree k
        if (k, e) not in packed:
            m = max(i for i, j in enumerate(e) if j)
            head = e[:m] + (0,) * (len(e) - m)
            packed[k, e] = value(k, head) * power(k, m, e[m]) if any(head) else power(k, m, e[m])
        return packed[k, e]

    def restrict(e: tuple[int, ...]) -> tuple[int, list[int]]:
        if e not in table:
            if len(e) != len(dens):
                raise DimensionError(f"curve has {len(dens)} components, "
                                     f"monomial has {len(e)} variables")
            if not any(e):
                table[e] = 1, [1]
            elif any(map(e.__getitem__, zero)):
                table[e] = 1, []
            else:
                k = sum(e)
                if k not in slots:
                    size = _slot_size(norm**k)
                    slots[k] = size, [_pack(xs, size) for _, xs in components]
                table[e] = (prod(map(pow, dens, e)),
                            _unpack(value(k, e), slots[k][0], 1 + sum(map(mul, degs, e))))
        return table[e]

    return restrict


def _gradient_map(nvars: int, mons: Sequence[tuple[int, ...]], table):
    """The restricted gradient as linear maps built once from the curve's
    table: grad(f) = (den, lists), lists[m] den * (df/dz_m)(c(t)) as integer
    coefficients, t**0 first, no trailing zero, and den least, for f a form
    in nvars variables over mons.  d/dz_m sends z**e to e[m] z**(e - u_m),
    so partial m is one integer matrix on the coefficients over mons: column
    e is e[m] * L / den times the entry (den, ints) of z**(e - u_m), a zero
    entry left out, L the lcm of every such den.  So grad(f) is one dot
    product per partial and power of t, over L * f.den, divided by the gcd.
    A monomial whose variables are not the curve's components raises
    DimensionError (the table's).
    """
    cols = [[(e, e[m], den, xs) for e in mons if e[m]
             for den, xs in (table(e[:m] + (e[m] - 1,) + e[m + 1 :]),) if xs]
            for m in range(nvars)]
    big = lcm(*(d for cs in cols for _, _, d, _ in cs))
    maps = [([e for e, _, _, _ in cs], [k * (big // d) for _, k, d, _ in cs],
             list(zip_longest(*(xs for _, _, _, xs in cs), fillvalue=0))) for cs in cols]

    def grad(f: MultiPoly) -> tuple[int, list[list[int]]]:
        get, den = f.terms.get, big * f.den
        lists = []
        for exps, weights, rows in maps:
            ws = [get(e, 0) * w for e, w in zip(exps, weights)]
            xs = [sum(map(mul, ws, row)) for row in rows]
            while xs and not xs[-1]:
                xs.pop()
            lists.append(xs)
        g = gcd(den, *(x for xs in lists for x in xs))
        return den // g, [[x // g for x in xs] for xs in lists] if g > 1 else lists

    return grad


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


def _polyroots(p: tuple[int, Sequence[int]], digits: int) -> list[complex]:
    """All complex roots with multiplicity of p = (den, ints), at `digits`
    significant digits, as machine complex numbers sorted by real then
    imaginary part.

    The iteration is mpmath's `polyroots` (Durand-Kerner from the points
    (0.4+0.9j)^i, Gauss-Seidel updates, prec = round((digits+1) log2 10)
    bits, 80 extra) run in integers, and returns the same floats.  It starts
    near the unit circle and stops at an absolute correction below
    2^(1-prec), which roots far from it never reach, so it runs on the monic
    p(2^k s), 2^k about the largest root (from max |c_i / c_n|^(1/(n-i)), as
    in Fujiwara's bound, each c_i = ints[i] / den in lowest terms, so a
    factor common to den and ints changes no step), and scales the roots
    back exactly.  Numbers are fixed point over 2^(prec+80+g), where 2^-g
    is about Cauchy's lower bound on the smallest nonzero scaled root, so
    tiny roots keep prec+80 significant bits.  After convergence a root, real or imaginary part
    below the tolerance is set to zero.  Roots of very different sizes need
    more steps (1.2-2.4 per digit of the Cauchy height for two sizes, more
    when several crowd together), so it may take up to max(1000, 20 *
    digits) steps; raises ValueError if it has not converged by then.  The
    cap only ends a run that has not converged: a converged run stops at
    the same step under any cap.
    """

    den, ints = p

    def size(x: int) -> int:  # of x / den in lowest terms
        g = gcd(x, den)
        return abs(x // g).bit_length() - (den // g).bit_length()

    n = len(ints) - 1
    k = max(((size(c) - size(ints[-1])) // (n - i)
             for i, c in enumerate(ints[:-1]) if c), default=0)
    # the integer coefficients of p(2^k s), times a power of two
    s = [a << (k * i - min(k, 0) * n) for i, a in enumerate(ints)]
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


def _integral(f: tuple[int, Sequence[int]]) -> tuple[list[int], int]:
    """The integer coefficients a_0..a_n of f = (den, ints) over its least
    denominator, a_n > 0 (times -1 if need be), and the height 2 (a_n + max
    |a_i|): every root r has |a_n r| below half of it (Cauchy's bound)."""
    g = gcd(f[0], *f[1]) if f[1][-1] > 0 else -gcd(f[0], *f[1])
    ints = [x // g for x in f[1]]
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


def _squarefree_rational_roots(f: tuple[int, Sequence[int]]) -> list[tuple[int, int]]:
    """The rational roots of a squarefree f = (den, ints) of degree >= 1,
    sorted, exactly, each a pair (num, den) in lowest terms, den > 0.

    Rational zeros by p-adic lifting (Loos, SIAM J. Comput. 12, 1983): a
    rational root r of sum a_i t^i is k / a_n for an integer k with 2|k|
    below the height (`_integral`), and reduces mod p to a simple root
    (`_simple_roots_mod_prime`), whose Newton lift mod p^(2^j) is unique.
    So reading a_n times each lift, once p^(2^j) exceeds the height, in the
    symmetric range gives every k; a candidate counts only when a_n t - k
    divides the polynomial exactly (`_prem`).
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
        k = k - m if 2 * k > m else k
        if not _prem(ints, [-k, lead]):
            roots.append(k)
    return [(k // g, lead // g) for k in sorted(roots) for g in (gcd(k, lead),)]


def _decimal_digits(h: int) -> int:
    """len(str(h)) for h >= 1, from its bit length, without the string
    (CPython refuses int-to-str beyond 4300 digits).  1233/4096 is below
    log10 2, so d - 1 <= log10 h at the start, and the loop ends at the
    least d with h < 10^d."""
    d = ((h.bit_length() - 1) * 1233 >> 12) + 1
    while h >= 10**d:
        d += 1
    return d


def squarefree_roots(f: tuple[int, Sequence[int]]) -> tuple[list[tuple[int, int]], list[complex]]:
    """The rational roots of a squarefree f = (den, ints) of degree >= 1,
    sorted, as (num, den) pairs, and, unless they are all of its roots, all of its roots as
    sorted machine complex numbers (else []).

    The rational roots are exact and use no floats (p-adic lifting).  The
    complex roots come from an integer Durand-Kerner iteration
    (`_polyroots`) at _LABEL_DIGITS significant digits, or at the digits of
    the Cauchy height plus 10 if that is more, and raise ValueError if they
    do not converge.  f must be squarefree: with a repeated rational root
    the prime search of the lifting does not end.
    """
    roots = _squarefree_rational_roots(f)
    if len(roots) == len(f[1]) - 1:
        return roots, []
    digits = _decimal_digits(_integral(f)[1]) + 10
    return roots, _polyroots(f, max(digits, _LABEL_DIGITS))
