"""Exact and modular algebra for the benchmark's generator and oracle.

Written from the definitions and deliberately independent of `curvejac`, so
that the benchmark's inputs and expected answers do not move when the
package's own arithmetic changes.

Univariate polynomials are lists of coefficients, lowest power first, with no
trailing zeros (the zero polynomial is `[]`).  Multivariate polynomials are
dicts mapping exponent tuples to nonzero coefficients.  Coefficients are
`Fraction`s on the exact side and ints reduced mod `PRIME` on the modular
side.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

PRIME = 2**61 - 1


# -- univariate -------------------------------------------------------------


def trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def umul(a: list, b: list, mod: int | None = None) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    if mod is not None:
        out = [x % mod for x in out]
    return trim(out)


def uadd(a: list, b: list, mod: int | None = None) -> list:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    if mod is not None:
        out = [x % mod for x in out]
    return trim(out)


def ueval(a: list, t):
    acc = 0
    for c in reversed(a):
        acc = acc * t + c
    return acc


def udivmod(a: list, b: list) -> tuple[list, list]:
    """Exact division with remainder over the rationals."""
    rem = [Fraction(x) for x in a]
    if len(rem) < len(b):
        return [], trim(rem)
    quot = [Fraction(0)] * (len(rem) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        coef = rem[k + len(b) - 1] / b[-1]
        quot[k] = coef
        for j, y in enumerate(b):
            rem[k + j] -= coef * y
    return trim(quot), trim(rem)


def coprime_mod_p(polys: list[list]) -> bool:
    """True only if the nonzero rational polynomials have no common factor over Q.

    Certified modulo PRIME: a common factor over Q, taken primitive in Z[t],
    stays a common factor of positive degree mod p whenever p divides no
    leading coefficient.  False may also mean that PRIME gave no certificate.
    """
    reduced = []
    for g in polys:
        r = trim([to_mod(x) for x in g])
        if len(r) != len(g):
            return False
        reduced.append(r)
    acc = reduced[0]
    for r in reduced[1:]:
        while r:
            acc, r = r, _rem_mod_p(acc, r)
    return len(acc) == 1


def _rem_mod_p(a: list[int], b: list[int]) -> list[int]:
    rem = list(a)
    inv = pow(b[-1], -1, PRIME)
    for k in range(len(rem) - len(b), -1, -1):
        coef = rem[k + len(b) - 1] * inv % PRIME
        if coef:
            for j, y in enumerate(b):
                rem[k + j] = (rem[k + j] - coef * y) % PRIME
    return trim(rem)


def product_of_linear(roots) -> list:
    """Coefficients of prod (t - r) over the given roots."""
    out = [Fraction(1)]
    for r in roots:
        out = umul(out, [Fraction(-r), Fraction(1)])
    return out


def splits_over_q(a: list) -> bool:
    """True iff the polynomial is a product of linear factors over Q.

    Rational root theorem: after clearing denominators, every root p/q has p
    dividing the lowest nonzero coefficient and q dividing the leading one.
    Each found root is divided out, with multiplicity.
    """
    rem = trim([Fraction(x) for x in a])
    while len(rem) > 1 and rem[0] == 0:
        rem = rem[1:]
    while len(rem) > 1:
        scale = lcm(*(x.denominator for x in rem))
        ints = [int(x * scale) for x in rem]
        root = next(
            (
                Fraction(s * p, q)
                for p in _divisors(ints[0])
                for q in _divisors(ints[-1])
                for s in (1, -1)
                if ueval(rem, Fraction(s * p, q)) == 0
            ),
            None,
        )
        if root is None:
            return False
        rem = udivmod(rem, [-root, Fraction(1)])[0]
    return True


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [k for k in range(1, int(n**0.5) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


# -- multivariate -----------------------------------------------------------


def monomials(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of one total degree, first exponent descending."""
    if num_vars == 1:
        return [(degree,)]
    return [
        (k,) + rest
        for k in range(degree, -1, -1)
        for rest in monomials(num_vars - 1, degree - k)
    ]


def mmul(f: dict, g: dict) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def madd(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def partial(f: dict, m: int) -> dict:
    out = {}
    for e, c in f.items():
        if e[m]:
            e2 = list(e)
            e2[m] -= 1
            out[tuple(e2)] = c * e[m]
    return out


def compose(f: dict, comps: list[list], mod: int | None = None) -> list:
    """f(c(t)) for univariate components c_m(t)."""
    cache: dict = {}

    def power(m: int, k: int) -> list:
        if k == 0:
            return [1]
        if (m, k) not in cache:
            cache[(m, k)] = umul(power(m, k - 1), comps[m], mod)
        return cache[(m, k)]

    acc: list = []
    for e, c in f.items():
        term = [c]
        for m, k in enumerate(e):
            if k:
                term = umul(term, power(m, k), mod)
        acc = uadd(acc, term, mod)
    return acc


# -- modular linear algebra -------------------------------------------------


def to_mod(x) -> int:
    x = Fraction(x)
    if x.denominator % PRIME == 0:
        raise ValueError("denominator divisible by the modulus")
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def rank_mod_p(rows: list[list[int]]) -> int:
    """Rank over F_p; a lower bound for the rank over Q of any lift."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, PRIME)
        prow = [x * inv % PRIME for x in m[rank]]
        m[rank] = prow
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [(x - f * y) % PRIME for x, y in zip(m[i], prow)]
        rank += 1
    return rank


def convolution_rows(grads: list[list], d: int, nrows: int) -> list[list]:
    """Rows of v -> sum_m grads[m] * v_m over coefficient bases of degree <= d.

    Entry (j, (m, i)) is the t**(j-i) coefficient of grads[m]; this is the
    coefficient-form Jacobian when grads are the gradient restrictions.
    """
    rows = [[0] * (len(grads) * (d + 1)) for _ in range(nrows)]
    for m, g in enumerate(grads):
        for i in range(d + 1):
            for j in range(i, min(nrows, i + len(g))):
                rows[j][m * (d + 1) + i] = g[j - i]
    return rows


def jacobian_rank_mod_p(f: dict, comps: list[list], d: int, e: int) -> int:
    """Rank mod PRIME of the coefficient-form incidence Jacobian of f at c."""
    cm = [[to_mod(x) for x in c] for c in comps]
    grads = [
        compose({k: to_mod(v) for k, v in partial(f, m).items()}, cm, PRIME)
        for m in range(len(comps))
    ]
    return rank_mod_p(convolution_rows(grads, d, e * d + 1))


def restriction_rank_mod_p(comps: list[list], degree: int, nrows: int) -> int:
    """Rank mod PRIME of the map sending a form of the given degree to f(c(t))."""
    cm = [[to_mod(x) for x in c] for c in comps]
    cols = [compose({mono: 1}, cm, PRIME) for mono in monomials(len(comps), degree)]
    return rank_mod_p([[col[j] if j < len(col) else 0 for col in cols] for j in range(nrows)])


# -- exact linear algebra ---------------------------------------------------


def nullspace(rows: list[list], ncols: int) -> list[list[Fraction]]:
    """Gauss-Jordan kernel basis: one vector per free column, set to 1 there."""
    m = [[Fraction(x) for x in r] for r in rows]
    piv_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in piv_cols):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def primitive(v: list[Fraction]) -> list[int]:
    """Scale to coprime integers with a positive first nonzero entry."""
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    lead = next(x for x in ints if x)
    g = g if lead > 0 else -g
    return [x // g for x in ints]


def det(rows: list[list]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out
