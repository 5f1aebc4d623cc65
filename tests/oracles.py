"""Independent oracles for cross-checking the package.

Everything here is deliberately naive and separate from the package's code
paths: plain Gauss-Jordan over Fractions (no fraction-free tricks),
kernel vectors and sampled members as dense vectors of Fractions,
schoolbook convolution over Fractions for polynomial products, exact Newton
interpolation for first-order Taylor extraction, Vandermonde matrices,
matrix products and cofactor determinants from their definitions, block
slicing, reassembly and closed forms by list arithmetic, an exhaustive
smoothness search over a prime field, smoothness along a curve from sympy's
gcd, rational roots from sympy's factorization over Q, and complex root
labels from mpmath's `polyroots`.
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import product

import mpmath
import sympy
from mpmath.libmp import NoConvergence


def rref_rank_kernel(rows, ncols):
    """Textbook Gauss-Jordan; returns (rank, kernel vectors)."""
    m = [[Fraction(x) for x in r] for r in rows]
    piv_cols = []
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
    kernel = []
    piv_set = set(piv_cols)
    for fc in (c for c in range(ncols) if c not in piv_set):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -m[i][fc]
        kernel.append(v)
    return r, kernel


def rref_rank(rows, ncols):
    return rref_rank_kernel(rows, ncols)[0]


def dense_kernel(basis):
    """A `KernelBasis` as the tuple of its vectors, each a dense tuple of
    Fractions: entry j of a vector (den, terms) is numerator / den for the
    pair (j, numerator) of its terms, and 0 for a column not among them."""
    vectors = []
    for den, terms in basis.vectors:
        v = [Fraction(0)] * basis.ambient_dim
        for j, x in terms:
            v[j] = Fraction(x, den)
        vectors.append(tuple(v))
    return tuple(vectors)


def jacobian_rows(jac):
    """The Jacobian a `JacobianMatrix` stands for, as rows of Fractions: its
    matrix divided by its den."""
    return [[Fraction(x, jac.den) for x in row] for row in jac.matrix.to_rows()]


def dense_random_member(vectors, seed, monomials):
    """The terms {monomial: coefficient} of the member `random_member` draws
    from the dense basis vectors (`dense_kernel`) over monomials, summed as
    Fractions entry by entry: the seeded coefficients in [-9, 9], redrawn
    while all are zero, times the vectors."""
    rng = random.Random(seed)
    while True:
        coefs = [rng.randint(-9, 9) for _ in vectors]
        if any(coefs):
            break
    vec = [Fraction(0)] * len(monomials)
    for coef, v in zip(coefs, vectors):
        for i, x in enumerate(v):
            vec[i] += coef * x
    return {m: x for m, x in zip(monomials, vec) if x}


def schoolbook_mul(a, b):
    """Coefficient-list product over Fractions, all len(a) + len(b) - 1
    coefficients: the schoolbook loop `UniPoly.__mul__` ran before it
    multiplied integers by Kronecker substitution."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def naive_mul(a, b):
    """Coefficient-list product, trailing zeros trimmed."""
    out = schoolbook_mul(a, b)
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_compose(terms, comps):
    """f(c(t)) for a term dict {exps: coef} and coefficient-list components."""
    total = []
    for exps, coef in terms.items():
        term = [Fraction(coef)]
        for m, k in enumerate(exps):
            for _ in range(k):
                term = naive_mul(term, comps[m])
        n = max(len(total), len(term))
        total = [
            (total[i] if i < len(total) else 0) + (term[i] if i < len(term) else 0)
            for i in range(n)
        ]
    while total and total[-1] == 0:
        total.pop()
    return total


def interpolate(nodes, values):
    """Exact polynomial coefficients through (node, value) pairs (Newton form)."""
    n = len(nodes)
    coef = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - j])
    # expand Newton form to monomial coefficients
    poly = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        # poly <- poly * (t - nodes[k]) + coef[k]
        new = [Fraction(0)] * n
        for i in range(n - 1):
            new[i + 1] += poly[i]
            new[i] -= poly[i] * nodes[k]
        new[0] += coef[k]
        poly = new
    return poly


def vandermonde(points, width):
    """Rows t**0 .. t**(width-1), one per point."""
    return [[Fraction(t) ** j for j in range(width)] for t in points]


def matmul(a, b):
    """The product of two matrices given as lists of rows."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def laplace_det(rows):
    """Determinant by cofactor expansion; fine for tiny matrices."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * laplace_det(minor)
    return total


def split_blocks(rows, d):
    """The blocks a11, a12, a21, a22 of an exact n=4 evaluation Jacobian, as
    lists of rows: rows split after the first d+1 points, columns into the
    z4-component block and the rest."""
    z4_cols, rest_cols = range(4 * (d + 1), 5 * (d + 1)), range(4 * (d + 1))
    top, bottom = rows[: d + 1], rows[d + 1 :]

    def cut(part, cols):
        return [[r[j] for j in cols] for r in part]

    return {"a11": cut(top, z4_cols), "a12": cut(top, rest_cols),
            "a21": cut(bottom, z4_cols), "a22": cut(bottom, rest_cols)}


def reassemble_blocks(blocks):
    """Rows of [[a11, a12], [a21, a22]]."""
    top = [a + b for a, b in zip(blocks["a11"], blocks["a12"])]
    bottom = [a + b for a, b in zip(blocks["a21"], blocks["a22"])]
    return top + bottom


def _value(poly, t):
    return sum(c * t**k for k, c in enumerate(poly.coeffs))


def value_rows(polys, d, points):
    """Rows of values at rational points, as Fractions: entry (s, (m, i)) is
    polys[m](t_s) * t_s**i, i <= d, each value summed term by term
    (`_value`)."""
    return [[_value(g, t) * t**i for g in polys for i in range(d + 1)] for t in points]


def toeplitz_rows(polys, d, nrows):
    """Rows of the map (v_m) -> sum_m polys[m] * v_m, v_m of degree <= d, as
    Fractions: entry (j, (m, i)) is the t**j coefficient of the schoolbook
    product polys[m] * t**i."""
    cols = [schoolbook_mul(list(g.coeffs), [0] * i + [1]) for g in polys for i in range(d + 1)]
    return [[col[j] if j < len(col) else Fraction(0) for col in cols] for j in range(nrows)]


def a11_closed_form(pc, points):
    """Corner block from the formula: entry (s, i) = t_s**(d-i) * pc(t_s),
    with pc = p(c0(t)) and d + 1 = len(points).  Columns run through
    descending powers, the reverse of the extracted block's."""
    d = len(points) - 1
    return [[t ** (d - i) * _value(pc, t) for i in range(d + 1)] for t in points]


def a22_closed_form(lc, grads, points):
    """Lower block from the formula at the last 4d points: entry (s, (m, i))
    = lc(t_s) * grads[m](t_s) * t_s**i, m = 0..3, with lc = l(c0(t)) and
    grads the restricted gradient of q."""
    d = len(points) // 4
    return [[_value(lc, t) * _value(g, t) * t**i for g in grads[:4] for i in range(d + 1)]
            for t in points]


def permute_z4_first(matrix, d):
    """Rows of an exact (n=4) Jacobian with the z4-component columns moved to
    the front, matching the block order."""
    order = list(range(4 * (d + 1), 5 * (d + 1))) + list(range(4 * (d + 1)))
    return [[matrix.entry(i, j) for j in order] for i in range(matrix.rows)]


def _eval_mod(poly, point, prime):
    total = 0
    for exps, coef in poly.terms.items():
        c = coef.numerator % prime * pow(coef.denominator, -1, prime) % prime
        v = c
        for x, k in zip(point, exps):
            if k:
                if x % prime == 0:
                    v = 0
                    break
                v = v * pow(x, k, prime) % prime
        total = (total + v) % prime
    return total


def quartic_smooth_over_prime_field(q, prime=11):
    """Probabilistic global-smoothness oracle for a quartic surface in P^3.

    Exhausts projective 3-space over F_prime looking for a common zero of the
    four gradient components (z4 fixed to 0).  True means no singular point
    with coordinates in that field, which is evidence, not proof, of
    smoothness; False exhibits a singular point over the prime field.
    """
    grads = [q.partial_derivative(m) for m in range(4)]
    for lead in range(4):
        for rest in product(range(prime), repeat=3 - lead):
            point = (0,) * lead + (1,) + rest + (0,)
            if all(_eval_mod(g, point, prime) == 0 for g in grads):
                return False
    return True


def _fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def _sympy_poly(coeffs, t):
    """sum coeffs[i] t^i as a sympy polynomial over Q."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      t, domain="QQ")


def smooth_along_curve(q, c0):
    """Necessary smoothness of the quartic q along the curve c0: the partials
    (dq/dz_m)(c0(t)), m < 4, have a constant gcd over Q (sympy's) and do not
    all drop below degree 3d, so they have no common zero at t = infinity."""
    t = sympy.Symbol("t")
    grads = [naive_compose({e[:m] + (e[m] - 1,) + e[m + 1 :]: c * e[m]
                            for e, c in q.terms.items() if e[m]},
                           [c.coeffs for c in c0.components]) for m in range(4)]
    nonzero = [_sympy_poly(g, t) for g in grads if g]
    return (bool(nonzero) and reduce(sympy.Poly.gcd, nonzero).degree() == 0
            and max(map(len, grads)) - 1 == 3 * c0.d)


def sympy_rational_roots(coeffs):
    """Rational roots with multiplicity, sorted, and the cofactor's
    coefficients (constant term first), from the linear factors of sympy's
    factorization over Q of sum coeffs[i] t^i."""
    t = sympy.Symbol("t")
    poly = _sympy_poly(coeffs, t)
    roots, linear = [], sympy.Poly(1, t, domain="QQ")
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            roots += [_fraction(-b / a)] * mult
            linear *= factor.monic() ** mult
    cofactor = poly.exquo(linear)
    return sorted(roots), [_fraction(c) for c in reversed(cofactor.all_coeffs())]


def mpmath_polyroots(p, digits):
    """All complex roots of the UniPoly p, sorted as machine complex numbers,
    from mpmath's `polyroots` at `digits` significant digits: the labels the
    package computed with mpmath before its integer iteration, with the same
    scaling p(2^k s), step cap and error message."""

    def size(c):
        return abs(c.numerator).bit_length() - c.denominator.bit_length()

    n = p.degree
    k = max(((size(c) - size(p.leading)) // (n - i)
             for i, c in enumerate(p.coeffs[:-1]) if c), default=0)
    with mpmath.mp.workdps(digits):
        coeffs = [mpmath.ldexp(mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator), k * i)
                  for i, c in enumerate(p.coeffs)]
        steps = max(1000, 20 * digits)
        try:
            zs = mpmath.polyroots(coeffs[::-1], maxsteps=steps, extraprec=80)
        except NoConvergence as exc:
            raise ValueError(
                f"complex roots did not converge in {steps} steps at {digits} digits"
            ) from exc
        zs = [z * mpmath.ldexp(1, k) for z in zs] if k else zs
        return sorted((complex(z) for z in zs), key=lambda z: (z.real, z.imag))


def mpmath_eps(digits):
    """mpmath's tolerance at `digits` significant digits, 2^(1-prec), as a
    Fraction."""
    with mpmath.mp.workdps(digits):
        eps = +mpmath.mp.eps
    return Fraction(int(eps.man)) * Fraction(2) ** int(eps.exp)
