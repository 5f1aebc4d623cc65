"""Independent oracles for cross-checking the package.

Everything here is deliberately naive and separate from the package's code
paths: plain Gauss-Jordan over Fractions (no fraction-free tricks),
elimination mod p on lists of reduced entries (no packed rows), rows of
rationals scaled to the integer rows the package's one matrix type holds,
kernel vectors and sampled members as dense vectors of Fractions, matrix
rows cut from the row-major entries, coefficient lists padded, combined and
multiplied over Fractions by the schoolbook loop, the symmetry directions of
a curve from those products, exact Newton
interpolation for first-order Taylor extraction, Vandermonde matrices,
evaluation rows at complex points from Fraction coefficients,
matrix products and cofactor determinants from their definitions, block
slicing, reassembly and closed forms by list arithmetic, an exhaustive
smoothness search over a prime field, gcds over Q (coprimality, smoothness
along a curve) from sympy's, rational roots from sympy's factorization over Q, complex root
labels from mpmath's `polyroots`, and the value of a document's coefficient entry from
splitting its string.  It also builds what no command builds: the
special quintic f0 = l*q + z4*p of a fixture with its incidence problem, and
the Fraction coefficient lists of a pair (den, lists), the package's form
of a univariate polynomial.
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd, lcm

import mpmath
import sympy
from mpmath.libmp import NoConvergence

from curvejac.incidence import IncidenceProblem
from curvejac.linalg import MAX_RATIONAL_DIGITS, IntMatrix
from curvejac.poly import MultiPoly


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


def rank_mod_lists(rows, p):
    """Rank over Z/p of rows of ints in [0, p), by Gaussian elimination on
    lists, each entry reduced after every update."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        head = [x * inv % p for x in rows[rank][c:]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i][c:] = [(x - f * y) % p for x, y in zip(rows[i][c:], head)]
        rank += 1
    return rank


def dense_kernel(basis):
    """A `KernelBasis` as the tuple of its vectors, each a dense tuple of
    Fractions: entry j of a vector of terms is numerator / lead for the pair
    (j, numerator) of its terms, lead the first numerator, and 0 for a
    column not among them."""
    vectors = []
    for terms in basis.vectors:
        v = [Fraction(0)] * basis.ambient_dim
        for j, x in terms:
            v[j] = Fraction(x, terms[0][1])
        vectors.append(tuple(v))
    return tuple(vectors)


def int_rows(rows):
    """Rows of rationals as rows of ints, each scaled by the lcm of its
    denominators: the rows an `IntMatrix` takes.  Scaling a row keeps the
    rank, the kernel and its lead-1 basis, and a scaled kernel vector is a
    kernel vector."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def matrix_rows(m):
    """An `IntMatrix` as a list of rows, cut from its row-major entries."""
    return [list(m.entries[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


def jacobian_rows(jac, den):
    """The exact Jacobian as rows of Fractions, given den times it: the
    coefficient form's `IntMatrix` or the evaluation form's rows at rational
    points, den the restricted gradient's."""
    rows = matrix_rows(jac) if isinstance(jac, IntMatrix) else jac
    return [[Fraction(x, den) for x in row] for row in rows]


def fraction_complex_rows(pair, d, points):
    """Evaluation rows at complex points from the Fraction coefficients
    x / den of a pair (den, lists), the restricted gradient: entry (s, (m,
    i)) is g_m(t_s) * t_s**i, g_m(t_s) by Horner's rule with each Fraction
    added into a complex accumulator and t_s**i the running product of
    t_s's.  The evaluation form built these rows from Fractions before it
    read the integer lists."""
    den, lists = pair
    rows = []
    for t in points:
        powers = [1]
        for _ in range(d):
            powers.append(powers[-1] * t)
        row = []
        for xs in lists:
            acc = 0
            for x in reversed(xs):
                acc = acc * t + Fraction(x, den)
            row.extend(acc * w for w in powers)
        rows.append(row)
    return rows


def dense_random_member(vectors, seed, monomials):
    """The terms {monomial: coefficient} of the member `random_member` draws
    from the dense Fraction basis vectors (`dense_kernel`) over monomials:
    each vector brought to primitive integer form (times the lcm of its
    denominators, over the gcd of the result, its first nonzero entry made
    positive), then the seeded coefficients in [-9, 9], redrawn while all
    are zero, times those integer vectors, summed entry by entry."""
    rng = random.Random(seed)
    while True:
        coefs = [rng.randint(-9, 9) for _ in vectors]
        if any(coefs):
            break
    vec = [0] * len(monomials)
    for coef, v in zip(coefs, vectors):
        scale = lcm(*(Fraction(x).denominator for x in v))
        ints = [int(x * scale) for x in v]
        g = gcd(*ints)
        lead = next(x for x in ints if x)
        w = [x // g if lead > 0 else -x // g for x in ints]
        for i, x in enumerate(w):
            vec[i] += coef * x
    return {m: x for m, x in zip(monomials, vec) if x}


def schoolbook_mul(a, b):
    """Coefficient-list product over Fractions, all len(a) + len(b) - 1
    coefficients, by the schoolbook loop."""
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


def naive_divmod(a, b):
    """Quotient and remainder of coefficient lists (t**0 first, b's last
    entry nonzero) by schoolbook long division over Fractions, trailing
    zeros trimmed."""
    rem, quot = [Fraction(x) for x in a], [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rem[k + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[k + j] -= quot[k] * y
    return naive_mul(quot, [1]), naive_mul(rem, [1])


def padded(coeffs, n):
    """The t**0 .. t**(n-1) coefficients of the polynomial listed by coeffs
    (t**0 first), as Fractions: cut at n, or padded with zeros."""
    return [Fraction(x) for x in coeffs[:n]] + [Fraction(0)] * (n - len(coeffs))


def linear_combination(*pairs):
    """sum s * coeffs over the (s, coeffs) pairs, coefficient lists t**0
    first, as Fractions with trailing zeros trimmed."""
    out = [Fraction(0)] * max((len(cs) for _, cs in pairs), default=0)
    for s, cs in pairs:
        for i, x in enumerate(cs):
            out[i] += s * x
    while out and out[-1] == 0:
        out.pop()
    return out


def symmetry_images(comps, d):
    """The theta images of c', t*c', t^2*c' - d*t*c and c for the curve with
    coefficient lists comps (t**0 first), each a tuple of Fractions: the
    derivative term by term, the products by the schoolbook loop, and an
    AssertionError if an image leaves the degree bound d."""
    t = [0, 1]
    families = ([], [], [], [])
    for cs in comps:
        deriv = [k * x for k, x in enumerate(cs)][1:]
        t_deriv = schoolbook_mul(deriv, t)
        images = (deriv, t_deriv,
                  linear_combination((1, schoolbook_mul(t_deriv, t)), (-d, schoolbook_mul(cs, t))),
                  cs)
        for fam, image in zip(families, images):
            assert not any(image[d + 1 :]), "symmetry image exceeds the degree bound"
            fam.extend(padded(image, d + 1))
    return [tuple(v) for v in families]


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


def unipolys(pair):
    """The polynomials of a pair (den, lists), the restrictions of
    `restrict_to_curve`, as lists of Fractions
    x / den, t**0 first, trailing zeros kept, so a list that keeps one never
    equals the trimmed polynomial."""
    den, lists = pair
    return [[Fraction(x, den) for x in xs] for xs in lists]


def components(c):
    """A curve's components as lists of Fractions, t**0 first."""
    return [[Fraction(x, den) for x in xs] for den, xs in c.components]


def coefficients(f):
    """A `MultiPoly`'s terms as Fractions, each integer coefficient over den."""
    return {e: Fraction(c, f.den) for e, c in f.terms.items()}


def as_pair(x):
    """The rational x as the package holds one value: (num, den) in lowest
    terms, den > 0."""
    x = Fraction(x)
    return x.numerator, x.denominator


def evaluation_values(rows, pair, d, points):
    """The exact Jacobian's rows at rational points (a, b), given the
    evaluation form's integer rows there and the restricted gradient pair
    (den, lists): row s divided by den * b**(K + d), K + 1 the length of the
    longest list (the homogenized Horner rows of `_evaluation_rows`)."""
    den, lists = pair
    k = max(map(len, lists)) - 1 + d
    return [[Fraction(x, den * b**k) for x in row] for row, (_, b) in zip(rows, points)]


def build_special_hypersurface(l, q, p):
    """l*q + z4*p, the quintic through every curve on the quartic surface."""
    return l * q + MultiPoly.monomial((0, 0, 0, 0, 1)) * p


def f0(fix):
    """The special quintic of a fixture."""
    return build_special_hypersurface(fix.l, fix.q, fix.p)


def problem(fix):
    """The incidence problem of a fixture's special quintic: n = 4, e = 5."""
    return IncidenceProblem(4, fix.d, 5, f0(fix))


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
    return sum(c * t**k for k, c in enumerate(poly))


def value_rows(polys, d, points):
    """Rows of values at rational points, as Fractions: entry (s, (m, i)) is
    polys[m](t_s) * t_s**i, i <= d, each value summed term by term
    (`_value`)."""
    return [[_value(g, t) * t**i for g in polys for i in range(d + 1)] for t in points]


def toeplitz_rows(polys, d, nrows):
    """Rows of the map (v_m) -> sum_m polys[m] * v_m, v_m of degree <= d, as
    Fractions: entry (j, (m, i)) is the t**j coefficient of the schoolbook
    product polys[m] * t**i."""
    cols = [schoolbook_mul(list(g), [0] * i + [1]) for g in polys for i in range(d + 1)]
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


def permute_z4_first(rows, d):
    """Rows of an exact (n=4) Jacobian with the z4-component columns moved to
    the front, matching the block order."""
    order = list(range(4 * (d + 1), 5 * (d + 1))) + list(range(4 * (d + 1)))
    return [[row[j] for j in order] for row in rows]


def _eval_mod(poly, point, prime):
    total = 0
    for exps, coef in coefficients(poly).items():
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


def sympy_gcd(*coeff_lists):
    """sympy's monic gcd over Q of the polynomials sum coeffs[i] t^i, zero
    ones included, as Fractions, constant term first; [] when all are
    zero."""
    t = sympy.Symbol("t")
    g = reduce(sympy.Poly.gcd, [_sympy_poly(c, t) for c in coeff_lists])
    return [] if g.is_zero else [_fraction(c) for c in reversed(g.all_coeffs())]


def smooth_along_curve(q, c0):
    """Necessary smoothness of the quartic q along the curve c0: the partials
    (dq/dz_m)(c0(t)), m < 4, have a constant gcd over Q (sympy's) and do not
    all drop below degree 3d, so they have no common zero at t = infinity."""
    grads = [naive_compose({e[:m] + (e[m] - 1,) + e[m + 1 :]: c * e[m]
                            for e, c in coefficients(q).items() if e[m]},
                           components(c0)) for m in range(4)]
    return len(sympy_gcd(*grads)) == 1 and max(map(len, grads)) - 1 == 3 * c0.d


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
    """All complex roots of p, a list of Fractions (t**0 first, no trailing
    zero), sorted as machine complex numbers, from mpmath's `polyroots` at
    `digits` significant digits: the labels the package computed with mpmath
    before its integer iteration, with the same scaling p(2^k s), step cap
    and error message."""

    def size(c):
        return abs(c.numerator).bit_length() - c.denominator.bit_length()

    n = len(p) - 1
    k = max(((size(c) - size(p[-1])) // (n - i)
             for i, c in enumerate(p[:-1]) if c), default=0)
    with mpmath.mp.workdps(digits):
        coeffs = [mpmath.ldexp(mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator), k * i)
                  for i, c in enumerate(p)]
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


def rational_value(s):
    """The Fraction a coefficient entry of a document stands for, or the
    one-line message it is refused with: an int of at most
    MAX_RATIONAL_DIGITS digits, or a string of ASCII digits 'p' or 'p/q',
    p optionally signed with '-', each part of at most that many digits,
    q nonzero."""
    digits = MAX_RATIONAL_DIGITS
    if type(s) is int and len(str(abs(s))) <= digits:
        return Fraction(s)
    if isinstance(s, str):
        parts = s.removeprefix("-").split("/")
        if len(parts) <= 2 and all(p.isascii() and p.isdigit() and len(p) <= digits
                                   for p in parts):
            if len(parts) == 2 and not int(parts[1]):
                return f"invalid rational value {s!r}: zero denominator"
            return Fraction(int(s.split("/")[0]), int(parts[1]) if len(parts) == 2 else 1)
    shown = repr(s) if len(repr(s)) <= 40 else repr(s)[:40] + "..."
    return (f"invalid rational value {shown}: expected a string 'p' or 'p/q' of at most "
            f"{digits} decimal digits each, p optionally signed with '-'")
