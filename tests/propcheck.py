"""Reusable property-suite drivers over seeded random draws.

Each driver raises AssertionError on the first violated instance and returns
the number of draws it ran, so both the property tests and the acceptance
suite can invoke them with their own draw counts.
"""

import json
import random
from fractions import Fraction
from itertools import pairwise
from math import gcd, isqrt, lcm

import numpy
import sympy

from curvejac.construction import Fixture
from curvejac.errors import InputError
from curvejac.incidence import (CurveParam, IncidenceProblem, _convolution_matrix,
                                _evaluation_rows, jacobian_coefficient_form, quintics_through_curve,
                                random_member, restricted_gradient, symmetry_kernel_vectors)
from curvejac.linalg import (
    _PRIMES,
    MAX_RATIONAL_DIGITS,
    IntMatrix,
    _bareiss_echelon,
    _dump,
    _rank_mod,
    _singular_values,
    kernel_exact,
    parse_rational,
    rank_exact,
    rank_numeric,
)
from curvejac.poly import (
    _LABEL_DIGITS,
    MultiPoly,
    _curve_monomials,
    _gcd_degree,
    _int_mul,
    _integral,
    _polyroots,
    _simple_roots_mod_prime,
    coprime,
    monomial_basis,
    squarefree_roots,
)

import oracles


def random_fraction(rng, num=9, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def trimmed(coeffs):
    """The rationals coeffs (t**0 first) as Fractions without trailing
    zeros: a univariate polynomial as the tests write it."""
    return oracles.linear_combination((1, [Fraction(x) for x in coeffs]))


def common(polys):
    """The Fraction lists polys as the package holds them, one pair (den,
    lists): den the lcm of their denominators, lists[m] = den * polys[m] as
    integers."""
    den = lcm(*(Fraction(x).denominator for f in polys for x in f))
    return den, [[int(den * Fraction(x)) for x in f] for f in polys]


def pairs(polys):
    """The Fraction lists polys as the package holds a curve's components,
    each a pair (den, ints) (`pair`)."""
    return tuple(pair(p) for p in polys)


def pair(p):
    """The Fraction list p as the package holds one polynomial, (den, ints)."""
    den, (ints,) = common([p])
    return den, ints


def derivative(p):
    return [k * x for k, x in enumerate(p)][1:]


def evaluate(p, t):
    """p(t) for the coefficient list p (t**0 first), by Horner's rule: exact
    for rational t, complex otherwise."""
    value = Fraction(0)
    for c in reversed(p):
        value = value * t + c
    return value


def random_unipoly(rng, max_deg):
    return trimmed(random_fraction(rng) for _ in range(max_deg + 1))


def unipoly_product(*factors):
    """The product of Fraction lists by the schoolbook oracle
    (`oracles.naive_mul`)."""
    out = [Fraction(1)]
    for f in factors:
        out = oracles.naive_mul(out, list(f))
    return out


def scaled_form(f, s):
    """The MultiPoly f times the rational s, term by term."""
    return MultiPoly(f.num_vars, {e: c * s for e, c in oracles.coefficients(f).items()})


def fractional_lists(seed, n, d, digits):
    """The n+1 seeded coefficient lists of length d+1 of `fractional_curve`:
    fractions of two random integers of up to `digits` digits."""
    rng = random.Random(seed)
    h = 10**digits - 1

    def coef():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, h), rng.randint(1, h))

    return [[coef() for _ in range(d + 1)] for _ in range(n + 1)]


def fractional_curve(seed, n, d, digits):
    """A seeded curve in P^n of degree d whose coefficients are fractions
    of two random integers of up to `digits` digits, the leads nonzero."""
    return CurveParam.from_rationals(n, d, fractional_lists(seed, n, d, digits))


def random_homogeneous(rng, num_vars, degree, max_terms=5):
    mons = monomial_basis(num_vars, degree)
    picks = rng.sample(mons, min(max_terms, len(mons)))
    terms = {m: random_fraction(rng) for m in picks}
    poly = MultiPoly(num_vars, terms)
    if poly.is_zero:
        poly = MultiPoly.monomial(mons[0])
    return poly


def random_curve(rng, n, d):
    comps = [random_unipoly(rng, d) for _ in range(n + 1)]
    # force the degree bound to be attained so problems stay non-degenerate
    if all(len(c) <= d for c in comps):
        comps[0] = oracles.linear_combination((1, comps[0]), (1, [0] * d + [1]))
    return CurveParam.from_rationals(n, d, comps)


def theta(c):
    """A curve's coordinates, component-major then power-minor: the column
    order of its Jacobian (`theta_labels`)."""
    return [x for comp in oracles.components(c) for x in oracles.padded(comp, c.d + 1)]


def curve_from_theta(n, d, vec):
    """The curve in P^n of degree bound d with coordinates vec (`theta`)."""
    return CurveParam.from_rationals(n, d, [vec[m * (d + 1) : (m + 1) * (d + 1)]
                                            for m in range(n + 1)])


def incidence_equations(prob, c):
    """The e*d+1 coefficients of f(c(t)), zero-padded at the top."""
    return tuple(oracles.padded(oracles.on_curve(prob.f, c), prob.num_equations))


def taylor_chain_rule_suite(seed, draws):
    """First-order exactness of the coefficient Jacobian.

    For a random problem, basepoint, direction and rational step h, the
    coefficient vector along c + x*delta is a polynomial in x; its value at 0
    must be k(c) and its first-order coefficient must be J(c) applied to
    delta.  Both are extracted by exact interpolation at multiples of h, so
    there is no tolerance anywhere.
    """
    rng = random.Random(seed)
    for _ in range(draws):
        n = rng.choice((2, 3))
        d = rng.choice((1, 2))
        e = rng.choice((1, 2, 3))
        f = random_homogeneous(rng, n + 1, e)
        prob = IncidenceProblem(n, d, e, f)
        c = random_curve(rng, n, d)
        delta = [random_fraction(rng) for _ in range(prob.dim_m)]
        h = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        coords = theta(c)
        nodes = [h * (k + 1) for k in range(e)] + [Fraction(0)]
        samples = []
        for x in nodes:
            moved = curve_from_theta(n, d, [t + x * dv for t, dv in zip(coords, delta)])
            samples.append(incidence_equations(prob, moved))
        grads = restricted_gradient(prob.f, c)
        jac = jacobian_coefficient_form(prob, c, grads)
        jd = [Fraction(x, grads[0]) for x in jac.matvec(delta)]
        k0 = incidence_equations(prob, c)
        for row in range(prob.num_equations):
            values = [s[row] for s in samples]
            poly_in_x = oracles.interpolate(nodes, values)
            assert poly_in_x[0] == k0[row], "constant term is not k(c)"
            first = poly_in_x[1] if len(poly_in_x) > 1 else Fraction(0)
            assert first == jd[row], "first-order term differs from J*delta"
    return draws


def euler_identity_suite(seed, draws):
    """sum_m c_m(t) * (df/dz_m)(c(t)) == e * f(c(t)) for homogeneous f of
    degree e: the restricted gradient against the naive composition, the
    identity by which `vanishes_on_curve` decides f(c(t)) = 0."""
    rng = random.Random(seed)
    for _ in range(draws):
        num_vars = rng.randint(2, 5)
        degree = rng.randint(1, 4)
        f = random_homogeneous(rng, num_vars, degree)
        c = random_curve(rng, num_vars - 1, rng.randint(1, 3))
        grads = oracles.unipolys(restricted_gradient(f, c))
        lhs = oracles.linear_combination(
            *((1, oracles.naive_mul(cm, g)) for cm, g in zip(oracles.components(c), grads)))
        assert lhs == oracles.linear_combination((degree, oracles.on_curve(f, c))), \
            "Euler identity failed"
    return draws


def _coefficient(rng, fractional):
    return random_fraction(rng, 9, 9) if fractional else Fraction(rng.randint(-9, 9))


def _curve_in_hyperplane(rng, k, d, fractional):
    """Components c_0..c_k, Fraction lists of degree <= d, c_0 of degree d,
    integral or fractional, one of c_1..c_(k-1) at times zero, with c_k =
    sum_(m<k) a_m c_m; and the linear form z_k - sum_(m<k) a_m z_m in k+1
    variables, which vanishes on that curve."""
    lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                    rng.randint(1, 9) if fractional else 1)
    comps = [[_coefficient(rng, fractional) for _ in range(d)] + [lead]]
    comps += [trimmed(_coefficient(rng, fractional) for _ in range(d + 1)) for _ in range(k - 1)]
    if rng.random() < 0.3:
        comps[rng.randrange(1, k)] = []
    a = [_coefficient(rng, fractional) for _ in range(k)]
    comps.append(oracles.linear_combination(*zip(a, comps)))
    units = [tuple(int(i == m) for i in range(k + 1)) for m in range(k + 1)]
    return comps, MultiPoly(k + 1, {units[k]: 1, **{units[m]: -x for m, x in enumerate(a)}})


def fixture_restriction_suite(seed, draws):
    """`Fixture.restricted` against the naive restrictions of l, p and
    dq/dz_m, m < 4, over their least common denominator (`common`).

    Each q is a random cubic in z0..z3 times a linear form that vanishes on
    the curve, so the fixture is valid; the curves, of degree d <= 3, are
    integral or fractional, with zero components besides c_4; and p and l
    are forms with denominators above 1, each with a z4 term, or zero.
    """
    rng = random.Random(seed)
    for draw in range(draws):
        d = rng.randint(1, 3)
        comps, linear = _curve_in_hyperplane(rng, 3, d, draw % 2)
        c0 = CurveParam.from_rationals(4, d, comps + [[]])
        cubic = random_homogeneous(rng, 4, 3)
        q = MultiPoly(5, {(*e, 0): c for e, c in oracles.coefficients(linear * cubic).items()})
        forms = []
        for degree, kind in ((4, (draw // 2) % 3), (1, (draw // 6) % 3)):
            f = MultiPoly(5, {})
            if kind:
                f = scaled_form(random_homogeneous(rng, 5, degree),
                                Fraction(1, rng.randint(2, 99)))
            if kind == 2:
                z4_term = MultiPoly.monomial((degree - 1, 0, 0, 0, 1), random_fraction(rng, 9, 9))
                f = f + z4_term
            forms.append(f)
        p, l = forms
        fix = Fixture("draw", q, l, p, c0, d)
        want = common([oracles.on_curve(l, c0), oracles.on_curve(p, c0),
                       *oracles.gradient_on_curve(q, c0)[:4]])
        assert fix.restricted == want, (draw, fix.restricted, want)
    return draws


def _reparametrized(comps, d):
    """The components of c(t + 1), c(2t) and the reversal t**d c(1/t), each
    of degree <= d (Fraction lists)."""
    shift = [oracles.linear_combination(*((x, unipoly_product(*[[1, 1]] * i))
                                          for i, x in enumerate(cs))) for cs in comps]
    double = [[x * 2**i for i, x in enumerate(cs)] for cs in comps]
    reverse = [trimmed(oracles.padded(cs, d + 1)[::-1]) for cs in comps]
    return shift, double, reverse


def jacobian_reparametrization_suite(seed, draws, run):
    """`jacobian --form coeff` keeps its rank, tangent_dim and formal when
    the curve is reparametrized by t -> t + 1, t -> 2t and the reversal
    t**d c(1/t), which keeps the degree bound d.

    run(problem, curve, *options) is the command's JSON document (the
    `jacobian_command` fixture).  Curves in P^4 of degree d <= 4, integral
    or fractional, lie on random hypersurfaces of degree e <= 3: half of
    them a random form times a linear form that vanishes on the curve, so
    `formal` reads both ways.
    """
    rng = random.Random(seed)
    formal = set()
    for draw in range(draws):
        d, e = rng.randint(1, 4), rng.randint(1, 3)
        comps, linear = _curve_in_hyperplane(rng, 4, d, draw % 2)
        if draw % 4 < 2:
            f = linear * random_homogeneous(rng, 5, e - 1)
        else:
            f = random_homogeneous(rng, 5, e)
        prob = IncidenceProblem(4, d, e, f)
        keys = set()
        for cs in (comps, *_reparametrized(comps, d)):
            doc = run(prob, CurveParam.from_rationals(4, d, cs), "--form", "coeff")
            keys.add((doc["rank"], doc["tangent_dim"], doc["formal"]))
        assert len(keys) == 1, (draw, keys)
        formal |= {key[2] for key in keys}
    assert formal == {False, True}
    return draws


def _chain_point(rng):
    """A rational point: 0, a negative integer, a small fraction, or one with
    a numerator and a denominator of up to 30 digits."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(-rng.randint(1, 9))
    if kind == 2:
        return random_fraction(rng, 15, 6)
    return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))


def integer_chain_suite(seed, draws):
    """The integer rows and blocks that verify ranks, against Fractions.

    Each draw takes one to five polynomials (zero ones included) whose
    coefficients have denominators of up to 12 digits, scales them over
    their common denominator den, and checks at points from `_chain_point`:
    every integer evaluation row is exactly den * b**(K + d) > 0 times the
    value row (`oracles.value_rows`), t = a/b and K + 1 the longest
    coefficient list; the rows at (t, 1) are the value rows themselves; and
    the integer Toeplitz block is den times the Fraction block
    (`oracles.toeplitz_rows`).
    """
    rng = random.Random(seed)
    for _ in range(draws):
        polys = []
        for _ in range(rng.randint(1, 5)):
            size = 10 ** rng.choice((1, 6, 12))
            polys.append(trimmed(random_fraction(rng, size, size)
                                 for _ in range(rng.randint(0, 7))))
        d = rng.randint(0, 5)
        points = [_chain_point(rng) for _ in range(rng.randint(1, 4))]
        den, ints = common(polys)
        assert den > 0 and all(type(x) is int for g in ints for x in g)
        top = max(len(g) for g in polys)
        rows = _evaluation_rows(ints, d, [(t.numerator, t.denominator) for t in points])
        for t, row, ref in zip(points, rows, oracles.value_rows(polys, d, points)):
            assert all(type(x) is int for x in row), (polys, t)
            mult = den * Fraction(t.denominator) ** (top - 1 + d)
            assert row == [mult * x for x in ref], (polys, d, t)
        exact = _evaluation_rows(polys, d, [(t, 1) for t in points])
        assert exact == oracles.value_rows(polys, d, points), (polys, d, points)
        nrows = top + d + rng.randint(0, 2)
        block = _convolution_matrix(ints, d, nrows)
        assert all(type(x) is int for x in block.entries)
        assert oracles.matrix_rows(block) == [[den * x for x in row]
                                              for row in oracles.toeplitz_rows(polys, d, nrows)]
    return draws


SYMMETRY_KINDS = ("zero", "below-d", "degree-d")


def _symmetry_curve(rng, n, d):
    """A curve in P^n of degree bound d, each component of a random
    SYMMETRY_KINDS kind: zero, of a random degree below d, or of degree d.
    Its coefficients have numerators and denominators of up to 1, 6 or 30
    digits."""
    comps = []
    for _ in range(n + 1):
        kind = rng.choice(SYMMETRY_KINDS)
        size = 10 ** rng.choice((1, 6, 30))
        length = {"zero": 0, "below-d": rng.randint(1, d), "degree-d": d + 1}[kind]
        coeffs = [random_fraction(rng, size, size) for _ in range(length)]
        if kind == "degree-d":
            coeffs[-1] = coeffs[-1] or Fraction(1)
        comps.append(coeffs)
    return CurveParam.from_rationals(n, d, comps)


def symmetry_vectors_suite(seed, draws):
    """symmetry_kernel_vectors(c) against the schoolbook theta images.

    d cycles through 1..32 and n is drawn from 1..8; the curves come from
    `_symmetry_curve`.  The four vectors must be tuples of ints equal to D
    times `oracles.symmetry_images(c)`, D the lcm of the denominators of
    all of c's coefficients.
    """
    rng = random.Random(seed)
    for draw in range(draws):
        c = _symmetry_curve(rng, rng.randint(1, 8), draw % 32 + 1)
        comps = oracles.components(c)
        den = lcm(*(x.denominator for comp in comps for x in comp))
        got = symmetry_kernel_vectors(c)
        want = oracles.symmetry_images(comps, c.d)
        assert all(type(x) is int for v in got for x in v), c
        assert got == [tuple(den * x for x in v) for v in want], c
    return draws


def symmetry_annihilation_suite(seed, draws):
    """Every vector of symmetry_kernel_vectors(c) is annihilated by the
    coefficient Jacobian of a form through c: a random member of
    `quintics_through_curve` at n = 3, 4, e = 2, 3 and d cycling through
    1..3, which leaves more monomials than equations, so the basis is
    never empty.  The curves come from `_symmetry_curve`, and the vectors
    of a nonzero curve are not all zero."""
    rng = random.Random(seed)
    for draw in range(draws):
        n, e, d = rng.choice((3, 4)), rng.choice((2, 3)), draw % 3 + 1
        c = _symmetry_curve(rng, n, d)
        mons = monomial_basis(n + 1, e)
        basis = quintics_through_curve(c, mons, _curve_monomials(c.components))
        f = random_member(basis, draw, mons)
        jac = jacobian_coefficient_form(IncidenceProblem(n, d, e, f), c, restricted_gradient(f, c))
        vectors = symmetry_kernel_vectors(c)
        assert any(map(any, vectors)) == any(xs for _, xs in c.components), c
        for v in vectors:
            assert not any(jac.matvec(v)), (c, f, v)
    return draws


def random_matrix(rng, rows, cols):
    """Random rational rows, scaled to integers (`oracles.int_rows`)."""
    return IntMatrix.from_rows(
        oracles.int_rows([[random_fraction(rng) for _ in range(cols)] for _ in range(rows)])
    )


def rank_nullity_suite(seed, draws):
    """rank + kernel dimension == cols, with rank cross-checked against the
    independent Gauss-Jordan oracle."""
    rng = random.Random(seed)
    for _ in range(draws):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 7)
        m = random_matrix(rng, rows, cols)
        rank = rank_exact(m)
        kernel = kernel_exact(m)
        assert rank + kernel.dim == cols
        assert rank == oracles.rref_rank(oracles.matrix_rows(m), cols)
    return draws


def kernel_annihilation_suite(seed, draws):
    """Every kernel vector is annihilated exactly and normalized to lead 1."""
    rng = random.Random(seed)
    for _ in range(draws):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(2, 7))
        for v in oracles.dense_kernel(kernel_exact(m)):
            assert all(x == 0 for x in m.matvec(v))
            lead = next(x for x in v if x != 0)
            assert lead == 1
    return draws


KERNEL_KINDS = ("wide", "non-dividing-pivots", "200-bit", "zero-columns", "deficient-pivot-block",
                "mostly-zero")


def _bareiss_pivots(rows):
    """The pivot columns and pivots of kernel_exact's elimination."""
    ech, piv_cols = _bareiss_echelon(IntMatrix.from_rows(oracles.int_rows(rows)))
    return piv_cols, [ech[i][c] for i, c in enumerate(piv_cols)]


def wide_kernel_basis_suite(seed, draws, kinds=KERNEL_KINDS[:1]):
    """kernel_exact's basis is the oracle's Gauss-Jordan basis, each vector
    divided by its first nonzero entry, in the same order, exactly.

    The draws cycle through kinds, of KERNEL_KINDS.  "wide" matrices, the
    default, have 1-16 rows and up to 40 columns with zero columns and
    repeated rows, so most columns are free, as in the through-curve
    kernels.  The others have up to 8 rows and 16 columns: Bareiss pivots of
    which some does not divide the next one, entries with 200-bit
    numerators and denominators (up to 5 x 8), zero columns (the first and
    the third among them) before and between the pivot columns, and a
    leading block of columns of rank below its width, so the pivot columns
    skip some of it.  "mostly-zero" matrices have 1-16 rows and 3-60
    columns of which at most a third are nonzero, as in the through-curve
    kernels of a curve in a hyperplane; their draws cycle through no
    nonzero column, one, and a random number up to a third.  Each draw
    asserts it has its kind's property.
    """
    rng = random.Random(seed)
    for draw in range(draws):
        kind = kinds[draw % len(kinds)]
        if kind == "wide":
            nrows, cols = rng.randint(1, 16), rng.randint(1, 40)
            rows = [[random_fraction(rng) for _ in range(cols)] for _ in range(nrows)]
            for j in rng.sample(range(cols), rng.randint(0, cols // 3)):
                for row in rows:
                    row[j] = Fraction(0)
            for i in range(1, nrows):
                if rng.random() < 0.3:
                    rows[i] = list(rows[rng.randrange(i)])
        elif kind == "mostly-zero":
            nrows, cols = rng.randint(1, 16), rng.randint(3, 60)
            width = (0, 1, rng.randint(0, cols // 3))[draw // len(kinds) % 3]
            live = rng.sample(range(cols), width)
            rows = [[random_fraction(rng) if j in live else Fraction(0) for j in range(cols)]
                    for _ in range(nrows)]
            for j in live:
                rows[0][j] = rows[0][j] or Fraction(1)
            nonzero = [j for j in range(cols) if any(row[j] for row in rows)]
            assert sorted(live) == nonzero and 3 * len(nonzero) <= cols, (kind, rows)
        else:
            nrows, cols = rng.randint(2, 8), rng.randint(4, 16)
            big = 9
            if kind == "200-bit":
                nrows, cols, big = rng.randint(2, 5), rng.randint(4, 8), 2**200
            rows = [[random_fraction(rng, big, big) for _ in range(cols)] for _ in range(nrows)]
        if kind == "non-dividing-pivots":
            while not any(q % p for p, q in pairwise(_bareiss_pivots(rows)[1])):
                rows = [[random_fraction(rng) for _ in range(cols)] for _ in range(nrows)]
        elif kind == "200-bit":
            assert max(max(abs(x.numerator), x.denominator) for r in rows for x in r) >= 2**199
        elif kind == "zero-columns":
            zeros = [0, 2] + rng.sample(range(4, cols), rng.randint(0, (cols - 4) // 2))
            for row in rows:
                for j in zeros:
                    row[j] = Fraction(0)
            piv_cols = _bareiss_pivots(rows)[0]
            assert piv_cols[0] == 1 and piv_cols[-1] > 2, (kind, rows)
        elif kind == "deficient-pivot-block":
            width = rng.randint(2, min(nrows, cols - 1))
            basis = [[random_fraction(rng) for _ in range(width - 1)] for _ in range(nrows)]
            mix = [[random_fraction(rng) for _ in range(width)] for _ in range(width - 1)]
            for row, left in zip(rows, basis):
                row[:width] = [sum((x * m[j] for x, m in zip(left, mix)), Fraction(0))
                               for j in range(width)]
            piv_cols = _bareiss_pivots(rows)[0]
            assert len([c for c in piv_cols if c < width]) < width, (kind, rows)
            assert piv_cols != list(range(len(piv_cols))), (kind, rows)
        _, oracle_kernel = oracles.rref_rank_kernel(rows, cols)
        want = tuple(
            tuple(x / lead for x in v)
            for v in oracle_kernel
            for lead in [next(x for x in v if x != 0)]
        )
        got = oracles.dense_kernel(kernel_exact(IntMatrix.from_rows(oracles.int_rows(rows))))
        assert got == want, (kind, rows)
    return draws


def through_kernel_suite(seed, draws):
    """quintics_through_curve's basis is the oracle's Gauss-Jordan kernel
    of the Fraction matrix of the restricted monomials
    (`oracles.naive_compose`), each vector divided by its first nonzero
    entry, in the same order, exactly; each vector is primitive with a
    positive lead.

    The curves are `fractional_curve`s of one- or two-digit fractions, n in
    2..4 and d in 1..4, whose components have pairwise distinct
    denominators, and the form degree e is in 1..3.  The draws alternate
    between matrices with at least as many rows (e*d+1) as columns
    (C(n+e, e)) and with fewer.
    """
    rng = random.Random(seed)
    for draw in range(draws):
        tall = draw % 2 == 0
        while True:
            n, d, e = rng.randint(2, 4), rng.randint(1, 4), rng.randint(1, 3)
            c = fractional_curve(rng.randrange(2**32), n, d, rng.randint(1, 2))
            mons = monomial_basis(n + 1, e)
            if ((e * d + 1 >= len(mons)) == tall
                    and len({den for den, _ in c.components}) == n + 1):
                break
        basis = quintics_through_curve(c, mons, _curve_monomials(c.components))
        comps = oracles.components(c)
        cols = [oracles.padded(oracles.naive_compose({mono: 1}, comps), e * d + 1)
                for mono in mons]
        _, oracle_kernel = oracles.rref_rank_kernel(list(zip(*cols)), len(mons))
        want = tuple(tuple(x / lead for x in v)
                     for v in oracle_kernel for lead in [next(x for x in v if x != 0)])
        assert oracles.dense_kernel(basis) == want, (n, d, e, c)
        for terms in basis.vectors:
            assert terms[0][1] > 0 and gcd(*(x for _, x in terms)) == 1, (n, d, e, c)
    return draws


def stack_rank_suite(seed, draws):
    """rank(kernel basis of J stacked with S) == dim ker J + rank(J*S), the
    identity check 10 reports its stack rank by.  Each vector of S is either
    a random combination of the kernel vectors or a random vector, so the
    draws cover J*S = 0 as well as J*S != 0, which no fixture reaches."""
    rng = random.Random(seed)
    kinds = set()
    for _ in range(draws):
        cols = rng.randint(2, 8)
        m = random_matrix(rng, rng.randint(1, cols), cols)
        kernel = kernel_exact(m)
        vectors = oracles.dense_kernel(kernel)
        sym = []
        for _ in range(rng.randint(1, 4)):
            if kernel.dim and rng.random() < 0.5:
                coefs = [random_fraction(rng) for _ in vectors]
                sym.append([sum(c * v[j] for c, v in zip(coefs, vectors))
                            for j in range(cols)])
            else:
                sym.append([random_fraction(rng) for _ in range(cols)])
        image_rank = rank_exact(IntMatrix.from_rows(oracles.int_rows([m.matvec(v) for v in sym])))
        kinds.add(image_rank == 0)
        stack = IntMatrix.from_rows(oracles.int_rows([*vectors, *sym]))
        assert rank_exact(stack) == kernel.dim + image_rank
    assert kinds == {True, False}, "the draws did not cover both J*S = 0 and J*S != 0"
    return draws


def _product(rng, rows, inner, cols):
    """A random rows x cols matrix of rank at most inner, as lists."""
    left = [[random_fraction(rng) for _ in range(inner)] for _ in range(rows)]
    right = [[random_fraction(rng) for _ in range(cols)] for _ in range(inner)]
    return [[sum((row[k] * right[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
            for row in left]


def _ranks_mod(m):
    """The rank of m mod each listed prime."""
    return [_rank_mod(m, p) for p in _PRIMES]


MODULAR_RANK_KINDS = ("plain", "singular-first-prime",
                      "singular-every-prime", "bogus-witness", "dependent-witnesses",
                      "kernel-witnesses")


def modular_rank_suite(seed, draws):
    """rank_exact equals the Gauss-Jordan oracle's rank, whatever path proves it.

    The draws cycle through MODULAR_RANK_KINDS.  A low-rank product L is
    perturbed by P * S, S random integers, with P the first listed prime or
    the product of all of them: mod those primes the matrix is L, over Q it
    is of full rank (S is redrawn until it is), so the modular rank falls
    short and the next prime or the fraction-free fallback must decide.
    Rows and witnesses are scaled to integers (`oracles.int_rows`).  The
    witness kinds hand in the oracle's kernel basis, alone or with one
    vector outside the kernel, or with one dependent vector, on matrices
    singular mod every prime: a witness taken on trust would bound the rank
    by exactly its rank mod p, one too low.  Each draw asserts that it has
    the property its kind names.
    """
    rng = random.Random(seed)
    every = 1
    for p in _PRIMES:
        every *= p
    for draw in range(draws):
        kind = MODULAR_RANK_KINDS[draw % len(MODULAR_RANK_KINDS)]
        nrows, cols = rng.randint(1, 6), rng.randint(1, 6)
        full = min(nrows, cols)
        witnesses = []
        if kind in ("plain", "kernel-witnesses"):
            rows = _product(rng, nrows, rng.randint(0, full), cols)
        else:
            scale = _PRIMES[0] if kind == "singular-first-prime" else every
            low = _product(rng, nrows, full - 1, cols)
            rows = low
            while oracles.rref_rank(rows, cols) < full:
                rows = [[x + scale * rng.randint(-9, 9) for x in row] for row in low]
        rank, kernel = oracles.rref_rank_kernel(rows, cols)
        m = IntMatrix.from_rows(oracles.int_rows(rows))
        mod = _ranks_mod(m)
        if kind == "singular-first-prime":
            assert mod[0] < rank, (kind, rows)
        if kind in ("singular-every-prime", "bogus-witness", "dependent-witnesses"):
            assert all(r < rank for r in mod), (kind, rows)
        if kind == "kernel-witnesses":
            witnesses = kernel
        elif kind == "bogus-witness":
            bogus = [Fraction(rng.randint(-9, 9)) for _ in range(cols)]
            while not any(m.matvec(bogus)):
                bogus = [Fraction(rng.randint(-9, 9)) for _ in range(cols)]
            witnesses = kernel + [bogus]
            assert all(r == cols - len(witnesses) for r in mod), (kind, rows)
        elif kind == "dependent-witnesses":
            dependent = [sum(col, Fraction(0)) for col in zip(*kernel)] or [Fraction(0)] * cols
            witnesses = kernel + [dependent]
            assert all(r == cols - len(witnesses) for r in mod), (kind, rows)
        assert rank_exact(m, oracles.int_rows(witnesses)) == rank, (kind, rows, witnesses)
    return draws


PACKED_RANK_KINDS = ("small", "tall", "wide", "zero-rows", "zero-columns", "deficient",
                     "large", "worst")


def _worst_rows(rng, p, n):
    """Rows mod p whose packed elimination adds (p - 1)**2 to every slot it
    updates: n rows L * U, L lower triangular of ones and U unit upper
    triangular with p - 1 above the diagonal, so that every pivot is 1 and
    every multiplier p - 1, then the negation of row n - 1 (rank n).  Row
    n - 1 takes n - 1 updates; its negation takes the tails only, so a
    carry out of a slot of row n - 1 leaves it nonzero.  Wide or tall, each
    extra row another negation of row n - 1."""
    cols = n + 1 + (rng.randint(0, 24) if rng.random() < 0.5 else 0)
    u = [[1 if j == t else (p - 1 if j > t else 0) for j in range(cols)] for t in range(n)]
    rows, acc = [], [0] * cols
    for t in range(n):
        acc = [(x + y) % p for x, y in zip(acc, u[t])]
        rows.append(acc)
    extra = 1 if cols > n + 1 else rng.randint(1, 24)
    return rows + [[-x % p for x in rows[-1]] for _ in range(extra)], cols


def packed_rank_suite(seed, draws):
    """_rank_mod, on rows packed by `_rows_mod`, equals the list elimination mod
    p of oracles.rank_mod_lists, modulo each prime of _PRIMES in turn.

    The draws cycle through PACKED_RANK_KINDS: random shapes from 1x1 up to
    12x12, tall and wide ones up to 40 rows or columns, rows or columns that
    are all zero (the first column among them), rank-deficient matrices
    whose entries exceed p (each row a combination of at most three of a few
    random rows, plus p times anything), such matrices up to 129x153 (the
    first of each prime exactly 129x153 or 153x129), and the worst slot case
    (`_worst_rows`), sized so that its largest slot, (n - 1)(p - 1)**2 plus
    an entry, needs every byte of a slot wide enough for min(rows, cols) *
    2**(2 bitlen(p)).  Entries are ints of up to 40 digits.  Each draw
    asserts it has its kind's property.
    """
    rng = random.Random(seed)
    first_large = set()
    for draw in range(draws):
        kind = PACKED_RANK_KINDS[draw % len(PACKED_RANK_KINDS)]
        p = _PRIMES[draw // len(PACKED_RANK_KINDS) % len(_PRIMES)]
        nrows, cols = rng.randint(1, 12), rng.randint(1, 12)
        if kind == "tall":
            nrows = rng.randint(13, 40)
        elif kind == "wide":
            cols = rng.randint(13, 40)
        elif kind == "large":
            nrows, cols = rng.randint(41, 129), rng.randint(41, 153)
            if p not in first_large:
                first_large.add(p)
                nrows, cols = (129, 153) if len(first_large) % 2 else (153, 129)
            if rng.random() < 0.5:
                nrows, cols = cols, nrows
        big = 10**rng.randint(1, 40)
        rows = [[rng.randint(-big, big) for _ in range(cols)] for _ in range(nrows)]
        if kind in ("zero-rows", "deficient", "large"):
            # each row a combination of at most three of inner random rows,
            # plus p times anything
            inner = rng.randint(0, min(nrows, cols))
            right = [[rng.randint(-big, big) for _ in range(cols)] for _ in range(inner)]
            rows = []
            for _ in range(nrows):
                row = [p * rng.randint(-big, big) for _ in range(cols)]
                for b in rng.sample(right, min(inner, 3)):
                    a = rng.randint(-9, 9)
                    row = [x + a * y for x, y in zip(row, b)]
                rows.append(row)
        if kind == "zero-rows":
            for i in rng.sample(range(nrows), rng.randint(1, nrows)):
                rows[i] = [0] * cols
            assert any(not any(r) for r in rows), kind
        elif kind == "zero-columns":
            zero = {0} | set(rng.sample(range(cols), rng.randint(0, cols - 1)))
            rows = [[0 if j in zero else x for j, x in enumerate(r)] for r in rows]
            assert not any(r[0] for r in rows), kind
        elif kind == "worst":
            n = rng.choice((rng.randint(2, 62), rng.randint(66, 128)))
            rows, cols = _worst_rows(rng, p, n)
            k = min(len(rows), cols)
            size = (2 * p.bit_length() + k.bit_length() + 7) // 8
            assert (n - 1) * (p - 1) ** 2 >= 1 << (8 * size - 8), (kind, n, size)
        want = oracles.rank_mod_lists([[x % p for x in r] for r in rows], p)
        if kind == "deficient":
            assert want <= inner, (kind, inner, want)
        elif kind == "worst":
            assert want == n, (kind, n, want)
        assert _rank_mod(IntMatrix.from_rows(rows), p) == want, (kind, p, rows)
    return draws


NUMERIC_RANK_KINDS = ("wide", "tall", "square", "product", "graded", "zero", "one-row",
                      "one-column")


def _gaussian(rng, nrows, cols):
    return [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(cols)]
            for _ in range(nrows)]


def numeric_rank_suite(seed, draws, tol=1e-8):
    """rank_numeric and the bisected singular values agree with numpy's SVD.

    The draws cycle through NUMERIC_RANK_KINDS, complex Gaussian entries on
    up to 12 x 16 matrices: wide, tall and square shapes, products of rank
    r < min(rows, cols), columns graded by 10^k with |k| <= 6, the zero
    matrix, one row and one column.  Ranks at tol must be equal (a product's
    is r) and the singular values, which `_singular_values` returns scaled
    by a power of two, agree within 1e-13 times the largest.
    """
    rng = random.Random(seed)
    for draw in range(draws):
        kind = NUMERIC_RANK_KINDS[draw % len(NUMERIC_RANK_KINDS)]
        nrows, cols = rng.randint(1, 12), rng.randint(1, 16)
        if kind == "wide":
            nrows = rng.randint(1, 11)
            cols = rng.randint(nrows + 1, 16)
        elif kind == "tall":
            cols = rng.randint(1, 11)
            nrows = rng.randint(cols + 1, 12)
        elif kind == "square":
            cols = nrows
        elif kind == "product":
            nrows, cols = rng.randint(2, 12), rng.randint(2, 16)
        elif kind == "one-row":
            nrows = 1
        elif kind == "one-column":
            cols = 1
        if kind == "product":
            r = rng.randint(0, min(nrows, cols) - 1)
            left, right = _gaussian(rng, nrows, r), _gaussian(rng, r, cols)
            rows = [[sum(x * right[k][j] for k, x in enumerate(row)) for j in range(cols)]
                    for row in left]
        elif kind == "graded":
            scales = [10.0 ** rng.randint(-6, 6) for _ in range(cols)]
            rows = [[x * g for x, g in zip(row, scales)] for row in _gaussian(rng, nrows, cols)]
        elif kind == "zero":
            rows = [[0j] * cols for _ in range(nrows)]
        else:
            rows = _gaussian(rng, nrows, cols)
        ref = numpy.linalg.svd(numpy.array(rows, dtype=complex), compute_uv=False)
        s = _singular_values(rows)
        assert len(s) == len(ref), (kind, rows)
        rank = int(numpy.count_nonzero(ref > tol * ref[0])) if ref[0] else 0
        assert rank_numeric(rows, tol) == rank, (kind, rows)
        if kind == "product":
            assert rank == r, (kind, rows)
        if not ref[0]:
            assert not any(s), (kind, rows)
            continue
        unit = ref[0] / s[0]
        assert max(abs(x * unit - y) for x, y in zip(s, ref)) <= 1e-13 * ref[0], (kind, rows)
    return draws


ROOT_KINDS = ("30-digit", "repeated", "zero", "lead-primes", "one-to-forty", "irreducible")
FIRST_PRIMES = (2, 3, 5, 7, 11, 13)


def _irreducible(rng):
    """A random irreducible polynomial over Q of degree 2..4."""
    while True:
        p = trimmed([rng.randint(-9, 9) for _ in range(rng.randint(2, 4))] + [1])
        coeffs = [int(c) for c in reversed(p)]
        if sympy.Poly(coeffs, sympy.Symbol("t")).is_irreducible:
            return p


def coprime_suite(seed, draws):
    """coprime(*polys) against sympy's gcd over Q.

    Each draw has 1-9 polynomials with fractional coefficients, about a
    quarter of them zero (never all), each a random multiple of one planted
    common factor whose degree cycles through 0-3.  coprime must hold
    exactly when sympy's gcd is 1, and its fallback, Euclid over Q, must give
    the degree of sympy's gcd.
    """
    rng = random.Random(seed)
    for draw in range(draws):
        k = draw % 4
        planted = trimmed([random_fraction(rng, 99, 9) for _ in range(k)]
                          + [random_fraction(rng, 99, 9) or 1])
        polys = [[] if rng.random() < 0.25
                 else unipoly_product(planted, random_unipoly(rng, rng.randint(0, 4)))
                 for _ in range(rng.randint(1, 9))]
        if not any(polys):
            polys[0] = planted
        want = oracles.sympy_gcd(*polys)
        ints = [pair(f)[1] for f in polys]
        assert len(want) > k, (polys, want)
        assert coprime(*ints) == (len(want) == 1), (polys, want)
        assert _gcd_degree([f for f in ints if f]) == len(want) - 1, (polys, want)
    return draws


def rational_roots_suite(seed, draws):
    """The roots of sympy's factorization over Q are the drawn roots, with
    multiplicity; the squarefree part p / gcd(p, p') is the product of the
    distinct linear factors and the cofactor, and squarefree_roots on it
    returns the distinct rational roots, with every root as a complex label
    exactly when sympy's cofactor is not constant.

    The draws cycle through ROOT_KINDS: roots with 30-digit numerators,
    repeated roots, the root 0, a lead divisible by FIRST_PRIMES (so the
    lifting prime is larger), the roots 1..40 (every prime below 40 divides
    the discriminant, so the prime search reaches 41), and an irreducible
    cofactor of degree 2..4.  Each draw is a random multiple of its roots'
    linear factors and the cofactor, and asserts it has its kind's property.
    """
    rng = random.Random(seed)
    for draw in range(draws):
        kind = ROOT_KINDS[draw % len(ROOT_KINDS)]
        roots = [random_fraction(rng, 99, 9) for _ in range(rng.randint(0, 3))]
        cofactor = [Fraction(1)]
        if kind == "30-digit":
            roots.append(Fraction(rng.choice([-1, 1]) * rng.randint(10**29, 10**30 - 1),
                                  rng.randint(1, 99)))
        elif kind == "repeated":
            roots += [random_fraction(rng, 99, 9)] * rng.randint(2, 4)
        elif kind == "zero":
            roots += [Fraction(0)] * rng.randint(1, 3)
        elif kind == "lead-primes":
            roots = [Fraction(rng.choice([k for k in range(-99, 100) if k % q]), q)
                     for q in FIRST_PRIMES]
        elif kind == "one-to-forty":
            roots = [Fraction(k) for k in range(1, 41)]
        else:
            cofactor = _irreducible(rng)
        cofactor = oracles.linear_combination((random_fraction(rng) or 1, cofactor))
        p = unipoly_product(cofactor, *([-r, 1] for r in roots))
        distinct = unipoly_product(cofactor, *([-r, 1] for r in set(roots)))
        if kind == "lead-primes":
            ints = _integral(pair(p))[0]
            assert all(ints[-1] % q == 0 for q in FIRST_PRIMES), (kind, p)
            assert _simple_roots_mod_prime(ints)[0] > FIRST_PRIMES[-1], (kind, p)
        if kind == "one-to-forty":
            assert _simple_roots_mod_prime(_integral(pair(p))[0])[0] == 41, (kind, p)
        if kind == "repeated":
            assert len(set(roots)) < len(roots), (kind, roots)
        want_roots, want_cofactor = oracles.sympy_rational_roots(p)
        assert want_roots == sorted(roots), (kind, p)
        assert (len(want_cofactor) > 1) == (len(cofactor) > 1), (kind, p, want_cofactor)
        sqfree = oracles.naive_divmod(p, oracles.sympy_gcd(p, derivative(p)))[0]
        assert oracles.linear_combination((distinct[-1] / sqfree[-1], sqfree)) == distinct, (
            kind, p, sqfree)
        exact, numeric = squarefree_roots(pair(sqfree))
        assert exact == [oracles.as_pair(r) for r in sorted(set(want_roots))], (kind, sqfree, exact)
        assert len(numeric) == (len(sqfree) - 1 if len(cofactor) > 1 else 0), (kind, sqfree)
    return draws


LABEL_KINDS = ("small", "height-30", "height-60", "even", "zero-root", "real-irrational",
               "crowded", "high-degree", "near-tolerance")


def _label_draw(rng, kind):
    """A polynomial of the given LABEL_KINDS kind, maybe not squarefree."""
    small = [random_fraction(rng) for _ in range(rng.randint(1, 7))] + [random_fraction(rng, den=1)]
    if kind.startswith("height-"):
        h = 10 ** int(kind[len("height-"):])
        return trimmed(rng.randint(-h, h) for _ in range(rng.randint(2, 9)))
    if kind == "even":
        return unipoly_product(*([abs(random_fraction(rng, 99, 9)) or 1, 0, 1]
                                 for _ in range(rng.randint(1, 4))))
    if kind == "zero-root":
        return unipoly_product([0, 1], trimmed([Fraction(rng.randint(1, 9))] + small[1:]))
    if kind == "real-irrational":
        a = rng.choice([k for k in range(2, 100) if isqrt(k) ** 2 != k])
        return unipoly_product([-a, 0, 1], trimmed(small[rng.randint(0, len(small) - 1):]))
    if kind == "crowded":
        m, h = rng.randint(2, 4), rng.randint(10, 24)
        return trimmed([10**h] * (m + 1) + [1])
    if kind == "high-degree":
        return trimmed([rng.randint(-9, 9) for _ in range(rng.randint(9, 16))]
                       + [rng.choice((-1, 1))])
    return trimmed(small)


def root_labels_suite(seed, draws):
    """_polyroots gives exactly the floats of mpmath's polyroots
    (oracles.mpmath_polyroots), at the digits squarefree_roots works at,
    _LABEL_DIGITS or the Cauchy height's digits plus 10, except where a
    kind says otherwise.

    The draws cycle through LABEL_KINDS, each redrawn until squarefree of
    degree >= 1: small coefficients; integer coefficients up to 10^30 and
    10^60; even polynomials prod (t^2 + a_j), a_j > 0, whose roots are all
    pure imaginary; a root at 0; a real irrational pair +-sqrt(a) times
    small coefficients; 10^h (1 + t + ... + t^m) + t^(m+1), one root near
    -10^h and m crowding near 0 after scaling; degree 9 to 16; and
    (t - eps)^2 + 1 at 32 to 80 digits, eps = +-f 2^(1-prec) with f in
    [9/16, 7/8] or [9/8, 31/16], whose real part the cleanup drops exactly
    when f < 1 (prec as mpmath derives it from the digits).  The even,
    zero-root and real-irrational kinds too have roots, or parts of them,
    that the cleanup below the tolerance sets to exactly 0.  Each draw
    asserts it has its kind's property.
    """
    rng = random.Random(seed)
    for draw in range(draws):
        kind = LABEL_KINDS[draw % len(LABEL_KINDS)]
        if kind == "near-tolerance":
            digits = rng.randint(_LABEL_DIGITS, 80)
            factor = Fraction(rng.choice([*range(9, 15), *range(18, 32)]), 16)
            eps = rng.choice((-1, 1)) * factor * oracles.mpmath_eps(digits)
            p = trimmed([1 + eps * eps, -2 * eps, 1])
        else:
            p = _label_draw(rng, kind)
            while len(p) < 2 or not coprime(pair(p)[1], pair(derivative(p))[1]):
                p = _label_draw(rng, kind)
            digits = max(len(str(_integral(pair(p))[1])) + 10, _LABEL_DIGITS)
        want = oracles.mpmath_polyroots(p, digits)
        assert _polyroots(pair(p), digits) == want, (kind, p, digits)
        assert len(want) == len(p) - 1, (kind, p, want)
        if kind.startswith("height-"):
            assert _integral(pair(p))[1] > 10 ** (int(kind[len("height-"):]) - 2), (kind, p)
        elif kind == "even":
            assert all(z.real == 0 and z.imag for z in want), (kind, p, want)
        elif kind == "zero-root":
            assert 0j in want, (kind, p, want)
        elif kind == "real-irrational":
            assert sum(z.imag == 0 for z in want) >= 2, (kind, p, want)
        elif kind == "crowded":
            assert max(map(abs, want)) > 10**8 * min(map(abs, want)), (kind, p, want)
        elif kind == "high-degree":
            assert len(p) - 1 >= 9, (kind, p)
        elif kind == "near-tolerance":
            assert [z.imag for z in want] == [-1, 1], (kind, p, want)
            assert all((z.real == 0) == (factor < 1) for z in want), (kind, p, want)
    return draws


INT_MUL_KINDS = ("small", "zeros", "negative", "trailing-zeros", "degree-0", "degree-300",
                 "2000-digit", "slot-boundary", "full-slot")


def _slot_bits(a, b):
    """The slot width `_int_mul` picks: whole bytes above the bound on the
    product coefficients plus a sign bit."""
    bound = max(min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)),
                max(map(abs, a)), max(map(abs, b)))
    return 8 * ((bound.bit_length() + 8) // 8)


def int_mul_suite(seed, draws):
    """_int_mul equals the Fraction schoolbook product, every coefficient of
    it, trailing zeros included.

    The draws cycle through INT_MUL_KINDS: small coefficients, zero
    coefficients (an all-zero factor among them), all coefficients
    negative, trailing zeros on either factor, a constant factor, a factor
    of degree above 300, 2000-digit coefficients, and two at a slot
    boundary: a constant factor +-1 against coefficients +-T with T =
    2^(8k-1) - 1, the largest value a k-byte slot holds, or T = 2^(8k-1),
    the smallest that needs one more byte; and two factors of equal
    magnitudes M, whose middle coefficient is the bound min(len) M^2 itself.
    Each draw asserts it has its kind's property.
    """
    rng = random.Random(seed)
    for draw in range(draws):
        kind = INT_MUL_KINDS[draw % len(INT_MUL_KINDS)]
        la, lb, big = rng.randint(1, 12), rng.randint(1, 12), 10**6
        if kind == "degree-0":
            la = 1
        elif kind == "degree-300":
            la = rng.randint(302, 400)
        elif kind == "2000-digit":
            big = 10**2000 - 1
        a = [rng.randint(-big, big) for _ in range(la)]
        b = [rng.randint(-big, big) for _ in range(lb)]
        if kind == "zeros":
            a = [x if rng.random() < 0.5 else 0 for x in a]
            if rng.random() < 0.3:
                b = [0] * lb
            assert 0 in a + b, (kind, a, b)
        elif kind == "negative":
            a, b = [-abs(x) - 1 for x in a], [-abs(x) - 1 for x in b]
        elif kind == "trailing-zeros":
            a, b = a + [0] * rng.randint(1, 3), b + [0] * rng.randint(0, 3)
        elif kind == "2000-digit":
            assert max(len(str(abs(x))) for x in a + b) == 2000, (kind, a, b)
        elif kind == "slot-boundary":
            k = rng.randint(1, 300)
            t = (1 << (8 * k - 1)) - rng.randint(0, 1)
            a = [rng.choice((1, -1))]
            b = [rng.choice((t, -t, 0, rng.randint(-t, t))) for _ in range(lb)]
            b[rng.randrange(lb)] = rng.choice((t, -t))
            assert _slot_bits(a, b) == (8 * k if t % 2 else 8 * k + 8), (kind, t)
        elif kind == "full-slot":
            m = rng.choice((1 << rng.randint(0, 300), (1 << rng.randint(1, 300)) - 1))
            n = min(la, lb)
            a = [m] * la
            b = [rng.choice((m, -m))] * lb
            assert abs(oracles.schoolbook_mul(a, b)[n - 1]) == n * m * m, (kind, a, b)
        want = oracles.schoolbook_mul([Fraction(x) for x in a], [Fraction(x) for x in b])
        assert _int_mul(a, b) == want, (kind, a, b)
    return draws


JSON_CHARS = "ab z09/\\\"\n\t\r\b\f\x00\x1f\x7f\u00e9\u2028\U0001f600"
# Printable ASCII but '"' and '\\': the characters json writes as they are.
JSON_PLAIN = "".join(chr(i) for i in range(32, 127) if chr(i) not in "\"\\")


def _json_float(rng):
    return rng.choice((0.0, -0.0, 1e-300, 1.5, -2.5e40, float("inf"), float("-inf"),
                       float("nan"), rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)))


def _json_scalar(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return "".join(rng.choice(JSON_CHARS) for _ in range(rng.randint(0, 6)))
    if kind == 1:
        return rng.randint(-10**rng.randint(0, 60), 10**rng.randint(0, 60))
    if kind == 2:
        return _json_float(rng)
    if kind == 3:
        return rng.choice((True, False, None))
    return str(rng.randint(-99, 99)) + rng.choice(("", "/7"))


def _json_value(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return _json_scalar(rng)
    size = rng.choice((0, 1, 2, rng.randint(3, 8)))
    kind = rng.randrange(6)
    if kind == 0:
        return {str(_json_scalar(rng)): _json_value(rng, depth - 1) for _ in range(size)}
    if kind == 1:
        keys = rng.choice(([rng.randint(-9, 9) for _ in range(size)],
                           [rng.uniform(-9, 9) for _ in range(size)],
                           [True, False, 2, "x"][:size], [None]))
        return {k: _json_value(rng, depth - 1) for k in keys}
    if kind == 2:
        return [str(_json_scalar(rng)) for _ in range(size)]
    if kind == 3:
        if rng.random() < 0.5:
            return [rng.randint(-10**30, 10**30) for _ in range(size)]
        return [_json_float(rng) for _ in range(size)]
    seq = [_json_value(rng, depth - 1) for _ in range(size)]
    return tuple(seq) if kind == 4 else seq


def json_document_suite(seed, draws):
    """_dump(obj) is json.dumps(obj, indent=2, sort_keys=True) and a newline,
    byte for byte, on random nested documents: dicts keyed by strings, by
    ints, by floats, by None, or by bools, ints and a string together (which
    both refuse to sort, raising TypeError), lists of strings, of ints, of
    floats and of anything, tuples, empty containers, floats (signed zeros,
    infinities, NaN), bools, None, big ints, and strings with escapes,
    control characters and characters beyond ASCII.

    Then, for each character that json escapes ('"', '\\', control
    characters, DEL and characters beyond ASCII), a list of strings of
    printable ASCII, written as it is, and the same list with that
    character put into one of its strings."""
    rng = random.Random(seed)
    for _ in range(draws):
        obj = _json_value(rng, rng.randint(0, 5))
        want, got = TypeError, TypeError  # keys that cannot be sorted together
        try:
            want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        except TypeError:
            pass
        try:
            got = _dump(obj)
        except TypeError:
            pass
        assert got == want, obj
    for ch in (c for c in JSON_CHARS + "\x1b\x80\xff" if c not in JSON_PLAIN):
        strings = ["".join(rng.choices(JSON_PLAIN, k=rng.randint(0, 5))) for _ in range(4)]
        k = rng.randrange(4)
        i = rng.randint(0, len(strings[k]))
        escaped = [*strings[:k], strings[k][:i] + ch + strings[k][i:], *strings[k + 1:]]
        for obj in ({"v": strings}, {"v": escaped}):
            assert _dump(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n", obj
    return draws


# Strings that are not 'p' or 'p/q' in ASCII digits, and values of other types.
MALFORMED_RATIONALS = ("", "-", "--1", "+3", " 3", "3 ", "1.5", "1e3", "1_000", "3/-4", "/3",
                       "3/", "1/2/3", "0x10", "\u0661\u0662", "\u00bd", "2\u00b2", "1/\u0663",
                       1.0, 0.5, True, False, None, [], [1], {})
# Entries at and just beyond the digit limit.
LIMIT_RATIONALS = (10**MAX_RATIONAL_DIGITS - 1, -(10**MAX_RATIONAL_DIGITS - 1),
                   10**MAX_RATIONAL_DIGITS, "9" * MAX_RATIONAL_DIGITS,
                   "-" + "9" * MAX_RATIONAL_DIGITS, "1" + "0" * MAX_RATIONAL_DIGITS,
                   "0" * (MAX_RATIONAL_DIGITS + 1), "1/" + "7" * MAX_RATIONAL_DIGITS,
                   "1/" + "7" * (MAX_RATIONAL_DIGITS + 1))
RATIONAL_DIGITS = (1, 1, 2, 3, 20, 300, MAX_RATIONAL_DIGITS, MAX_RATIONAL_DIGITS + 1)


def _digits(rng, count):
    return "".join(rng.choice("0123456789") for _ in range(count))


def _rational_input(rng):
    """A coefficient entry: an int or a string 'p' or 'p/q', each part of 1
    to MAX_RATIONAL_DIGITS + 1 digits (at and just above the limit among
    them), leading zeros, a zero numerator or denominator and '-0' among
    them; or an entry of `MALFORMED_RATIONALS`."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((1, -1)) * int(_digits(rng, rng.choice(RATIONAL_DIGITS)))
    sign = rng.choice(("", "", "-"))
    if kind == 1:
        return sign + _digits(rng, rng.choice(RATIONAL_DIGITS))
    if kind == 2:
        return sign + rng.choice(("0", "00", "7")) + "/" + rng.choice(("0", "1", "0001"))
    if kind == 3:
        num, den = (_digits(rng, rng.choice(RATIONAL_DIGITS)) for _ in range(2))
        return f"{sign}{num}/{den}"
    return rng.choice(MALFORMED_RATIONALS)


def parse_rational_suite(seed, draws):
    """parse_rational against `oracles.rational_value`: every accepted entry
    reads as the pair (num, den) of ints of the oracle's Fraction, in lowest
    terms with den > 0, and a refused entry raises InputError with the
    oracle's one-line message.  The entries of `LIMIT_RATIONALS` and
    `MALFORMED_RATIONALS` come first, then random draws."""
    rng = random.Random(seed)
    fixed = LIMIT_RATIONALS + MALFORMED_RATIONALS
    for s in (*fixed, *(_rational_input(rng) for _ in range(draws))):
        want = oracles.rational_value(s)
        try:
            got = parse_rational(s)
        except InputError as exc:
            got = str(exc)
        if not isinstance(want, str):
            want = oracles.as_pair(want)
            assert type(got) is tuple and set(map(type, got)) == {int}, (s, got)
        assert got == want, (s, got, want)
    return len(fixed) + draws
