"""Reusable property-suite drivers over seeded random draws.

Each driver raises AssertionError on the first violated instance and returns
the number of draws it ran, so both the property tests and the acceptance
suite can invoke them with their own draw counts.
"""

import random
from fractions import Fraction
from itertools import pairwise
from math import isqrt

import numpy
import sympy

from curvejac.incidence import (CurveParam, IncidenceProblem, _common_ints, _convolution_matrix,
                                _evaluation_rows, jacobian_coefficient_form, restricted_gradient)
from curvejac.linalg import (
    _PRIMES,
    ComplexMatrix,
    RationalMatrix,
    _bareiss_echelon,
    _cleared_int_rows,
    _rank_mod,
    _rows_mod,
    _singular_values,
    kernel_exact,
    rank_exact,
    rank_numeric,
)
from curvejac.poly import (
    _LABEL_DIGITS,
    MultiPoly,
    UniPoly,
    _int_mul,
    _integral,
    _polyroots,
    _simple_roots_mod_prime,
    coprime,
    gcd_univariate,
    monomial_basis,
    restrict_to_curve,
    squarefree_roots,
)

import oracles


def random_fraction(rng, num=9, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_unipoly(rng, max_deg):
    return UniPoly.from_coeffs(random_fraction(rng) for _ in range(max_deg + 1))


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
    if all(c.degree < d for c in comps):
        comps[0] = comps[0] + UniPoly.from_coeffs([0] * d + [1])
    return CurveParam(n, d, tuple(comps))


def theta(c):
    """A curve's coordinates, component-major then power-minor: the column
    order of its Jacobian (`theta_labels`)."""
    return [comp.coefficient(i) for comp in c.components for i in range(c.d + 1)]


def curve_from_theta(n, d, vec):
    """The curve in P^n of degree bound d with coordinates vec (`theta`)."""
    return CurveParam(n, d, tuple(UniPoly.from_coeffs(vec[m * (d + 1) : (m + 1) * (d + 1)])
                                  for m in range(n + 1)))


def incidence_equations(prob, c):
    """The e*d+1 coefficients of f(c(t)), zero-padded at the top."""
    restricted = restrict_to_curve([prob.f], c.components)[0]
    return tuple(restricted.coefficient(j) for j in range(prob.num_equations))


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
        jac = jacobian_coefficient_form(prob, c, restricted_gradient(prob.f, c))
        jd = [Fraction(x, jac.den) for x in jac.matrix.matvec(delta)]
        k0 = incidence_equations(prob, c)
        for row in range(prob.num_equations):
            values = [s[row] for s in samples]
            poly_in_x = oracles.interpolate(nodes, values)
            assert poly_in_x[0] == k0[row], "constant term is not k(c)"
            first = poly_in_x[1] if len(poly_in_x) > 1 else Fraction(0)
            assert first == jd[row], "first-order term differs from J*delta"
    return draws


def euler_identity_suite(seed, draws):
    """sum_m z_m * df/dz_m == e * f for homogeneous f of degree e."""
    rng = random.Random(seed)
    for _ in range(draws):
        num_vars = rng.randint(2, 5)
        degree = rng.randint(1, 4)
        f = random_homogeneous(rng, num_vars, degree)
        acc = MultiPoly.zero(num_vars)
        for m in range(num_vars):
            zm = MultiPoly.monomial(tuple(1 if i == m else 0 for i in range(num_vars)))
            acc = acc + zm * f.partial_derivative(m)
        assert acc == f.scale(degree), "Euler identity failed"
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
            polys.append(UniPoly.from_coeffs(random_fraction(rng, size, size)
                                             for _ in range(rng.randint(0, 7))))
        d = rng.randint(0, 5)
        points = [_chain_point(rng) for _ in range(rng.randint(1, 4))]
        den, ints = _common_ints(polys)
        assert den > 0 and all(type(x) is int for g in ints for x in g)
        top = max(len(g.coeffs) for g in polys)
        rows = _evaluation_rows(ints, d, [(t.numerator, t.denominator) for t in points])
        for t, row, ref in zip(points, rows, oracles.value_rows(polys, d, points)):
            assert all(type(x) is int for x in row), (polys, t)
            mult = den * Fraction(t.denominator) ** (top - 1 + d)
            assert row == [mult * x for x in ref], (polys, d, t)
        exact = _evaluation_rows([g.coeffs for g in polys], d, [(t, 1) for t in points])
        assert exact == oracles.value_rows(polys, d, points), (polys, d, points)
        nrows = top + d + rng.randint(0, 2)
        block = _convolution_matrix(ints, d, nrows)
        assert all(type(x) is int for x in block.entries)
        assert block.to_rows() == [[den * x for x in row]
                                   for row in oracles.toeplitz_rows(polys, d, nrows)]
    return draws


def random_matrix(rng, rows, cols):
    return RationalMatrix.from_rows(
        [[random_fraction(rng) for _ in range(cols)] for _ in range(rows)]
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
        assert rank == oracles.rref_rank(m.to_rows(), cols)
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


KERNEL_KINDS = ("wide", "non-dividing-pivots", "200-bit", "zero-columns", "deficient-pivot-block")


def _bareiss_pivots(rows):
    """The pivot columns and pivots of kernel_exact's elimination."""
    ech, piv_cols = _bareiss_echelon(_cleared_int_rows(RationalMatrix.from_rows(rows)))
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
    skip some of it.  Each draw asserts it has its kind's property.
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
        got = oracles.dense_kernel(kernel_exact(RationalMatrix.from_rows(rows)))
        assert got == want, (kind, rows)
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
        images = RationalMatrix.from_rows([m.matvec(v) for v in sym])
        image_rank = rank_exact(images)
        kinds.add(image_rank == 0)
        stack = RationalMatrix.from_rows([list(v) for v in vectors] + sym)
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
    """The rank of m mod each listed prime; None where a denominator is 0 mod p."""
    return [None if (rows := _rows_mod(m, p)) is None else _rank_mod(rows, p) for p in _PRIMES]


MODULAR_RANK_KINDS = ("plain", "den-first-prime", "singular-first-prime",
                      "singular-every-prime", "bogus-witness", "dependent-witnesses",
                      "kernel-witnesses")


def modular_rank_suite(seed, draws):
    """rank_exact equals the Gauss-Jordan oracle's rank, whatever path proves it.

    The draws cycle through MODULAR_RANK_KINDS.  A low-rank product L is
    perturbed by P * S, S random integers, with P the first listed prime or
    the product of all of them: mod those primes the matrix is L, over Q it
    is generically of full rank, so the modular rank falls short and the
    next prime or the fraction-free fallback must decide.  One kind puts the
    first prime in a denominator.  The witness kinds hand in the oracle's
    kernel basis, alone or with one vector outside the kernel, or with one
    dependent vector, on matrices singular mod every prime: a witness taken
    on trust would bound the rank by exactly its rank mod p, one too low.
    Each draw asserts that it has the property its kind names.
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
        elif kind == "den-first-prime":
            rows = _product(rng, nrows, rng.randint(1, full), cols)
            den = Fraction(rng.randint(1, 9), _PRIMES[0])
            rows[rng.randrange(nrows)][rng.randrange(cols)] = den
        else:
            scale = _PRIMES[0] if kind == "singular-first-prime" else every
            low = _product(rng, nrows, full - 1, cols)
            rows = [[x + scale * rng.randint(-9, 9) for x in row] for row in low]
        rank, kernel = oracles.rref_rank_kernel(rows, cols)
        m = RationalMatrix.from_rows(rows)
        mod = _ranks_mod(m)
        if kind == "den-first-prime":
            assert mod[0] is None and rank_exact(m) == rank
            continue
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
        assert rank_exact(m, witnesses) == rank, (kind, rows, witnesses)
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
        cm = ComplexMatrix.from_rows(rows)
        ref = numpy.linalg.svd(numpy.array(rows, dtype=complex), compute_uv=False)
        s = _singular_values(cm)
        assert len(s) == len(ref), (kind, rows)
        rank = int(numpy.count_nonzero(ref > tol * ref[0])) if ref[0] else 0
        assert rank_numeric(cm, tol) == rank, (kind, rows)
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
        p = UniPoly.from_coeffs([rng.randint(-9, 9) for _ in range(rng.randint(2, 4))] + [1])
        coeffs = [int(c) for c in reversed(p.coeffs)]
        if sympy.Poly(coeffs, sympy.Symbol("t")).is_irreducible:
            return p


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
        cofactor = UniPoly.one()
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
        p = distinct = cofactor.scale(random_fraction(rng) or 1)
        for r in roots:
            p = p * UniPoly.of(-r, 1)
        for r in set(roots):
            distinct = distinct * UniPoly.of(-r, 1)
        if kind == "lead-primes":
            ints = _integral(p)[0]
            assert all(ints[-1] % q == 0 for q in FIRST_PRIMES), (kind, p)
            assert _simple_roots_mod_prime(ints)[0] > FIRST_PRIMES[-1], (kind, p)
        if kind == "one-to-forty":
            assert _simple_roots_mod_prime(_integral(p)[0])[0] == 41, (kind, p)
        if kind == "repeated":
            assert len(set(roots)) < len(roots), (kind, roots)
        want_roots, want_cofactor = oracles.sympy_rational_roots(p.coeffs)
        assert want_roots == sorted(roots), (kind, p)
        assert (len(want_cofactor) > 1) == (cofactor.degree > 0), (kind, p, want_cofactor)
        sqfree = p.divmod_exact(gcd_univariate(p, p.derivative()))[0]
        assert sqfree.monic() == distinct.monic(), (kind, p, sqfree)
        exact, numeric = squarefree_roots(sqfree)
        assert exact == sorted(set(want_roots)), (kind, sqfree, exact)
        assert len(numeric) == (sqfree.degree if cofactor.degree else 0), (kind, sqfree)
    return draws


LABEL_KINDS = ("small", "height-30", "height-60", "even", "zero-root", "real-irrational",
               "crowded", "high-degree", "near-tolerance")


def _label_draw(rng, kind):
    """A polynomial of the given LABEL_KINDS kind, maybe not squarefree."""
    small = [random_fraction(rng) for _ in range(rng.randint(1, 7))] + [random_fraction(rng, den=1)]
    if kind.startswith("height-"):
        h = 10 ** int(kind[len("height-"):])
        return UniPoly.from_coeffs(rng.randint(-h, h) for _ in range(rng.randint(2, 9)))
    if kind == "even":
        p = UniPoly.one()
        for _ in range(rng.randint(1, 4)):
            p = p * UniPoly.of(abs(random_fraction(rng, 99, 9)) or 1, 0, 1)
        return p
    if kind == "zero-root":
        return UniPoly.of(0, 1) * UniPoly.from_coeffs([Fraction(rng.randint(1, 9))] + small[1:])
    if kind == "real-irrational":
        a = rng.choice([k for k in range(2, 100) if isqrt(k) ** 2 != k])
        return UniPoly.of(-a, 0, 1) * UniPoly.from_coeffs(small[rng.randint(0, len(small) - 1):])
    if kind == "crowded":
        m, h = rng.randint(2, 4), rng.randint(10, 24)
        return UniPoly.from_coeffs([10**h] * (m + 1) + [1])
    if kind == "high-degree":
        return UniPoly.from_coeffs([rng.randint(-9, 9) for _ in range(rng.randint(9, 16))]
                                   + [rng.choice((-1, 1))])
    return UniPoly.from_coeffs(small)


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
            p = UniPoly.of(1 + eps * eps, -2 * eps, 1)
        else:
            p = _label_draw(rng, kind)
            while p.degree < 1 or not coprime(p, p.derivative()):
                p = _label_draw(rng, kind)
            digits = max(len(str(_integral(p)[1])) + 10, _LABEL_DIGITS)
        want = oracles.mpmath_polyroots(p, digits)
        assert _polyroots(p, digits) == want, (kind, p, digits)
        assert len(want) == p.degree, (kind, p, want)
        if kind.startswith("height-"):
            assert _integral(p)[1] > 10 ** (int(kind[len("height-"):]) - 2), (kind, p)
        elif kind == "even":
            assert all(z.real == 0 and z.imag for z in want), (kind, p, want)
        elif kind == "zero-root":
            assert 0j in want, (kind, p, want)
        elif kind == "real-irrational":
            assert sum(z.imag == 0 for z in want) >= 2, (kind, p, want)
        elif kind == "crowded":
            assert max(map(abs, want)) > 10**8 * min(map(abs, want)), (kind, p, want)
        elif kind == "high-degree":
            assert p.degree >= 9, (kind, p)
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
