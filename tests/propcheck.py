"""Reusable property-suite drivers over seeded random draws.

Each driver raises AssertionError on the first violated instance and returns
the number of draws it ran, so both the property tests and the acceptance
suite can invoke them with their own draw counts.
"""

import random
from fractions import Fraction

from curvejac.incidence import (
    CurveParam,
    IncidenceProblem,
    coefficients_k,
    jacobian_coefficient_form,
)
from curvejac.linalg import RationalMatrix, kernel_exact, rank_exact
from curvejac.poly import MultiPoly, UniPoly, monomial_basis

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
        theta = list(c.theta())
        nodes = [h * (k + 1) for k in range(e)] + [Fraction(0)]
        samples = []
        for x in nodes:
            moved = CurveParam.from_theta(
                n, d, [t + x * dv for t, dv in zip(theta, delta)]
            )
            samples.append(coefficients_k(prob, moved))
        jac = jacobian_coefficient_form(prob, c)
        jd = jac.matrix.matvec(delta)
        k0 = coefficients_k(prob, c)
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
        for v in kernel_exact(m).vectors:
            assert all(x == 0 for x in m.matvec(v))
            lead = next(x for x in v if x != 0)
            assert lead == 1
    return draws


def wide_kernel_basis_suite(seed, draws):
    """kernel_exact's basis is the oracle's Gauss-Jordan basis, each vector
    divided by its first nonzero entry, in the same order.  The matrices are
    wide (1-16 rows, up to 40 columns) with zero columns and repeated rows,
    so most columns are free, as in the through-curve kernels."""
    rng = random.Random(seed)
    for _ in range(draws):
        nrows, cols = rng.randint(1, 16), rng.randint(1, 40)
        rows = [[random_fraction(rng) for _ in range(cols)] for _ in range(nrows)]
        for j in rng.sample(range(cols), rng.randint(0, cols // 3)):
            for row in rows:
                row[j] = Fraction(0)
        for i in range(1, nrows):
            if rng.random() < 0.3:
                rows[i] = list(rows[rng.randrange(i)])
        _, oracle_kernel = oracles.rref_rank_kernel(rows, cols)
        want = tuple(
            tuple(x / lead for x in v)
            for v in oracle_kernel
            for lead in [next(x for x in v if x != 0)]
        )
        assert kernel_exact(RationalMatrix.from_rows(rows)).vectors == want
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
        sym = []
        for _ in range(rng.randint(1, 4)):
            if kernel.dim and rng.random() < 0.5:
                coefs = [random_fraction(rng) for _ in kernel.vectors]
                sym.append([sum(c * v[j] for c, v in zip(coefs, kernel.vectors))
                            for j in range(cols)])
            else:
                sym.append([random_fraction(rng) for _ in range(cols)])
        images = RationalMatrix.from_rows([m.matvec(v) for v in sym])
        image_rank = rank_exact(images)
        kinds.add(image_rank == 0)
        stack = RationalMatrix.from_rows([list(v) for v in kernel.vectors] + sym)
        assert rank_exact(stack) == kernel.dim + image_rank
    assert kinds == {True, False}, "the draws did not cover both J*S = 0 and J*S != 0"
    return draws
