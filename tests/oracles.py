"""Independent oracles for cross-checking the package.

Everything here is deliberately naive and separate from the package's code
paths: plain Gauss-Jordan over Fractions (no fraction-free tricks), direct
convolution for polynomial products, exact Newton interpolation for
first-order Taylor extraction, block reassembly by row concatenation, and an
exhaustive smoothness search over a prime field.
"""

from fractions import Fraction
from itertools import product


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


def naive_mul(a, b):
    """Coefficient-list product, trailing zeros trimmed."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
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


def reassemble_blocks(blocks):
    """Rows of [[a11, a12], [a21, a22]] for exact blocks."""
    top = [list(blocks.a11.row(i)) + list(blocks.a12.row(i)) for i in range(blocks.a11.rows)]
    bottom = [list(blocks.a21.row(i)) + list(blocks.a22.row(i)) for i in range(blocks.a21.rows)]
    return top + bottom


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
