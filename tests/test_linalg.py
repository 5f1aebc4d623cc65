import random
from fractions import Fraction as F

import numpy
import pytest

from curvejac import linalg
from curvejac.errors import DimensionError
from curvejac.incidence import jacobian_coefficient_form, restricted_gradient
from curvejac.linalg import (
    ComplexMatrix,
    RationalMatrix,
    _singular_values,
    kernel_exact,
    rank_exact,
    rank_numeric,
)

import oracles


def identity(n):
    return RationalMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def zero(r, c):
    return RationalMatrix.from_rows([[0] * c for _ in range(r)])


def to_complex(m):
    return ComplexMatrix.from_rows(m.to_rows())


class TestRankExact:
    def test_zero_matrix(self):
        assert rank_exact(zero(3, 5)) == 0

    def test_zero_matrix_takes_no_elimination(self, monkeypatch):
        # check 10's image matrix is all zero on every passing fixture
        def refuse(*args):
            raise AssertionError("a zero matrix was eliminated")

        monkeypatch.setattr(linalg, "_rows_mod", refuse)
        monkeypatch.setattr(linalg, "_bareiss_echelon", refuse)
        assert rank_exact(zero(4, 31)) == 0
        assert rank_exact(RationalMatrix.from_rows([[F(0)] * 6] * 4)) == 0

    def test_identity(self):
        assert rank_exact(identity(4)) == 4

    def test_fixture_a_jacobian(self, fixture_a):
        grads = restricted_gradient(fixture_a.problem.f, fixture_a.c0)
        jac = jacobian_coefficient_form(fixture_a.problem, fixture_a.c0, grads)
        assert rank_exact(jac.matrix) == 6
        # cross-check with plain Gauss-Jordan and with the kernel dimension
        assert oracles.rref_rank(jac.matrix.to_rows(), jac.matrix.cols) == 6
        assert kernel_exact(jac.matrix).dim == 4

    def test_invariance_under_permutation_and_scaling(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = [
                [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
                for _ in range(4)
            ]
            m = RationalMatrix.from_rows(rows)
            r = rank_exact(m)
            rng.shuffle(rows)
            perm = list(range(5))
            rng.shuffle(perm)
            scaled = [
                [F(rng.choice([1, 2, -3, 5])) * row[j] for j in perm] for row in rows
            ]
            assert rank_exact(RationalMatrix.from_rows(scaled)) == r


class TestKernelExact:
    def test_identity_kernel_empty(self):
        assert kernel_exact(identity(4)).dim == 0

    def test_single_equation(self):
        k = kernel_exact(RationalMatrix.from_rows([[1, 1]]))
        assert oracles.dense_kernel(k) == ((F(1), F(-1)),)

    def test_rank_nullity_and_annihilation(self):
        rng = random.Random(3)
        for _ in range(25):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            m = RationalMatrix.from_rows(
                [[F(rng.randint(-6, 6)) for _ in range(ncols)] for _ in range(nrows)]
            )
            k = kernel_exact(m)
            assert rank_exact(m) + k.dim == m.cols
            for v in oracles.dense_kernel(k):
                assert all(x == 0 for x in m.matvec(v))
                assert next(x for x in v if x != 0) == 1

    def test_basis_vectors_independent(self):
        m = RationalMatrix.from_rows([[1, 2, 3, 4], [0, 0, 1, 1]])
        k = kernel_exact(m)
        stack = RationalMatrix.from_rows([list(v) for v in oracles.dense_kernel(k)])
        assert rank_exact(stack) == k.dim


class TestDetExact:
    """The cofactor determinant of tests/oracles.py, from which the
    corner-block tests (criterion 3, test_construction) take theirs."""

    def test_identity(self):
        assert oracles.laplace_det(identity(3).to_rows()) == 1

    def test_vandermonde_012(self):
        assert oracles.laplace_det(oracles.vandermonde([F(0), F(1), F(2)], 3)) == 2

    def test_vandermonde_closed_form_random(self):
        rng = random.Random(11)
        for _ in range(20):
            pts = []
            while len(pts) < 4:
                t = F(rng.randint(-9, 9), rng.randint(1, 4))
                if t not in pts:
                    pts.append(t)
            expected = F(1)
            for i in range(4):
                for j in range(i + 1, 4):
                    expected *= pts[j] - pts[i]
            assert oracles.laplace_det(oracles.vandermonde(pts, 4)) == expected

    def test_matches_laplace_oracle(self):
        # a square matrix has full exact rank iff its determinant is nonzero;
        # every third draw makes a row a multiple of another, so both occur
        rng = random.Random(5)
        singular = 0
        for draw in range(15):
            rows = [
                [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
                for _ in range(4)
            ]
            if draw % 3 == 0:
                a, b = rng.sample(range(4), 2)
                k = F(rng.randint(-3, 3), rng.randint(1, 3))
                rows[a] = [k * x for x in rows[b]]
            det = oracles.laplace_det(rows)
            singular += det == 0
            assert (rank_exact(RationalMatrix.from_rows(rows)) == 4) == (det != 0)
        assert 0 < singular < 15


class TestVandermonde:
    """The Vandermonde matrix of tests/oracles.py, which the factorization
    tests (criterion 5, test_incidence) multiply by the coefficient form."""

    def test_single_point(self):
        assert oracles.vandermonde([F(0)], 3) == [[1, 0, 0]]

    def test_two_points(self):
        assert oracles.vandermonde([F(1), F(2)], 2) == [[1, 1], [1, 2]]

    def test_nonsingular_on_distinct_points(self):
        v = oracles.vandermonde([F(-1, 2), F(1), F(3)], 3)
        assert oracles.laplace_det(v) == F(21, 2)
        assert rank_exact(RationalMatrix.from_rows(v)) == 3


class TestRankNumeric:
    def test_identity(self):
        assert rank_numeric(to_complex(identity(4)), 1e-10) == 4

    def test_zero(self):
        assert rank_numeric(to_complex(zero(3, 3)), 1e-10) == 0

    def test_agrees_with_exact_on_fixture(self, fixture_a):
        grads = restricted_gradient(fixture_a.problem.f, fixture_a.c0)
        jac = jacobian_coefficient_form(fixture_a.problem, fixture_a.c0, grads)
        cm = to_complex(jac.matrix)
        assert rank_numeric(cm, 1e-8) == rank_exact(jac.matrix) == 6
        # the fixture satisfies the stated margin: smallest nonzero singular
        # value well above 10 * tol * largest, by numpy's SVD as the reference
        ref = numpy.linalg.svd(numpy.array(cm.data), compute_uv=False)
        assert len(ref) == 6 and ref[5] > 10 * 1e-8 * ref[0]
        s = _singular_values(cm)
        unit = ref[0] / s[0]
        assert max(abs(x * unit - y) for x, y in zip(s, ref)) <= 1e-13 * ref[0]

    def test_mid_size_products_against_numpy(self):
        # 51 x 99 is the shape of the evaluation Jacobian at d = 10, e = 5 in
        # P^8; a product of a rows x r and an r x cols Gaussian has rank r
        rng = random.Random(5)

        def gaussian(rows, cols):
            return numpy.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(cols)]
                                for _ in range(rows)])

        for rows, cols, r in ((51, 99, 51), (51, 99, 37), (99, 51, 44)):
            a = gaussian(rows, r) @ gaussian(r, cols)
            cm = ComplexMatrix.from_rows(a.tolist())
            assert rank_numeric(cm, 1e-8) == r
            ref = numpy.linalg.svd(a, compute_uv=False)
            s = _singular_values(cm)
            unit = ref[0] / s[0]
            assert max(abs(x * unit - y) for x, y in zip(s, ref)) <= 1e-13 * ref[0]

    def test_extreme_magnitudes(self):
        # squared norms of these entries leave the float range unless the
        # matrix is scaled first
        for big in (1e300, 1e-300, 5e-324):
            cm = ComplexMatrix.from_rows([[big, big * 1j, 0], [big, 2 * big, big]])
            assert rank_numeric(cm, 1e-8) == 2
            assert rank_numeric(ComplexMatrix.from_rows([[big, big], [big, big]]), 1e-8) == 1

    def test_tiny_columns_beside_a_large_one(self):
        # scaled by the largest entry, the last two columns' squared norms
        # underflow to 0: the reflector then divided by norm * (norm + |x0|)
        rows = [[1, 1e-170, 3e-170j], [1j, 2e-170, 1e-170], [2, 5e-170, 1e-170]]
        assert rank_numeric(ComplexMatrix.from_rows(rows), 1e-8) == 1
        s = numpy.linalg.svd(numpy.array(rows), compute_uv=False)
        # _singular_values scales the matrix by 2**-2, its largest part being 2
        got = _singular_values(ComplexMatrix.from_rows(rows))
        assert abs(got[0] * 4 - s[0]) <= 1e-13 * s[0]

    def test_rejects_ragged_and_empty_rows(self):
        with pytest.raises(DimensionError):
            ComplexMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(DimensionError):
            ComplexMatrix.from_rows([])

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            rank_numeric(to_complex(identity(2)), -1.0)

    def test_rejects_non_finite(self):
        cm = ComplexMatrix.from_rows([[complex("inf"), 0], [0, 1]])
        with pytest.raises(ValueError):
            rank_numeric(cm, 1e-8)


class TestMatrixJson:
    def test_round_trip(self):
        m = RationalMatrix.from_rows([[F(1, 2), F(-3)], [F(0), F(7, 5)]])
        obj = m.to_obj()
        assert obj["entries"] == [["1/2", "-3"], ["0", "7/5"]]


def test_matmul_and_matvec():
    # the product of tests/oracles.py, and the package's matvec
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert oracles.matmul(a.to_rows(), [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]
    assert a.matvec([F(1), F(1)]) == (F(3), F(7))


def test_integer_rows_take_no_fraction_work():
    # from_rows keeps ints; an int row's reduction mod p and its product
    # with an int vector are the Fraction paths' values, as ints
    rng = random.Random(14)
    for _ in range(30):
        rows = [[rng.randint(-10**30, 10**30) for _ in range(5)] for _ in range(4)]
        v = [rng.randint(-9, 9) for _ in range(5)]
        m = RationalMatrix.from_rows(rows)
        as_fractions = RationalMatrix(4, 5, tuple(map(F, m.entries)))
        assert all(type(x) is int for x in m.entries)
        product = m.matvec(v)
        assert all(type(x) is int for x in product)
        assert product == as_fractions.matvec(list(map(F, v)))
        for p in linalg._PRIMES:
            assert linalg._rows_mod(m, p) == linalg._rows_mod(as_fractions, p)
        assert rank_exact(m) == rank_exact(as_fractions)


def test_matvec_equals_fraction_sums():
    # matvec sums integers over each row's common denominator; the plain
    # Fraction sum is the reference
    rng = random.Random(13)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(ncols)]
                for _ in range(nrows)]
        v = [rng.choice([0, rng.randint(-5, 5), F(rng.randint(-9, 9), rng.randint(1, 30))])
             for _ in range(ncols)]
        want = tuple(sum((x * y for x, y in zip(row, v)), F(0)) for row in rows)
        assert RationalMatrix.from_rows(rows).matvec(v) == want
