import random
import sys
from decimal import Decimal
from fractions import Fraction as F

import numpy
import pytest

from curvejac import linalg
from curvejac.errors import DimensionError
from curvejac.incidence import (CurveParam, IncidenceProblem, jacobian_coefficient_form,
                                restricted_gradient)
from curvejac.linalg import (IntMatrix, KernelBasis, _singular_values, kernel_exact, rank_exact,
                             rank_numeric)
from curvejac.poly import MultiPoly

import oracles


def identity(n):
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def zero(r, c):
    return IntMatrix.from_rows([[0] * c for _ in range(r)])


def to_complex(m):
    return [[complex(x) for x in row] for row in oracles.matrix_rows(m)]


class TestIntMatrix:
    def test_refuses_entries_that_are_not_ints(self):
        for x in (F(1, 2), F(3), 0.5, True):
            with pytest.raises(TypeError):
                IntMatrix.from_rows([[1, x], [0, 1]])
            with pytest.raises(TypeError):
                IntMatrix(1, 2, (x, 1))

    def test_rejects_ragged_and_empty_rows(self):
        with pytest.raises(DimensionError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(DimensionError):
            IntMatrix.from_rows([])
        with pytest.raises(DimensionError):
            IntMatrix(2, 2, (1, 2, 3))


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

    def test_identity(self):
        assert rank_exact(identity(4)) == 4

    def test_fixture_a_jacobian(self, fixture_a):
        prob = oracles.problem(fixture_a)
        grads = restricted_gradient(prob.f, fixture_a.c0)
        jac = jacobian_coefficient_form(prob, fixture_a.c0, grads)
        assert rank_exact(jac) == 6
        # cross-check with plain Gauss-Jordan and with the kernel dimension
        assert oracles.rref_rank(oracles.matrix_rows(jac), jac.cols) == 6
        assert kernel_exact(jac).dim == 4

    def test_invariance_under_permutation_and_scaling(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = [
                [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
                for _ in range(4)
            ]
            r = rank_exact(IntMatrix.from_rows(oracles.int_rows(rows)))
            rng.shuffle(rows)
            perm = list(range(5))
            rng.shuffle(perm)
            scaled = [
                [F(rng.choice([1, 2, -3, 5])) * row[j] for j in perm] for row in rows
            ]
            assert rank_exact(IntMatrix.from_rows(oracles.int_rows(scaled))) == r


class TestKernelExact:
    def test_identity_kernel_empty(self):
        assert kernel_exact(identity(4)).dim == 0

    def test_single_equation(self):
        k = kernel_exact(IntMatrix.from_rows([[1, 1]]))
        assert oracles.dense_kernel(k) == ((F(1), F(-1)),)

    def test_rank_nullity_and_annihilation(self):
        rng = random.Random(3)
        for _ in range(25):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            m = IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
            )
            k = kernel_exact(m)
            assert rank_exact(m) + k.dim == m.cols
            for v in oracles.dense_kernel(k):
                assert all(x == 0 for x in m.matvec(v))
                assert next(x for x in v if x != 0) == 1

    def test_bareiss_runs_unless_nonzero_columns_have_full_rank_mod_p(self, monkeypatch):
        # nonzero columns of full column rank mod the first prime are
        # independent over Q, so the zero columns are the only free ones and
        # nothing is eliminated; otherwise Bareiss runs, also where only the
        # prime makes the rank deficient, and the basis is the oracle's
        calls = []
        eliminate = linalg._bareiss_echelon

        def spy(m):
            calls.append(m)
            return eliminate(m)

        monkeypatch.setattr(linalg, "_bareiss_echelon", spy)
        p = linalg._PRIMES[0]
        rng = random.Random(2047)
        cases = [IntMatrix.from_rows([[1, 0], [0, p]]), IntMatrix.from_rows([[0, 3], [0, 5]]),
                 IntMatrix(2, 3, (0,) * 6)]
        for _ in range(80):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
            zeros = rng.sample(range(ncols), rng.randint(0, ncols))
            cases.append(IntMatrix.from_rows(
                [[0 if j in zeros else rng.randint(-2, 2) for j in range(ncols)]
                 for _ in range(nrows)]))
        seen = set()
        for m in cases:
            calls.clear()
            basis = kernel_exact(m)
            rows = oracles.matrix_rows(m)
            nz = [j for j in range(m.cols) if any(r[j] for r in rows)]
            full = oracles.rank_mod_lists([[r[j] % p for j in nz] for r in rows], p) == len(nz)
            assert (len(calls) == 0) == full, rows
            seen.add(full)
            want = tuple(tuple(x / next(y for y in v if y) for x in v)
                         for v in oracles.rref_rank_kernel(rows, m.cols)[1])
            assert oracles.dense_kernel(basis) == want, rows
        assert seen == {False, True}

    def test_vectors_have_a_positive_lead(self):
        # a vector is its primitive integer terms; printed over its lead
        assert KernelBasis(3, (((0, 2), (2, -1)),)).to_obj()["vectors"] == [["1", "0", "-1/2"]]
        for terms in (((0, -2), (2, 1)), ((1, 0),)):
            with pytest.raises(ValueError):
                KernelBasis(3, (terms,))

    def test_basis_vectors_independent(self):
        k = kernel_exact(IntMatrix.from_rows([[1, 2, 3, 4], [0, 0, 1, 1]]))
        stack = IntMatrix.from_rows(oracles.int_rows(oracles.dense_kernel(k)))
        assert rank_exact(stack) == k.dim


class TestDetExact:
    """The cofactor determinant of tests/oracles.py, from which the
    corner-block tests (criterion 3, test_construction) take theirs."""

    def test_identity(self):
        assert oracles.laplace_det(oracles.matrix_rows(identity(3))) == 1

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
            assert (rank_exact(IntMatrix.from_rows(oracles.int_rows(rows))) == 4) == (det != 0)
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
        assert rank_exact(IntMatrix.from_rows(oracles.int_rows(v))) == 3


class TestRankNumeric:
    def test_identity(self):
        assert rank_numeric(to_complex(identity(4)), 1e-10) == 4

    def test_zero(self):
        assert rank_numeric(to_complex(zero(3, 3)), 1e-10) == 0

    def test_agrees_with_exact_on_fixture(self, fixture_a):
        prob = oracles.problem(fixture_a)
        grads = restricted_gradient(prob.f, fixture_a.c0)
        jac = jacobian_coefficient_form(prob, fixture_a.c0, grads)
        cm = to_complex(jac)
        assert rank_numeric(cm, 1e-8) == rank_exact(jac) == 6
        # the fixture satisfies the stated margin: smallest nonzero singular
        # value well above 10 * tol * largest, by numpy's SVD as the reference
        ref = numpy.linalg.svd(numpy.array(cm), compute_uv=False)
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
            cm = a.tolist()
            assert rank_numeric(cm, 1e-8) == r
            ref = numpy.linalg.svd(a, compute_uv=False)
            s = _singular_values(cm)
            unit = ref[0] / s[0]
            assert max(abs(x * unit - y) for x, y in zip(s, ref)) <= 1e-13 * ref[0]

    def test_extreme_magnitudes(self):
        # squared norms of these entries leave the float range unless the
        # matrix is scaled first
        for big in (1e300, 1e-300, 5e-324):
            cm = [[complex(big), big * 1j, 0j], [complex(big), complex(2 * big), complex(big)]]
            assert rank_numeric(cm, 1e-8) == 2
            assert rank_numeric([[complex(big)] * 2] * 2, 1e-8) == 1

    def test_tiny_columns_beside_a_large_one(self):
        # scaled by the largest entry, the last two columns' squared norms
        # underflow to 0: the reflector then divided by norm * (norm + |x0|)
        rows = [[complex(x) for x in row]
                for row in ([1, 1e-170, 3e-170j], [1j, 2e-170, 1e-170], [2, 5e-170, 1e-170])]
        assert rank_numeric(rows, 1e-8) == 1
        s = numpy.linalg.svd(numpy.array(rows), compute_uv=False)
        # _singular_values scales the matrix by 2**-2, its largest part being 2
        got = _singular_values(rows)
        assert abs(got[0] * 4 - s[0]) <= 1e-13 * s[0]

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            rank_numeric(to_complex(identity(2)), -1.0)

    def test_rejects_non_finite(self):
        cm = [[complex("inf"), 0j], [0j, 1 + 0j]]
        with pytest.raises(ValueError):
            rank_numeric(cm, 1e-8)


class TestMatrixJson:
    def test_round_trip(self, jacobian_command):
        # the `jacobian` document writes den times the Jacobian over den, each
        # entry once: f = z0^2/2 - 3 z0 z1 + 7/5 z1^2 on the line (1, t) has
        # the gradient (1 - 3t, -3 + 14/5 t), den 5
        f = MultiPoly(2, {(2, 0): F(1, 2), (1, 1): -3, (0, 2): F(7, 5)})
        prob, line = IncidenceProblem(1, 1, 2, f), CurveParam.from_rationals(1, 1, ([1], [0, 1]))
        assert restricted_gradient(f, line)[0] == 5
        labels = ["c0[t^0]", "c0[t^1]", "c1[t^0]", "c1[t^1]"]
        coeff = jacobian_command(prob, line)
        assert coeff["matrix"] == {"rows": 3, "cols": 4, "entries": [
            ["1", "0", "-3", "0"], ["-3", "1", "14/5", "-3"], ["0", "-3", "0", "14/5"]]}
        assert (coeff["row_labels"], coeff["col_labels"]) == (["k0", "k1", "k2"], labels)
        evaluation = jacobian_command(prob, line, "--form", "eval", "--points=0,1,-1/2")
        assert evaluation["matrix"] == {"rows": 3, "cols": 4, "entries": [
            ["1", "0", "-3", "0"], ["-2", "-2", "-1/5", "-1/5"], ["5/2", "-5/4", "-22/5", "11/5"]]}
        assert evaluation["row_labels"] == ["t=0", "t=1", "t=-1/2"]
        assert (evaluation["col_labels"], evaluation["points"]) == (labels, ["0", "1", "-1/2"])


def test_matmul_and_matvec():
    # the product of tests/oracles.py, and the package's matvec
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert oracles.matmul(oracles.matrix_rows(a), [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]
    assert a.matvec([1, 1]) == (3, 7)
    assert a.matvec([F(1, 2), F(1)]) == (F(5, 2), F(11, 2))


def test_format_rational_beyond_the_int_str_cap(monkeypatch):
    # numerator and denominator both above the interpreter's 4300-digit cap
    # on int-to-str: after one gcd each part is written as str(Decimal(part))
    # writes it; below the cap the decimal module is not imported
    num, den = -(7**6000) * 6, 11**5000 * 4
    assert min(len(str(Decimal(x))) for x in (num, den)) > 4300 == sys.get_int_max_str_digits()
    text = linalg.format_rational(num, den)
    assert text == f"{Decimal(-(7**6000) * 3)}/{Decimal(11**5000 * 2)}"
    assert linalg.format_rational(num * den, den) == str(Decimal(num))
    monkeypatch.setitem(sys.modules, "decimal", None)  # an import of decimal fails
    assert [linalg.format_rational(*x) for x in ((-6, 4), (10**4000, 1), (0, 7), (5, 1))] == [
        "-3/2", str(10**4000), "0", "5"]
    with pytest.raises(ImportError):
        linalg.format_rational(num, den)
