import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from curvejac import poly
from curvejac.errors import DimensionError
from curvejac.incidence import (
    CurveParam,
    IncidenceProblem,
    jacobian_coefficient_form,
    jacobian_evaluation_form,
    membership_checks,
    quintics_through_curve,
    random_member,
    restricted_gradient,
    symmetry_kernel_vectors,
    theta_labels,
    vanishes_on_curve,
)
from curvejac.linalg import KernelBasis, RationalMatrix, format_rational, kernel_exact, rank_exact
from curvejac.poly import MultiPoly, UniPoly, monomial_basis, restrict_to_curve

import oracles
import propcheck


def line_curve():
    return CurveParam(
        4, 1,
        (UniPoly.of(1), UniPoly.of(0, 1), UniPoly.zero(), UniPoly.zero(), UniPoly.zero()),
    )


def z4_problem(d=1):
    return IncidenceProblem(4, d, 1, MultiPoly.monomial((0, 0, 0, 0, 1)))


def lies_on(prob, c):
    """Whether f(c(t)) = 0, from the restricted gradient by Euler's identity,
    as the `jacobian` command decides it."""
    return vanishes_on_curve(restricted_gradient(prob.f, c), c, prob.e)


class TestCoefficientsK:
    # the incidence equations: the e*d+1 coefficients of f(c(t))
    def test_z4_on_line(self):
        assert propcheck.incidence_equations(z4_problem(), line_curve()) == (F(0), F(0))

    def test_fermat_on_line(self, fermat_quintic):
        prob = IncidenceProblem(4, 1, 5, fermat_quintic)
        assert propcheck.incidence_equations(prob, line_curve()) == (F(1), 0, 0, 0, 0, F(1))

    def test_fixture_vanishes(self, fixture_a):
        assert propcheck.incidence_equations(fixture_a.problem, fixture_a.c0) == (0,) * 6

    def test_length_is_ed_plus_one(self):
        rng = random.Random(1)
        for _ in range(10):
            n, d, e = rng.choice((2, 3)), rng.choice((1, 2)), rng.choice((1, 2, 3))
            prob = IncidenceProblem(n, d, e, propcheck.random_homogeneous(rng, n + 1, e))
            c = propcheck.random_curve(rng, n, d)
            assert restrict_to_curve([prob.f], c.components)[0].degree <= e * d


class TestLiesOn:
    def test_fixture(self, fixture_a):
        assert lies_on(fixture_a.problem, fixture_a.c0)

    def test_fermat_line(self, fermat_quintic):
        assert not lies_on(IncidenceProblem(4, 1, 5, fermat_quintic), line_curve())


class TestMembership:
    def test_line_passes(self):
        assert membership_checks(line_curve()).all_pass

    def test_common_factor_fails(self):
        c = CurveParam(
            4, 1,
            (UniPoly.of(0, 1), UniPoly.of(0, 1), UniPoly.zero(), UniPoly.zero(), UniPoly.zero()),
        )
        rep = membership_checks(c)
        assert not rep.base_point_free
        assert rep.attains_degree

    def test_degree_not_attained(self):
        c = CurveParam(
            4, 3,
            (UniPoly.of(1), UniPoly.of(0, 1), UniPoly.of(0, 0, 1), UniPoly.zero(), UniPoly.zero()),
        )
        rep = membership_checks(c)
        assert not rep.attains_degree
        assert rep.base_point_free and rep.nonconstant


class TestJacobianCoefficientForm:
    def test_z4_identity_block(self):
        grads = restricted_gradient(z4_problem().f, line_curve())
        jac = jacobian_coefficient_form(z4_problem(), line_curve(), grads)
        m = jac.matrix
        assert (m.rows, m.cols) == (2, 10)
        labels = theta_labels(4, 1)
        for j in range(2):
            for col in range(10):
                expected = 1 if labels[col] == f"c4[t^{j}]" else 0
                assert m.entry(j, col) == expected
        assert rank_exact(m) == 2

    def test_fixture_a_rank_and_kernel(self, fixture_a):
        grads = restricted_gradient(fixture_a.problem.f, fixture_a.c0)
        jac = jacobian_coefficient_form(fixture_a.problem, fixture_a.c0, grads)
        assert rank_exact(jac.matrix) == 6
        kernel = kernel_exact(jac.matrix)
        assert kernel.dim == 4
        sym = symmetry_kernel_vectors(fixture_a.c0)
        stacked = RationalMatrix.from_rows([list(v) for v in oracles.dense_kernel(kernel)] + sym)
        assert rank_exact(stacked) == 4

    def test_integer_matrix_is_den_times_the_jacobian(self):
        # fractional coefficients in f and in the curve: the matrix is in
        # ints, den times the schoolbook Fraction block, and to_obj writes
        # the Jacobian itself
        rng = random.Random(32)
        for _ in range(10):
            n, d, e = 3, rng.randint(1, 3), rng.randint(1, 3)
            f = propcheck.random_homogeneous(rng, n + 1, e)
            c = propcheck.random_curve(rng, n, d)
            grads = restricted_gradient(f, c)
            jac = jacobian_coefficient_form(IncidenceProblem(n, d, e, f), c, grads)
            want = oracles.toeplitz_rows(grads, d, e * d + 1)
            assert all(type(x) is int for x in jac.matrix.entries)
            assert jac.matrix.to_rows() == [[jac.den * x for x in row] for row in want]
            entries = jac.to_obj()["matrix"]["entries"]
            assert entries == [[format_rational(x) for x in row] for row in want]

    def test_linearity_in_f(self):
        rng = random.Random(31)
        for _ in range(10):
            n, d, e = 3, 1, 2
            f = propcheck.random_homogeneous(rng, n + 1, e)
            g = propcheck.random_homogeneous(rng, n + 1, e)
            c = propcheck.random_curve(rng, n, d)
            a, b = F(3, 2), F(-5)
            combo = f.scale(a) + g.scale(b)
            if combo.is_zero:
                continue
            m_combo, m_f, m_g = (
                oracles.jacobian_rows(jacobian_coefficient_form(
                    IncidenceProblem(n, d, e, h), c, restricted_gradient(h, c)))
                for h in (combo, f, g))
            for i, row in enumerate(m_combo):
                for j, x in enumerate(row):
                    assert x == a * m_f[i][j] + b * m_g[i][j]


class TestJacobianEvaluationForm:
    def test_z4_rows(self):
        grads = restricted_gradient(z4_problem().f, line_curve())
        jac = jacobian_evaluation_form(z4_problem(), line_curve(), [F(0), F(1)], grads)
        m = jac.matrix
        labels = theta_labels(4, 1)
        z4_cols = [labels.index("c4[t^0]"), labels.index("c4[t^1]")]
        assert [m.entry(0, c) for c in z4_cols] == [1, 0]
        assert [m.entry(1, c) for c in z4_cols] == [1, 1]
        for col in range(10):
            if col not in z4_cols:
                assert m.entry(0, col) == 0 and m.entry(1, col) == 0

    def test_vandermonde_factorization(self, fixture_a):
        points = [F(-1, 2), F(1), F(2), F(3), F(5), F(7)]
        grads = restricted_gradient(fixture_a.problem.f, fixture_a.c0)
        j_eval = jacobian_evaluation_form(fixture_a.problem, fixture_a.c0, points, grads)
        j_coeff = jacobian_coefficient_form(fixture_a.problem, fixture_a.c0, grads)
        v = oracles.vandermonde(points, 6)
        assert oracles.matmul(v, oracles.jacobian_rows(j_coeff)) == j_eval.matrix.to_rows()
        assert rank_exact(j_eval.matrix) == rank_exact(j_coeff.matrix) == 6

    def test_vandermonde_factorization_random_points(self, fixture_b):
        rng = random.Random(17)
        grads = restricted_gradient(fixture_b.problem.f, fixture_b.c0)
        j_coeff = jacobian_coefficient_form(fixture_b.problem, fixture_b.c0, grads)
        for _ in range(3):
            points = []
            while len(points) < 11:
                t = F(rng.randint(-12, 12), rng.randint(1, 5))
                if t not in points:
                    points.append(t)
            j_eval = jacobian_evaluation_form(fixture_b.problem, fixture_b.c0, points, grads)
            v = oracles.vandermonde(points, 11)
            assert oracles.matmul(v, oracles.jacobian_rows(j_coeff)) == j_eval.matrix.to_rows()

    def test_rejects_wrong_point_count(self, fixture_a):
        grads = restricted_gradient(fixture_a.problem.f, fixture_a.c0)
        with pytest.raises(DimensionError):
            jacobian_evaluation_form(fixture_a.problem, fixture_a.c0, [F(0)], grads)

    def test_rejects_repeated_points(self, fixture_a):
        grads = restricted_gradient(fixture_a.problem.f, fixture_a.c0)
        with pytest.raises(ValueError):
            jacobian_evaluation_form(
                fixture_a.problem, fixture_a.c0, [F(0), F(0), F(1), F(2), F(3), F(4)], grads
            )


class TestTangentDim:
    # the tangent dimension and its formal flag, as the `jacobian` command reports them
    def test_z4_toy(self, jacobian_command):
        out = jacobian_command(z4_problem(), line_curve())
        assert (out["tangent_dim"], out["formal"]) == (8, False)

    def test_fixture_a(self, fixture_a, jacobian_command):
        out = jacobian_command(fixture_a.problem, fixture_a.c0)
        assert (out["tangent_dim"], out["formal"]) == (4, False)

    def test_fixture_b(self, fixture_b, jacobian_command):
        out = jacobian_command(fixture_b.problem, fixture_b.c0)
        assert (out["tangent_dim"], out["formal"]) == (4, False)

    def test_off_scheme_is_formal(self, fermat_quintic, jacobian_command):
        out = jacobian_command(IncidenceProblem(4, 1, 5, fermat_quintic), line_curve())
        assert out["formal"]


class TestSymmetryVectors:
    def test_line_vectors_explicit(self):
        vs = symmetry_kernel_vectors(line_curve())
        # theta layout: (c0 t^0, c0 t^1, c1 t^0, c1 t^1, ..., c4 t^1)
        as_curves = [propcheck.curve_from_theta(4, 1, v) for v in vs]
        expect = [
            (UniPoly.of(0), UniPoly.of(1)),
            (UniPoly.of(0), UniPoly.of(0, 1)),
            (UniPoly.of(0, -1), UniPoly.of(0)),
            (UniPoly.of(1), UniPoly.of(0, 1)),
        ]
        for curve, (e0, e1) in zip(as_curves, expect):
            assert curve.components[0] == e0
            assert curve.components[1] == e1
            assert all(c.is_zero for c in curve.components[2:])

    def test_annihilated_by_jacobian(self, fixture_a, fixture_b):
        for fix in (fixture_a, fixture_b):
            grads = restricted_gradient(fix.problem.f, fix.c0)
            jac = jacobian_coefficient_form(fix.problem, fix.c0, grads)
            for v in symmetry_kernel_vectors(fix.c0):
                assert all(x == 0 for x in jac.matrix.matvec(v))

    def test_independent_for_membership_curves(self):
        rng = random.Random(41)
        count = 0
        while count < 20:
            c = propcheck.random_curve(rng, rng.choice((2, 3, 4)), rng.choice((1, 2)))
            if not membership_checks(c).all_pass:
                continue
            count += 1
            vs = symmetry_kernel_vectors(c)
            assert rank_exact(RationalMatrix.from_rows(vs)) == 4


class TestThroughCurve:
    def test_hyperplanes_through_line(self):
        basis = quintics_through_curve(4, 1, line_curve())
        assert basis.dim == 3
        mons = monomial_basis(5, 1)
        spanned = {mons[i] for v in oracles.dense_kernel(basis) for i, x in enumerate(v) if x != 0}
        assert spanned == {(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)}

    def test_quintics_through_line(self, fixture_a):
        basis = quintics_through_curve(4, 5, fixture_a.c0)
        assert basis.ambient_dim == 126
        assert basis.dim == 120

    def test_fixture_f0_in_span(self, fixture_a):
        basis = quintics_through_curve(4, 5, fixture_a.c0)
        mons = monomial_basis(5, 5)
        f0_vec = [fixture_a.f0.terms.get(m, F(0)) for m in mons]
        stack = RationalMatrix.from_rows([list(v) for v in oracles.dense_kernel(basis)] + [f0_vec])
        assert rank_exact(stack) == basis.dim

    def test_rank_plus_dim_is_monomial_count(self, fixture_b):
        basis = quintics_through_curve(4, 5, fixture_b.c0)
        assert basis.dim == 115  # 126 - 11, constraints independent


class TestRandomMember:
    def test_deterministic(self):
        basis = quintics_through_curve(4, 1, line_curve())
        a = random_member(basis, 0, 5, 1)
        b = random_member(basis, 0, 5, 1)
        assert a == b

    def test_seeds_differ(self):
        basis = quintics_through_curve(4, 1, line_curve())
        assert random_member(basis, 0, 5, 1) != random_member(basis, 1, 5, 1)

    def test_member_lies_on_curve(self, fixture_a):
        basis = quintics_through_curve(4, 5, fixture_a.c0)
        for seed in range(5):
            g = random_member(basis, seed, 5, 5)
            assert restrict_to_curve([g], fixture_a.c0.components)[0].is_zero

    def test_rejects_empty_basis(self):
        with pytest.raises(ValueError):
            random_member(KernelBasis(5, ()), 0, 5, 1)

    def test_equals_dense_reference(self, fixture_b):
        # members summed in integers over the lcm of the vectors' denominators
        # are the dense Fraction sums, term for term, and the sparse basis
        # prints as the dense one; d2x30 has 30-digit fractions
        data = Path(__file__).parent / "data"
        curves = [fixture_b.c0] + [CurveParam.from_obj(json.loads((data / name).read_text()))
                                   for name in ("curve-d2x30.json", "curve-d3.json")]
        rng = random.Random(23)
        bases = [(quintics_through_curve(4, 5, c), 5, 5) for c in curves] + [
            (kernel_exact(propcheck.random_matrix(rng, rng.randint(1, 5), 10)), 3, 3)
            for _ in range(20)]
        bases.append((KernelBasis(3, ((2, ((0, 2), (2, 1))), (3, ((1, 3), (2, -2))))), 3, 1))
        spread = [len({den for den, _ in basis.vectors}) for basis, _, _ in bases]
        assert spread[0] == 1 and min(spread[1:]) > 1  # B's basis is integral
        for basis, num_vars, degree in bases:
            dense = oracles.dense_kernel(basis)
            assert basis.to_obj()["vectors"] == [[format_rational(x) for x in v] for v in dense]
            mons = monomial_basis(num_vars, degree)
            for seed in range(3):
                member = random_member(basis, seed, num_vars, degree)
                assert member.terms == oracles.dense_random_member(dense, seed, mons)


class TestRestrictionTable:
    def test_one_product_per_power_and_monomial(self, monkeypatch):
        path = Path(__file__).parent / "data" / "curve-d3.json"
        curve = CurveParam.from_obj(json.loads(path.read_text()))
        member = random_member(quintics_through_curve(4, 5, curve), 100, 5, 5)
        exps = {e for m in range(5) for e in member.partial_derivative(m).terms}
        # One table serves all partials.  It builds components[m] ** k (k >= 2)
        # from the power below, and the restriction of each monomial with two
        # or more variables from the one without its last variable; those
        # monomials are the leading parts of the exponents.
        powers = {(m, k) for e in exps for m, top in enumerate(e) for k in range(2, top + 1)}
        monomials = set()
        for e in exps:
            used = [m for m, k in enumerate(e) if k]
            for last in used[1:]:
                monomials.add(e[: last + 1] + (0,) * (len(e) - last - 1))
        products = 0
        mul = poly._int_mul

        def counting_mul(a, b):
            nonlocal products
            products += 1
            return mul(a, b)

        monkeypatch.setattr(poly, "_int_mul", counting_mul)
        restricted_gradient(member, curve)
        assert 0 < products <= len(powers) + len(monomials)


class TestRankInvariance:
    def test_under_f_scaling(self, fixture_a):
        f2 = fixture_a.f0.scale(F(-7, 3))
        prob = IncidenceProblem(4, 1, 5, f2)
        grads = restricted_gradient(prob.f, fixture_a.c0)
        assert rank_exact(jacobian_coefficient_form(prob, fixture_a.c0, grads).matrix) == 6

    def test_under_reparametrization(self, fixture_a):
        # t -> a t + b moves each component through substitution
        rng = random.Random(8)
        for _ in range(5):
            a = F(rng.choice([1, 2, 3, -1, -2]))
            b = F(rng.randint(-3, 3))
            sub = UniPoly.of(b, a)
            comps = []
            for comp in fixture_a.c0.components:
                acc = UniPoly.zero()
                for i, coef in enumerate(comp.coeffs):
                    term = UniPoly.one().scale(coef)
                    for _ in range(i):
                        term = term * sub
                    acc = acc + term
                comps.append(acc)
            moved = CurveParam(4, 1, tuple(comps))
            grads = restricted_gradient(fixture_a.problem.f, moved)
            jac = jacobian_coefficient_form(fixture_a.problem, moved, grads)
            assert rank_exact(jac.matrix) == 6


def test_taylor_first_order_small():
    propcheck.taylor_chain_rule_suite(seed=100, draws=15)


def test_curve_and_problem_json_round_trip(fixture_b):
    c = fixture_b.c0
    assert CurveParam.from_obj(c.to_obj()) == c
    prob = fixture_b.problem
    back = IncidenceProblem.from_obj(prob.to_obj())
    assert (back.n, back.d, back.e) == (prob.n, prob.d, prob.e)
    assert back.f == prob.f


def test_theta_round_trip():
    # the coordinates of the Taylor suite follow the Jacobian's columns
    rng = random.Random(55)
    for _ in range(10):
        c = propcheck.random_curve(rng, rng.choice((2, 3, 4)), rng.choice((1, 2)))
        coords = propcheck.theta(c)
        assert propcheck.curve_from_theta(c.n, c.d, coords) == c
        for label, x in zip(theta_labels(c.n, c.d), coords, strict=True):
            m, i = map(int, label[1:-1].split("[t^"))
            assert x == c.components[m].coefficient(i)


def test_problem_curve_mismatch_rejected(fixture_a):
    bad = CurveParam(3, 1, (UniPoly.of(1), UniPoly.of(0, 1), UniPoly.zero(), UniPoly.zero()))
    grads = restricted_gradient(fixture_a.problem.f, fixture_a.c0)
    with pytest.raises(DimensionError):
        jacobian_coefficient_form(fixture_a.problem, bad, grads)
