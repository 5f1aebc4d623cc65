import copy
import json
import math
import pickle
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from curvejac import poly
from curvejac.construction import Fixture
from curvejac.errors import DimensionError, InputError
from curvejac.incidence import (
    CurveParam,
    IncidenceProblem,
    _complex,
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
from curvejac.linalg import (_PRIMES, IntMatrix, KernelBasis, format_rational, kernel_exact,
                             rank_exact)
from curvejac.poly import MultiPoly, _curve_monomials, monomial_basis, restrict_to_curve

import oracles
import propcheck


def line_curve():
    return CurveParam.from_rationals(4, 1, ([1], [0, 1], [], [], []))


def forms_through(n, e, c):
    return quintics_through_curve(c, monomial_basis(n + 1, e), _curve_monomials(c.components))


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
        assert propcheck.incidence_equations(oracles.problem(fixture_a), fixture_a.c0) == (0,) * 6

    def test_length_is_ed_plus_one(self):
        rng = random.Random(1)
        for _ in range(10):
            n, d, e = rng.choice((2, 3)), rng.choice((1, 2)), rng.choice((1, 2, 3))
            prob = IncidenceProblem(n, d, e, propcheck.random_homogeneous(rng, n + 1, e))
            c = propcheck.random_curve(rng, n, d)
            (_, lists), = restrict_to_curve([[prob.f]], _curve_monomials(c.components))
            assert len(lists[0]) <= e * d + 1


class TestLiesOn:
    def test_fixture(self, fixture_a):
        assert lies_on(oracles.problem(fixture_a), fixture_a.c0)

    def test_fermat_line(self, fermat_quintic):
        assert not lies_on(IncidenceProblem(4, 1, 5, fermat_quintic), line_curve())


class TestMembership:
    def test_line_passes(self):
        assert membership_checks(line_curve())["all_pass"]

    def test_common_factor_fails(self):
        c = CurveParam.from_rationals(4, 1, ([0, 1], [0, 1], [], [], []))
        rep = membership_checks(c)
        assert not rep["base_point_free"]
        assert rep["attains_degree"]

    def test_degree_not_attained(self):
        c = CurveParam.from_rationals(4, 3, ([1], [0, 1], [0, 0, 1], [], []))
        rep = membership_checks(c)
        assert not rep["attains_degree"]
        assert rep["base_point_free"] and rep["nonconstant"]

    def test_fractional_curves_decided_mod_a_prime(self, no_euclid):
        # 20-digit fractions at n=4, d=16 and 2000-digit fractions at the
        # input limit n=8, d=32: Euclid over Q, refused here, takes seconds
        # on the first and does not end on the second
        curves = [propcheck.fractional_curve(d, n, d, digits)
                  for n, d, digits in ((4, 16, 20), (8, 32, 2000))]
        # _PRIMES[0] divides a denominator of component 1, so its least
        # denominator and its integer lead over it: the next prime decides
        comps = oracles.components(curves[0])
        comps[1] = [F(1, _PRIMES[0])] + comps[1][1:]
        curves.append(CurveParam.from_rationals(4, 16, comps))
        assert curves[-1].components[1][1][-1] % _PRIMES[0] == 0
        for c in curves:
            assert membership_checks(c)["all_pass"]
        # a common factor t - 1/3, lifted from its image mod p
        low = propcheck.fractional_curve(15, 4, 15, 20)
        factor = [F(-1, 3), 1]
        comps = [propcheck.unipoly_product(comp, factor)
                 for comp in oracles.components(low)]
        rep = membership_checks(CurveParam.from_rationals(4, 16, comps))
        assert rep["attains_degree"] and not rep["base_point_free"]


class TestJacobianCoefficientForm:
    def test_z4_identity_block(self):
        grads = restricted_gradient(z4_problem().f, line_curve())
        m = jacobian_coefficient_form(z4_problem(), line_curve(), grads)
        assert (m.rows, m.cols) == (2, 10)
        labels, rows = theta_labels(4, 1), oracles.matrix_rows(m)
        for j in range(2):
            for col in range(10):
                expected = 1 if labels[col] == f"c4[t^{j}]" else 0
                assert rows[j][col] == expected
        assert rank_exact(m) == 2

    def test_fixture_a_rank_and_kernel(self, fixture_a):
        prob = oracles.problem(fixture_a)
        grads = restricted_gradient(prob.f, fixture_a.c0)
        jac = jacobian_coefficient_form(prob, fixture_a.c0, grads)
        assert rank_exact(jac) == 6
        kernel = kernel_exact(jac)
        assert kernel.dim == 4
        sym = symmetry_kernel_vectors(fixture_a.c0)
        stacked = IntMatrix.from_rows(oracles.int_rows(oracles.dense_kernel(kernel)) + sym)
        assert rank_exact(stacked) == 4

    def test_integer_matrix_is_den_times_the_jacobian(self, jacobian_command):
        # fractional coefficients in f and in the curve: the matrix is in
        # ints, den times the schoolbook Fraction block, and the `jacobian`
        # command writes the Jacobian itself
        rng = random.Random(32)
        for _ in range(10):
            n, d, e = 3, rng.randint(1, 3), rng.randint(1, 3)
            f = propcheck.random_homogeneous(rng, n + 1, e)
            c = propcheck.random_curve(rng, n, d)
            grads = restricted_gradient(f, c)
            prob = IncidenceProblem(n, d, e, f)
            jac = jacobian_coefficient_form(prob, c, grads)
            want = oracles.toeplitz_rows(oracles.unipolys(grads), d, e * d + 1)
            assert all(type(x) is int for x in jac.entries)
            assert oracles.matrix_rows(jac) == [[grads[0] * x for x in row] for row in want]
            entries = jacobian_command(prob, c)["matrix"]["entries"]
            assert entries == [[format_rational(x.numerator, x.denominator) for x in row] for row in want]

    def test_linearity_in_f(self):
        rng = random.Random(31)
        for _ in range(10):
            n, d, e = 3, 1, 2
            f = propcheck.random_homogeneous(rng, n + 1, e)
            g = propcheck.random_homogeneous(rng, n + 1, e)
            c = propcheck.random_curve(rng, n, d)
            a, b = F(3, 2), F(-5)
            combo = propcheck.scaled_form(f, a) + propcheck.scaled_form(g, b)
            if combo.is_zero:
                continue
            m_combo, m_f, m_g = (
                oracles.jacobian_rows(jacobian_coefficient_form(
                    IncidenceProblem(n, d, e, h), c, grads), grads[0])
                for h in (combo, f, g) for grads in [restricted_gradient(h, c)])
            for i, row in enumerate(m_combo):
                for j, x in enumerate(row):
                    assert x == a * m_f[i][j] + b * m_g[i][j]


class TestJacobianEvaluationForm:
    def test_z4_rows(self):
        grads = restricted_gradient(z4_problem().f, line_curve())
        rows, _ = jacobian_evaluation_form(z4_problem(), line_curve(), [(0, 1), (1, 1)], grads)
        rows = oracles.jacobian_rows(rows, grads[0])
        labels = theta_labels(4, 1)
        z4_cols = [labels.index("c4[t^0]"), labels.index("c4[t^1]")]
        assert [rows[0][c] for c in z4_cols] == [1, 0]
        assert [rows[1][c] for c in z4_cols] == [1, 1]
        for col in range(10):
            if col not in z4_cols:
                assert rows[0][col] == 0 and rows[1][col] == 0

    def test_vandermonde_factorization(self, fixture_a):
        points = [F(-1, 2), F(1), F(2), F(3), F(5), F(7)]
        pairs = [oracles.as_pair(t) for t in points]
        prob = oracles.problem(fixture_a)
        grads = restricted_gradient(prob.f, fixture_a.c0)
        j_eval, got = jacobian_evaluation_form(prob, fixture_a.c0, pairs, grads)
        assert got == pairs and all(type(x) is int for row in j_eval for x in row)
        j_coeff = jacobian_coefficient_form(prob, fixture_a.c0, grads)
        v = oracles.vandermonde(points, 6)
        assert (oracles.matmul(v, oracles.jacobian_rows(j_coeff, grads[0]))
                == oracles.evaluation_values(j_eval, grads, fixture_a.d, pairs))
        assert rank_exact(IntMatrix.from_rows(j_eval)) == rank_exact(j_coeff) == 6

    def test_integral_points_give_integer_rows(self, fixture_a):
        # at integral points (k, 1) the rows are exact integer rows, den * V
        # * J_coeff, the Vandermonde matrix times the coefficient form's
        # integer matrix: no point is taken for a complex one
        prob = oracles.problem(fixture_a)
        grads = restricted_gradient(prob.f, fixture_a.c0)
        pairs = [(k, 1) for k in range(6)]
        j_eval, got = jacobian_evaluation_form(prob, fixture_a.c0, pairs, grads)
        assert got == pairs
        assert all(type(x) is int for row in j_eval for x in row)
        j_coeff = oracles.jacobian_rows(jacobian_coefficient_form(prob, fixture_a.c0, grads),
                                        grads[0])
        v = oracles.vandermonde(range(6), 6)
        assert j_eval == [[grads[0] * x for x in row] for row in oracles.matmul(v, j_coeff)]

    def test_vandermonde_factorization_random_points(self, fixture_b):
        rng = random.Random(17)
        prob = oracles.problem(fixture_b)
        grads = restricted_gradient(prob.f, fixture_b.c0)
        j_coeff = jacobian_coefficient_form(prob, fixture_b.c0, grads)
        for _ in range(3):
            points = []
            while len(points) < 11:
                t = F(rng.randint(-12, 12), rng.randint(1, 5))
                if t not in points:
                    points.append(t)
            pairs = [oracles.as_pair(t) for t in points]
            j_eval, _ = jacobian_evaluation_form(prob, fixture_b.c0, pairs, grads)
            v = oracles.vandermonde(points, 11)
            assert (oracles.matmul(v, oracles.jacobian_rows(j_coeff, grads[0]))
                    == oracles.evaluation_values(j_eval, grads, fixture_b.d, pairs))

    def test_complex_rows_match_fraction_coefficients(self, jacobian_command):
        # at complex points the rows evaluate the floats x / den, each
        # correctly rounded as Fraction(x, den) is in complex arithmetic, so
        # every part the `jacobian` command prints equals that of the
        # Fraction-coefficient rows; fractional curves make den > 1
        rng = random.Random(23)
        dens = set()
        for _ in range(30):
            n, d, e = rng.choice((2, 3)), rng.randint(1, 3), rng.randint(1, 3)
            f = propcheck.random_homogeneous(rng, n + 1, e)
            c = propcheck.random_curve(rng, n, d)
            prob = IncidenceProblem(n, d, e, f)
            grads = restricted_gradient(f, c)
            points = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * 10.0 ** rng.randint(-3, 3)
                      for _ in range(prob.num_equations)]
            # each float part is written as its repr, which reads back exactly
            text = ",".join(f"{z.real!r}{z.imag:+}i" for z in points)
            out = jacobian_command(prob, c, "--form", "eval", f"--points={text}")
            got = out["matrix"]["entries"]
            want = oracles.fraction_complex_rows(grads, d, points)
            assert json.dumps(got) == json.dumps([[[float(z.real), float(z.imag)] for z in row]
                                                  for row in want])
            dens.add(grads[0])
        assert len(dens) > 1 and max(dens) > 1

    def test_rejects_wrong_point_count(self, fixture_a):
        prob = oracles.problem(fixture_a)
        grads = restricted_gradient(prob.f, fixture_a.c0)
        with pytest.raises(DimensionError):
            jacobian_evaluation_form(prob, fixture_a.c0, [(0, 1)], grads)

    def test_zero_gradient_at_a_fractional_point(self, jacobian_command):
        # a constant curve at a singular point of f: every partial restricts
        # to zero, so the exact row is zero and is written as "0" over any
        # power of the point's denominator
        prob = IncidenceProblem(1, 0, 2, MultiPoly(2, {(0, 2): 1}))
        curve = CurveParam.from_rationals(1, 0, ([1], []))
        assert restricted_gradient(prob.f, curve) == (1, [[], []])
        out = jacobian_command(prob, curve, "--form", "eval", "--points=1/2")
        assert (out["matrix"]["entries"], out["points"], out["rank"]) == ([["0", "0"]], ["1/2"], 0)

    def test_rejects_repeated_points(self, fixture_a):
        prob = oracles.problem(fixture_a)
        grads = restricted_gradient(prob.f, fixture_a.c0)
        with pytest.raises(ValueError):
            jacobian_evaluation_form(
                prob, fixture_a.c0, [(0, 1), (0, 1), (1, 1), (2, 1), (3, 1), (4, 1)], grads
            )


class TestTangentDim:
    # the tangent dimension and its formal flag, as the `jacobian` command reports them
    def test_z4_toy(self, jacobian_command):
        out = jacobian_command(z4_problem(), line_curve())
        assert (out["tangent_dim"], out["formal"]) == (8, False)

    def test_fixture_a(self, fixture_a, jacobian_command):
        out = jacobian_command(oracles.problem(fixture_a), fixture_a.c0)
        assert (out["tangent_dim"], out["formal"]) == (4, False)

    def test_fixture_b(self, fixture_b, jacobian_command):
        out = jacobian_command(oracles.problem(fixture_b), fixture_b.c0)
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
            ([], [1]),
            ([], [0, 1]),
            ([0, -1], []),
            ([1], [0, 1]),
        ]
        for curve, (e0, e1) in zip(as_curves, expect):
            comps = oracles.components(curve)
            assert comps[0] == e0
            assert comps[1] == e1
            assert all(c == [] for c in comps[2:])

    def test_annihilated_by_jacobian(self, fixture_a, fixture_b):
        for fix in (fixture_a, fixture_b):
            grads = restricted_gradient(oracles.problem(fix).f, fix.c0)
            jac = jacobian_coefficient_form(oracles.problem(fix), fix.c0, grads)
            for v in symmetry_kernel_vectors(fix.c0):
                assert all(x == 0 for x in jac.matvec(v))

    def test_independent_for_membership_curves(self):
        rng = random.Random(41)
        count = 0
        while count < 20:
            c = propcheck.random_curve(rng, rng.choice((2, 3, 4)), rng.choice((1, 2)))
            if not membership_checks(c)["all_pass"]:
                continue
            count += 1
            vs = symmetry_kernel_vectors(c)
            assert rank_exact(IntMatrix.from_rows(vs)) == 4


class TestThroughCurve:
    def test_hyperplanes_through_line(self):
        basis = forms_through(4, 1, line_curve())
        assert basis.dim == 3
        mons = monomial_basis(5, 1)
        spanned = {mons[i] for v in oracles.dense_kernel(basis) for i, x in enumerate(v) if x != 0}
        assert spanned == {(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)}

    def test_quintics_through_line(self, fixture_a):
        basis = forms_through(4, 5, fixture_a.c0)
        assert basis.ambient_dim == 126
        assert basis.dim == 120

    def test_fixture_f0_in_span(self, fixture_a):
        basis = forms_through(4, 5, fixture_a.c0)
        mons = monomial_basis(5, 5)
        f0_vec = [oracles.coefficients(oracles.f0(fixture_a)).get(m, F(0)) for m in mons]
        stack = IntMatrix.from_rows(oracles.int_rows([*oracles.dense_kernel(basis), f0_vec]))
        assert rank_exact(stack) == basis.dim

    def test_equals_fraction_reference(self):
        # fractional curves whose components have distinct denominators,
        # the matrix as tall as wide or wider, against Gauss-Jordan
        assert propcheck.through_kernel_suite(seed=2046, draws=12) == 12

    def test_rank_plus_dim_is_monomial_count(self, fixture_b):
        basis = forms_through(4, 5, fixture_b.c0)
        assert basis.dim == 115  # 126 - 11, constraints independent


class TestRandomMember:
    def test_deterministic(self):
        basis = forms_through(4, 1, line_curve())
        a = random_member(basis, 0, monomial_basis(5, 1))
        b = random_member(basis, 0, monomial_basis(5, 1))
        assert a == b

    def test_seeds_differ(self):
        basis = forms_through(4, 1, line_curve())
        mons = monomial_basis(5, 1)
        assert random_member(basis, 0, mons) != random_member(basis, 1, mons)

    def test_member_lies_on_curve(self, fixture_a):
        table = _curve_monomials(fixture_a.c0.components)
        basis = quintics_through_curve(fixture_a.c0, monomial_basis(5, 5), table)
        for seed in range(5):
            g = random_member(basis, seed, monomial_basis(5, 5))
            assert restrict_to_curve([[g]], table) == [(1, [[]])]

    def test_rejects_empty_basis(self):
        with pytest.raises(ValueError):
            random_member(KernelBasis(5, ()), 0, monomial_basis(5, 1))

    def test_equals_dense_reference(self, fixture_b):
        # members summed from the kept integer numerators are the sums of the
        # dense vectors brought to primitive integer form, term for term, and
        # the sparse basis prints as the dense one; d2x30 has 30-digit
        # fractions
        data = Path(__file__).parent / "data"
        curves = [fixture_b.c0] + [CurveParam.from_obj(json.loads((data / name).read_text()))
                                   for name in ("curve-d2x30.json", "curve-d3.json")]
        rng = random.Random(23)
        bases = [(forms_through(4, 5, c), 5, 5) for c in curves] + [
            (kernel_exact(propcheck.random_matrix(rng, rng.randint(1, 5), 10)), 3, 3)
            for _ in range(20)]
        bases.append((KernelBasis(3, (((0, 2), (2, 1)), ((1, 3), (2, -2)))), 3, 1))
        spread = [len({terms[0][1] for terms in basis.vectors}) for basis, _, _ in bases]
        assert spread[0] == 1 and min(spread[1:]) > 1  # B's basis is integral
        for basis, num_vars, degree in bases:
            dense = oracles.dense_kernel(basis)
            assert basis.to_obj()["vectors"] == [
                [format_rational(x.numerator, x.denominator) for x in v] for v in dense]
            mons = monomial_basis(num_vars, degree)
            for seed in range(3):
                member = random_member(basis, seed, mons)
                assert member.terms == oracles.dense_random_member(dense, seed, mons)


class TestRestrictionTable:
    def test_one_product_per_power_and_monomial(self, monkeypatch):
        path = Path(__file__).parent / "data" / "curve-d3.json"
        curve = CurveParam.from_obj(json.loads(path.read_text()))
        member = random_member(forms_through(4, 5, curve), 100, monomial_basis(5, 5))
        exps = {e for m in range(5) for e in member.partial_derivative(m).terms}
        zero = [m for m, (_, xs) in enumerate(curve.components) if not xs]
        # One table serves all partials, all quartics.  It packs each
        # component once at the quartics' slot, builds every power and
        # monomial as a product of packed integers, and unpacks each nonzero
        # entry once; no product packs and unpacks its factors (`_int_mul`).
        calls = {"_pack": 0, "_unpack": 0, "_int_mul": 0}

        def counting(name):
            fn = getattr(poly, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(poly, name, counting(name))
        restricted_gradient(member, curve)
        assert zero and calls == {"_pack": 5, "_int_mul": 0,
                                  "_unpack": sum(not any(e[m] for m in zero) for e in exps)}


class TestRankInvariance:
    def test_under_f_scaling(self, fixture_a):
        f2 = propcheck.scaled_form(oracles.f0(fixture_a), F(-7, 3))
        prob = IncidenceProblem(4, 1, 5, f2)
        grads = restricted_gradient(prob.f, fixture_a.c0)
        assert rank_exact(jacobian_coefficient_form(prob, fixture_a.c0, grads)) == 6

    def test_under_reparametrization(self, fixture_a):
        # t -> a t + b moves each component through substitution
        rng = random.Random(8)
        for _ in range(5):
            a = F(rng.choice([1, 2, 3, -1, -2]))
            b = F(rng.randint(-3, 3))
            sub = [b, a]
            comps = []
            for comp in oracles.components(fixture_a.c0):
                comps.append(oracles.linear_combination(
                    *((coef, propcheck.unipoly_product(*[sub] * i))
                      for i, coef in enumerate(comp))))
            moved = CurveParam.from_rationals(4, 1, comps)
            grads = restricted_gradient(oracles.problem(fixture_a).f, moved)
            jac = jacobian_coefficient_form(oracles.problem(fixture_a), moved, grads)
            assert rank_exact(jac) == 6


def test_taylor_first_order_small():
    propcheck.taylor_chain_rule_suite(seed=100, draws=15)


def test_curve_and_problem_json_round_trip(fixture_b):
    c = fixture_b.c0
    assert CurveParam.from_obj(c.to_obj()) == c
    prob = oracles.problem(fixture_b)
    back = IncidenceProblem.from_obj(prob.to_obj())
    assert (back.n, back.d, back.e) == (prob.n, prob.d, prob.e)
    assert back.f == prob.f


def test_curve_documents_round_trip():
    # every curve and fixture c0 under data/, among them curve-d2x30.json,
    # whose components have distinct 30-digit denominators, is written back
    # as it was read
    paths = sorted((Path(__file__).parent / "data").glob("*.json"))
    assert any(p.name == "curve-d2x30.json" for p in paths)
    for path in paths:
        obj = json.loads(path.read_text())
        obj = obj.get("c0", obj)
        assert CurveParam.from_obj(obj).to_obj() == obj, path.name


def test_parsed_components_are_least_integer_lists():
    # a pair (den, ints) per component: den least (its gcd with every entry
    # is 1), integer tuples without a trailing zero, a zero component (1, ())
    obj = {"n": 3, "d": 2, "components": [
        {"coeffs": ["1/6", "-3/4", "0"]}, {"coeffs": ["0", "0"]}, {"coeffs": []},
        {"coeffs": ["2/9", "0", "5/2"]}]}
    assert CurveParam.from_obj(obj).components == (
        (12, (2, -9)), (1, ()), (1, ()), (18, (4, 0, 45)))
    curves = [CurveParam.from_obj(obj)]
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        doc = json.loads(path.read_text())
        curves.append(CurveParam.from_obj(doc.get("c0", doc)))
    for c in curves:
        assert type(c.components) is tuple
        for den, xs in c.components:
            assert type(den) is int and den > 0 and math.gcd(den, *xs) == 1, c
            assert type(xs) is tuple and all(type(x) is int for x in xs)
            assert not xs or xs[-1], c
        assert hash(c) == hash(CurveParam.from_obj(c.to_obj()))


@pytest.mark.parametrize("pair", [(1, (1, 0)), (1, (0,)), (0, (1,)), (-1, (1,)),
                                  (1, [1]), (1, (1.0,)), (F(1), (1,)), (1, (True,))])
def test_malformed_components_rejected(pair):
    # a trailing zero would read a constant as degree 1, a denominator
    # below 1 or an entry that is not an int would break to_obj or equality
    with pytest.raises(InputError, match="without a trailing zero"):
        CurveParam(1, 1, ((1, (0, 1)), pair))


def test_components_keep_their_own_denominators():
    # at the input limits, n=8, d=32 with 2000-digit fractions, each
    # component is read over its own least denominator (about 66,000
    # digits), not over the curve's common one (about 600,000), whose gcds
    # took minutes: reading, membership and a restriction take seconds
    comps = propcheck.fractional_lists(32, 8, 32, 2000)
    doc = {"n": 8, "d": 32,
           "components": [{"coeffs": [format_rational(x.numerator, x.denominator) for x in cs]}
                          for cs in comps]}
    start = time.perf_counter()
    c = CurveParam.from_obj(doc)
    assert membership_checks(c)["all_pass"]
    z0 = MultiPoly.monomial((1,) + (0,) * 8)
    den, xs = c.components[0]
    assert restrict_to_curve([[z0]], _curve_monomials(c.components)) == [(den, [list(xs)])]
    assert time.perf_counter() - start < 20
    for (den, xs), cs in zip(c.components, comps, strict=True):
        assert den == math.lcm(*(x.denominator for x in cs))


def test_rational_points_become_correctly_rounded_floats():
    # in the complex field a rational point (a, b) is the float a / b,
    # rounded once, as float(Fraction(a, b)) is; rounding a to a float first
    # would move some of these points
    rng = random.Random(31)
    pairs = [(rng.randint(-2**80, 2**80), rng.randint(1, 2**70)) for _ in range(200)]
    assert [_complex(t) for t in pairs] == [complex(float(F(*t))) for t in pairs]
    assert any(float(a) / b != a / b for a, b in pairs)


def test_theta_round_trip():
    # the coordinates of the Taylor suite follow the Jacobian's columns
    rng = random.Random(55)
    for _ in range(10):
        c = propcheck.random_curve(rng, rng.choice((2, 3, 4)), rng.choice((1, 2)))
        coords = propcheck.theta(c)
        assert propcheck.curve_from_theta(c.n, c.d, coords) == c
        for label, x in zip(theta_labels(c.n, c.d), coords, strict=True):
            m, i = map(int, label[1:-1].split("[t^"))
            assert x == oracles.padded(oracles.components(c)[m], c.d + 1)[i]


def test_problem_curve_mismatch_rejected(fixture_a):
    bad = CurveParam.from_rationals(3, 1, ([1], [0, 1], [], []))
    grads = restricted_gradient(oracles.problem(fixture_a).f, fixture_a.c0)
    with pytest.raises(DimensionError):
        jacobian_coefficient_form(oracles.problem(fixture_a), bad, grads)


def test_records_are_immutable_values(fixture_a):
    # Each record: its class and fields; a field; a record that differs;
    # whether it hashes (a MultiPoly field does not); fields that its
    # validation refuses, and with what.
    fa, z4 = fixture_a, MultiPoly.monomial((0, 0, 0, 0, 1))
    line = ((1, (1,)), (1, (0, 1)), (1, ()), (1, ()), (1, ()))
    cases = [
        (IntMatrix, (2, 2, (1, 2, 3, 4)), "rows", IntMatrix(2, 2, (1, 2, 3, 5)), True,
         (2, 2, (1, 2, 3)), DimensionError),
        (IntMatrix, (1, 1, (7,)), "entries", IntMatrix(1, 1, (8,)), True,
         (1, 1, (F(1, 2),)), TypeError),
        (KernelBasis, (3, (((0, 2), (2, 1)),)), "vectors", KernelBasis(3, ()), True,
         (1, (((1, 1),),)), ValueError),
        (CurveParam, (4, 1, line), "components", CurveParam(4, 2, line), True,
         (4, 1, line[:1]), InputError),
        (IncidenceProblem, (4, 1, 1, z4), "f", IncidenceProblem(4, 2, 1, z4), False,
         (3, 1, 1, z4), DimensionError),
        (Fixture, (fa.name, fa.q, fa.l, fa.p, fa.c0, fa.d), "q",
         Fixture("B", fa.q, fa.l, fa.p, fa.c0, fa.d), False,
         (fa.name, fa.q, fa.l, fa.p, fa.c0, 2), InputError),
    ]
    for cls, fields, field, other, hashes, refused, error in cases:
        a, b = cls(*fields), cls(*fields)
        assert a == b and a is not b and a != other and a != fields
        if hashes:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == b
        with pytest.raises(error):
            cls(*refused)
        with pytest.raises(TypeError):
            cls(*fields[1:])
    assert repr(IntMatrix(1, 2, (3, 4))) == "IntMatrix(rows=1, cols=2, entries=(3, 4))"
    # the derived restriction of a fixture is left out of equality and repr
    fix = Fixture(fa.name, fa.q, fa.l, fa.p, fa.c0, fa.d)
    object.__setattr__(fix, "restricted", None)
    assert fix == fa and repr(fix) == repr(fa) and "restricted" not in repr(fa)
    assert repr(fa).startswith("Fixture(name='A', q=")


def test_records_copy_and_pickle(fixture_a):
    # a copy, a deep copy and an unpickled record equal the record; each is
    # built by the constructor again, so a fixture's derived restriction is
    # rebuilt and a refused payload raises as the constructor does
    fa = fixture_a
    records = [IntMatrix(1, 2, (1, 2)), KernelBasis(3, (((0, 2), (2, 1)),)), fa.c0,
               IncidenceProblem(4, 1, 1, MultiPoly.monomial((0, 0, 0, 0, 1))),
               Fixture(fa.name, fa.q, fa.l, fa.p, fa.c0, fa.d)]
    for record in records:
        for back in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(back) is type(record) and back == record
    back = pickle.loads(pickle.dumps(records[-1]))
    assert back.restricted == fa.restricted

    class Ragged:
        def __reduce__(self):
            return IntMatrix, (2, 2, (1, 2, 3))

    with pytest.raises(DimensionError):
        pickle.loads(pickle.dumps(Ragged()))


@pytest.mark.parametrize("name", ["A", "d3-small"])
def test_reading_integral_coefficients_builds_no_fraction(name, monkeypatch, fixture_a):
    # fixture A, and the degree-3 fixture bench/gen.py writes for verify-degree
    # (`generated("d3-small", 3, 100, "small", L_SPLIT)`), whose q, l, p are
    # integral and whose curve has 'p/q' coefficients: reading the fixture,
    # the problem of its quintic and the quintics through its curve builds
    # no Fraction, the 'p/q' entries included, which read as (num, den)
    path = Path(__file__).parent / "data" / "fixture-d3-small.json"
    doc = fixture_a.to_obj() if name == "A" else json.loads(path.read_text())
    problem = oracles.problem(Fixture.from_obj(doc)).to_obj()
    built = []

    def spy(cls, *args, **kwargs):
        built.append(args)
        return object.__new__(cls)

    monkeypatch.setattr(F, "__new__", spy)
    fix, prob = Fixture.from_obj(doc), IncidenceProblem.from_obj(problem)
    restricted_gradient(prob.f, fix.c0)
    quintics = [MultiPoly.monomial(e) for e in monomial_basis(5, 5)]
    restrict_to_curve([quintics], _curve_monomials(fix.c0.components))
    monkeypatch.undo()
    fractions = [c for comp in doc["c0"]["components"] for c in comp["coeffs"] if "/" in c]
    assert built == []
    assert bool(fractions) == (name == "d3-small")
    assert any(den > 1 for den, _ in fix.c0.components) == (name == "d3-small")
    forms = (fix.q, fix.l, fix.p, prob.f)
    assert all(type(c) is int for f in forms for c in f.terms.values())
    assert all(f.den == 1 for f in forms)
