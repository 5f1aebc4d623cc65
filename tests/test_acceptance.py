"""Acceptance criteria, one test per criterion.

Each criterion prints a single ACCEPTANCE line (PASS or FAIL) so the suite
can be read as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

import contextlib
import io
import json
import time
from fractions import Fraction as F

from curvejac import cli
from curvejac.construction import _generic_points, gradient_pairing_map, select_special_points
from curvejac.incidence import (
    IncidenceProblem,
    jacobian_coefficient_form,
    jacobian_evaluation_form,
    quintics_through_curve,
    random_member,
    restricted_gradient,
    symmetry_kernel_vectors,
)
from curvejac.linalg import IntMatrix, kernel_exact, rank_exact, rank_numeric
from curvejac.poly import _curve_monomials, monomial_basis, restrict_to_curve

import oracles
import propcheck

A_POINTS = [F(-1, 2), F(1), F(2), F(3), F(5), F(7)]
A_PAIRS = [oracles.as_pair(t) for t in A_POINTS]


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def on_curve(poly, c0):
    return oracles.unipolys(restrict_to_curve([[poly]], _curve_monomials(c0.components))[0])[0]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_criterion_1_fixture_a_rank_and_kernel(fixture_a, jacobian_command):
    with criterion(1, "fixture A: rank 6, tangent dim 4, kernel = symmetry span"):
        start = time.perf_counter()
        prob = oracles.problem(fixture_a)
        grads = restricted_gradient(prob.f, fixture_a.c0)
        jac = jacobian_coefficient_form(prob, fixture_a.c0, grads)
        assert rank_exact(jac) == 6 == 5 * fixture_a.d + 1
        out = jacobian_command(prob, fixture_a.c0)
        assert (out["rank"], out["tangent_dim"], out["formal"]) == (6, 4, False)
        kernel = kernel_exact(jac)
        sym = symmetry_kernel_vectors(fixture_a.c0)
        # mutual containment of two exact 4-dimensional spaces
        assert kernel.dim == 4
        assert rank_exact(IntMatrix.from_rows(sym)) == 4
        for v in sym:
            assert all(x == 0 for x in jac.matvec(v))
        stack = IntMatrix.from_rows(oracles.int_rows(oracles.dense_kernel(kernel)) + sym)
        assert rank_exact(stack) == 4
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s"


def test_criterion_2_fixture_b_rank(fixture_b, jacobian_command):
    with criterion(2, "fixture B: rank 11, tangent dim 4"):
        start = time.perf_counter()
        prob = oracles.problem(fixture_b)
        grads = restricted_gradient(prob.f, fixture_b.c0)
        jac = jacobian_coefficient_form(prob, fixture_b.c0, grads)
        assert rank_exact(jac) == 11 == 5 * fixture_b.d + 1
        out = jacobian_command(prob, fixture_b.c0)
        assert (out["rank"], out["tangent_dim"], out["formal"]) == (11, 4, False)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, limit 5s"


def test_criterion_3_block_suite(fixture_a):
    with criterion(3, "fixture A block suite: closed forms, det -51/16, A0 rank 4"):
        prob = oracles.problem(fixture_a)
        grads = restricted_gradient(prob.f, fixture_a.c0)
        rows, _ = jacobian_evaluation_form(prob, fixture_a.c0, A_PAIRS, grads)
        lc = on_curve(fixture_a.l, fixture_a.c0)
        pc = on_curve(fixture_a.p, fixture_a.c0)
        blocks = oracles.split_blocks(
            oracles.evaluation_values(rows, grads, fixture_a.d, A_PAIRS), fixture_a.d)
        closed11 = oracles.a11_closed_form(pc, A_POINTS[:2])
        extracted11 = [row[::-1] for row in blocks["a11"]]  # descending powers
        assert extracted11 == closed11
        det11 = oracles.laplace_det(extracted11)
        assert det11 == F(-51, 16) and det11 != 0
        grads = oracles.unipolys(restricted_gradient(fixture_a.q, fixture_a.c0))
        closed22 = oracles.a22_closed_form(lc, grads, A_POINTS[2:])
        assert blocks["a22"] == closed22
        a0 = [[x / propcheck.evaluate(lc, t) for x in row]
              for row, t in zip(blocks["a22"], A_POINTS[2:])]
        assert rank_exact(IntMatrix.from_rows(oracles.int_rows(a0))) == 4 == 4 * fixture_a.d
        # rows of the mixed block at roots of l(c0(t)) vanish exactly
        assert all(x == 0 for x in blocks["a12"][0])
        extra_zero = all(x == 0 for x in blocks["a12"][1])
        print(f"  [info] mixed-block row at t_2 = 1 is zero: {extra_zero}")


def test_criterion_4_gradient_pairing(fixture_a, fixture_b):
    with criterion(4, "gradient pairing kernel dimension 4 on both fixtures"):
        for fix, shape in ((fixture_a, (5, 8)), (fixture_b, (9, 12))):
            m = gradient_pairing_map(restricted_gradient(fix.q, fix.c0)[1], fix.d)
            assert (m.rows, m.cols) == shape == (4 * fix.d + 1, 4 * fix.d + 4)
            assert kernel_exact(m).dim == 4


def test_criterion_5_vandermonde_identity(fixture_a, fixture_b, fixture_b_nonsplit):
    with criterion(5, "evaluation = vandermonde * coefficient; numeric rank matches"):
        point_sets = {
            "A": [
                A_POINTS,
                [F(0), F(-1), F(1), F(-2), F(2), F(3)],
                [F(1, 3), F(-1, 3), F(2, 3), F(1), F(-1), F(5, 2)],
            ],
            "B": [
                [F(k) for k in range(-5, 6)],
                [F(k, 2) for k in range(-5, 6)],
                [F(-1), F(1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(-3), F(4), F(-4), F(5)],
            ],
        }
        for fix, sets in ((fixture_a, point_sets["A"]), (fixture_b, point_sets["B"])):
            grads = restricted_gradient(oracles.problem(fix).f, fix.c0)
            j_coeff = jacobian_coefficient_form(oracles.problem(fix), fix.c0, grads)
            for pts in sets:
                pairs = [oracles.as_pair(t) for t in pts]
                j_eval, _ = jacobian_evaluation_form(oracles.problem(fix), fix.c0, pairs, grads)
                v = oracles.vandermonde(pts, len(pts))
                assert (oracles.matmul(v, oracles.jacobian_rows(j_coeff, grads[0]))
                        == oracles.evaluation_values(j_eval, grads, fix.d, pairs))
                eval_matrix = IntMatrix.from_rows(j_eval)
                assert rank_exact(eval_matrix) == rank_exact(j_coeff)
        # complex path: l restricting to 1 + t^2 forces roots at +-i
        fx = fixture_b_nonsplit
        pair = restrict_to_curve([[fx.l, fx.p]], _curve_monomials(fx.c0.components))[0]
        roots, field = select_special_points(pair, fx.d)
        assert field == "complex"
        points = roots + _generic_points(*pair[1], 4 * fx.d + 1, 0, 0)
        grads = restricted_gradient(oracles.problem(fx).f, fx.c0)
        j_eval, _ = jacobian_evaluation_form(oracles.problem(fx), fx.c0, points, grads)
        exact_rank = rank_exact(jacobian_coefficient_form(oracles.problem(fx), fx.c0, grads))
        assert rank_numeric(j_eval, 1e-8) == exact_rank == 11


def test_criterion_6_through_curve(fixture_a, fixture_b):
    with criterion(6, "through-curve dimensions 3 / 120 / 115 and f0 membership"):
        table = _curve_monomials(fixture_a.c0.components)
        assert quintics_through_curve(fixture_a.c0, monomial_basis(5, 1), table).dim == 3
        mons = monomial_basis(5, 5)
        for fix, expected in ((fixture_a, 120), (fixture_b, 115)):
            basis = quintics_through_curve(fix.c0, mons, _curve_monomials(fix.c0.components))
            assert basis.ambient_dim == 126
            assert basis.dim == expected
            f0_vec = [oracles.coefficients(oracles.f0(fix)).get(m, F(0)) for m in mons]
            stack = IntMatrix.from_rows(oracles.int_rows([*oracles.dense_kernel(basis), f0_vec]))
            assert rank_exact(stack) == expected


def test_criterion_7_sampling(fixture_a):
    with criterion(7, "20 seeded random quintics through the line all have rank 6"):
        start = time.perf_counter()
        table, mons = _curve_monomials(fixture_a.c0.components), monomial_basis(5, 5)
        basis = quintics_through_curve(fixture_a.c0, mons, table)
        full = 0
        for draw in range(20):
            g = random_member(basis, 0 * 1_000_003 + draw, mons)
            prob = IncidenceProblem(4, 1, 5, g)
            assert on_curve(g, fixture_a.c0) == []
            grads = restricted_gradient(prob.f, fixture_a.c0)
            rank = rank_exact(jacobian_coefficient_form(prob, fixture_a.c0, grads))
            assert rank == 6
            full += 1
        assert full == 20
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s, limit 30s"


def test_criterion_8_property_suites():
    with criterion(8, "property suites: 100 exact draws each"):
        assert propcheck.taylor_chain_rule_suite(seed=11, draws=100) == 100
        assert propcheck.euler_identity_suite(seed=12, draws=100) == 100
        assert propcheck.rank_nullity_suite(seed=13, draws=100) == 100
        assert propcheck.kernel_annihilation_suite(seed=14, draws=100) == 100


def test_criterion_9_determinism(tmp_path, fixture_a):
    with criterion(9, "identical inputs and seed give byte-identical output"):
        fixture_path = tmp_path / "a.json"
        rc, out, _ = run_cli(["fixture", "A"])
        assert rc == 0
        fixture_path.write_text(out)
        curve_path = tmp_path / "c.json"
        curve_path.write_text(json.dumps(fixture_a.c0.to_obj()))
        problem_path = tmp_path / "p.json"
        problem_path.write_text(json.dumps(oracles.problem(fixture_a).to_obj()))
        commands = [
            ["fixture", "A"],
            ["fixture", "B"],
            ["verify", str(fixture_path), "--seed", "0"],
            ["jacobian", str(problem_path), str(curve_path), "--form", "coeff"],
            ["jacobian", str(problem_path), str(curve_path), "--form", "eval",
             "--points=-1/2,1,2,3,5,7"],
            ["through", str(curve_path), "--degree", "1"],
            ["sample", str(curve_path), "--degree", "5", "--count", "4", "--seed", "7"],
        ]
        for argv in commands:
            first = run_cli(argv)
            second = run_cli(argv)
            assert first == second, f"output differs for {argv}"
            assert first[0] == 0
