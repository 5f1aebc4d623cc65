import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from curvejac import cli, linalg
from curvejac.construction import (
    MAX_POINT_ATTEMPTS,
    Fixture,
    _corner_rows,
    _generic_points,
    gradient_pairing_map,
    render_matrix,
    select_special_points,
    verify_construction,
)
from curvejac.errors import InputError
from curvejac.incidence import (
    CurveParam,
    _evaluation_rows,
    jacobian_coefficient_form,
    jacobian_evaluation_form,
    restricted_gradient,
    symmetry_kernel_vectors,
)
from curvejac.linalg import IntMatrix, kernel_exact, rank_exact
from curvejac.poly import MultiPoly, _polyroots

import oracles
import propcheck

A_POINTS = [F(-1, 2), F(1), F(2), F(3), F(5), F(7)]
A_PAIRS = [oracles.as_pair(t) for t in A_POINTS]
DATA = Path(__file__).parent / "data"


on_curve = oracles.on_curve


def restricted(c0, l, p):
    """(den, [lc, pc]): l and p restricted to c0 as `Fixture.restricted`
    begins, by the naive composition."""
    return propcheck.common([on_curve(l, c0), on_curve(p, c0)])


def special_points(c0, l, p):
    return select_special_points(restricted(c0, l, p), c0.d)


def generic_points(fix, attempt=0):
    """The 4d+1 generic points of a successful selection at seed 0."""
    lc, pc = restricted(fix.c0, fix.l, fix.p)[1]
    return _generic_points(lc, pc, 4 * fix.d + 1, 0, attempt)


def small_p(fix):
    """The fixture with p scaled by 1/10^4: the corner block's determinant
    shrinks by 10^-12 and its invertibility does not change."""
    return Fixture(fix.name + "-small-p", fix.q, fix.l, propcheck.scaled_form(fix.p, F(1, 10**4)),
                   fix.c0, fix.d)


def fermat_quartic():
    return MultiPoly(
        5,
        {(4, 0, 0, 0, 0): 1, (0, 4, 0, 0, 0): 1, (0, 0, 4, 0, 0): 1,
         (0, 0, 0, 4, 0): 1, (0, 0, 0, 0, 4): 1},
    )


class TestBuildSpecialHypersurface:
    def test_zero_quartic(self):
        z4 = MultiPoly.monomial((0, 0, 0, 0, 1))
        p = fermat_quartic()
        f = oracles.build_special_hypersurface(z4, MultiPoly(5, {}), p)
        assert f == z4 * p

    def test_fixture_inputs_give_quintic(self, fixture_a):
        f = oracles.build_special_hypersurface(fixture_a.l, fixture_a.q, fixture_a.p)
        assert f.homogeneous_degree() == 5
        assert f == oracles.f0(fixture_a)

    def test_vanishes_on_any_curve_on_the_quartic(self, fixture_b):
        # any curve with q(c) = 0 and zero last component kills both summands
        assert on_curve(oracles.f0(fixture_b), fixture_b.c0) == []

    def test_restriction_identity_for_random_curves(self, fixture_a):
        rng = random.Random(12)
        for _ in range(10):
            c = propcheck.random_curve(rng, 4, 2)
            lhs = on_curve(oracles.f0(fixture_a), c)
            rhs = oracles.linear_combination(
                (1, propcheck.unipoly_product(on_curve(fixture_a.l, c), on_curve(fixture_a.q, c))),
                (1, propcheck.unipoly_product(oracles.components(c)[4],
                                              on_curve(fixture_a.p, c))),
            )
            assert lhs == rhs

    # the factors are checked where a fixture is built, as the package never
    # builds the quintic
    def test_rejects_q_with_z4(self, fixture_a):
        q_bad = MultiPoly.monomial((0, 0, 0, 3, 1))
        with pytest.raises(InputError, match="q must not involve z4"):
            Fixture("bad", q_bad, MultiPoly.monomial((1, 0, 0, 0, 0)), fermat_quartic(),
                    fixture_a.c0, 1)

    def test_rejects_wrong_degrees(self, fixture_a):
        with pytest.raises(InputError, match="l must be homogeneous of degree 1"):
            Fixture("bad", fixture_a.q, fixture_a.q, fixture_a.p, fixture_a.c0, 1)


class TestSelectSpecialPoints:
    def test_fixture_a(self, fixture_a):
        roots, field = special_points(fixture_a.c0, fixture_a.l, fixture_a.p)
        assert field == "rational"
        assert roots == ((-1, 2),)
        assert len(generic_points(fixture_a)) == 5
        pc = on_curve(fixture_a.p, fixture_a.c0)
        assert propcheck.evaluate(pc, F(-1, 2)) == F(17, 16)

    def test_fixture_b(self, fixture_b):
        roots, _ = special_points(fixture_b.c0, fixture_b.l, fixture_b.p)
        assert roots == ((-1, 1), (1, 1))
        points = roots + generic_points(fixture_b)
        assert len(points) == 11
        assert len(set(points)) == 11

    def test_nonsplit_goes_complex(self, fixture_b_nonsplit):
        fx = fixture_b_nonsplit
        roots, field = special_points(fx.c0, fx.l, fx.p)
        assert field == "complex"
        assert [round(z.imag) for z in roots] == [-1, 1]

    def test_nonsplit_roots_computed_once(self, fixture_a, fixture_b, fixture_b_nonsplit,
                                          monkeypatch):
        # one numeric root computation gives the complex labels, at the
        # least working digits of labels (poly._LABEL_DIGITS); the rational
        # roots are exact, so the split fixtures compute none
        calls = []

        def counted(p, digits):
            calls.append((len(p[1]) - 1, digits))
            return _polyroots(p, digits)

        monkeypatch.setattr("curvejac.poly._polyroots", counted)
        rep = verify_construction(fixture_b_nonsplit, seed=0)
        assert rep["field"] == "complex"
        assert calls == [(2, 32)]
        assert rep["points"][:2] == ["0-1i", "0+1i"]
        d3 = Fixture.from_obj(json.loads((DATA / "fixture-d3-large.json").read_text()))
        for fx in (fixture_a, fixture_b, d3):
            calls.clear()
            assert verify_construction(fx, seed=0)["field"] == "rational"
            assert calls == [], fx.name

    def test_unconverged_labels_fail_check_2(self, fixture_b_nonsplit, monkeypatch):
        # _polyroots raises this ValueError when its iteration does not
        # converge (test_poly); verify reports it, with no traceback
        message = "complex roots did not converge in 200 steps at 32 digits"

        def unconverged(p, digits):
            raise ValueError(message)

        monkeypatch.setattr("curvejac.poly._polyroots", unconverged)
        rep = verify_construction(fixture_b_nonsplit, seed=0)
        assert not rep["passed"] and len(rep["checks"]) == 10
        assert rep["checks"][1]["status"] == "fail"
        assert rep["checks"][1]["details"]["error"] == message

    def test_degree_32_fractional_roots_certified_mod_p(self, no_euclid):
        # lc = prod (t - k/(k+1)), k <= 32: Euclid over Q on lc and lc' takes
        # seconds; a gcd of degree 0 modulo one prime proves lc squarefree
        # and coprime to pc
        lc = propcheck.unipoly_product(*([-F(k, k + 1), 1] for k in range(1, 33)))
        den, (lc, pc) = propcheck.common([lc, [1, 0, 1]])
        roots, field = select_special_points((den, [lc, pc]), 32)
        assert field == "rational"
        assert roots == tuple((k, k + 1) for k in range(1, 33))
        assert len(_generic_points(lc, pc, 129, 0, 0)) == 129

    def test_repeated_root_rejected(self, fixture_a):
        # l restricting to (1 + 2t)^2 on the line: 1 + 4t + 4t^2 needs d >= 2,
        # so use the conic fixture's curve with z0 + 4 z1 + 4 z2.
        l = MultiPoly(5, {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 4, (0, 0, 1, 0, 0): 4})
        conic = CurveParam.from_rationals(4, 2, ([1], [0, 1], [0, 0, 1], [], []))
        with pytest.raises(ValueError, match="l not generic"):
            special_points(conic, l, fermat_quartic())

    def test_p_vanishing_at_root_rejected(self, fixture_b):
        p_bad = MultiPoly(5, {(4, 0, 0, 0, 0): 1, (0, 4, 0, 0, 0): -1})
        with pytest.raises(ValueError, match="p not generic"):
            special_points(fixture_b.c0, fixture_b.l, p_bad)

    def test_degree_drop_rejected(self, fixture_b):
        l = MultiPoly.monomial((1, 0, 0, 0, 0))  # restricts to the constant 1
        with pytest.raises(ValueError, match="root at infinity"):
            special_points(fixture_b.c0, l, fixture_b.p)

    def test_seeded_retry_draws_differ(self, fixture_a):
        p0 = generic_points(fixture_a, attempt=1)
        p1 = generic_points(fixture_a, attempt=2)
        assert p0 != p1
        assert p0 == generic_points(fixture_a, attempt=1)

    def test_one_draw_per_attempt(self, fixture_a, monkeypatch):
        # the retry loop of check 7 is the one place generic points are drawn
        draws = []
        monkeypatch.setattr("curvejac.construction._generic_points",
                            lambda *args: draws.append(args[-1]) or _generic_points(*args))
        assert verify_construction(fixture_a, seed=0)["attempts"] == 1
        assert draws == [0]


def shape(rows):
    return (len(rows), len(rows[0]))


class TestBlocks:
    def blocks_a(self, fixture_a):
        prob = oracles.problem(fixture_a)
        grads = restricted_gradient(prob.f, fixture_a.c0)
        rows, _ = jacobian_evaluation_form(prob, fixture_a.c0, A_PAIRS, grads)
        jac = oracles.evaluation_values(rows, grads, fixture_a.d, A_PAIRS)
        return jac, oracles.split_blocks(jac, fixture_a.d)

    def a0_a(self, fixture_a):
        """l(c0(t_s)) at the lower points, and a22 with each row divided by it."""
        _, blocks = self.blocks_a(fixture_a)
        lc = on_curve(fixture_a.l, fixture_a.c0)
        l_values = [propcheck.evaluate(lc, t) for t in A_POINTS[2:]]
        return l_values, [[x / v for x in row] for row, v in zip(blocks["a22"], l_values)]

    def test_shapes(self, fixture_a):
        _, blocks = self.blocks_a(fixture_a)
        assert shape(blocks["a11"]) == (2, 2)
        assert shape(blocks["a12"]) == (2, 8)
        assert shape(blocks["a21"]) == (4, 2)
        assert shape(blocks["a22"]) == (4, 8)
        assert shape(self.a0_a(fixture_a)[1]) == (4, 8)

    def test_reassembly(self, fixture_a):
        jac, blocks = self.blocks_a(fixture_a)
        assert (oracles.reassemble_blocks(blocks)
                == oracles.permute_z4_first(jac, 1))

    def test_a12_row_at_root_vanishes(self, fixture_a):
        _, blocks = self.blocks_a(fixture_a)
        assert all(x == 0 for x in blocks["a12"][0])
        # the extra row (at the d+1-th point) does not vanish here
        assert any(x != 0 for x in blocks["a12"][1])

    def test_a12_factorization(self, fixture_a):
        # every entry is l(c0(t_s)) * (dq/dz_m)(c0(t_s)) * t_s^i
        _, blocks = self.blocks_a(fixture_a)
        lc = on_curve(fixture_a.l, fixture_a.c0)
        grads = oracles.gradient_on_curve(fixture_a.q, fixture_a.c0)[:4]
        for s, t in enumerate(A_POINTS[:2]):
            col = 0
            for m in range(4):
                for i in range(2):
                    assert blocks["a12"][s][col] == (
                        propcheck.evaluate(lc, t) * propcheck.evaluate(grads[m], t) * t**i)
                    col += 1

    def test_a11_closed_form_values(self, fixture_a):
        closed = oracles.a11_closed_form(on_curve(fixture_a.p, fixture_a.c0), A_POINTS[:2])
        assert closed == [[F(-17, 32), F(17, 16)], [F(2), F(2)]]
        assert oracles.laplace_det(closed) == F(-51, 16)

    def test_a11_matches_extracted_up_to_column_reversal(self, fixture_a):
        _, blocks = self.blocks_a(fixture_a)
        closed = oracles.a11_closed_form(on_curve(fixture_a.p, fixture_a.c0), A_POINTS[:2])
        assert [row[::-1] for row in blocks["a11"]] == closed

    def test_a11_det_identity(self, fixture_b):
        # det(A11 desc) = reversal sign * vandermonde det * prod p(c0(t_s))
        pts = [F(-1), F(1), F(2)]
        closed = oracles.a11_closed_form(on_curve(fixture_b.p, fixture_b.c0), pts)
        pc = on_curve(fixture_b.p, fixture_b.c0)
        vdet = F(1)
        for i in range(3):
            for j in range(i + 1, 3):
                vdet *= pts[j] - pts[i]
        prod_p = math.prod(propcheck.evaluate(pc, t) for t in pts)
        sign = -1  # column reversal on 3 columns is one transposition
        det = oracles.laplace_det(closed)
        assert det == sign * vdet * prod_p == F(-23670)

    def test_corner_rows_from_the_integer_lists(self, fixture_b_nonsplit):
        # check 4's block from pc's integer lists over den: exact at rational
        # points, the closed form; at complex ones the floats, to the bit,
        # of the rows at (t, 1) of pc's Fraction coefficients; and the last
        # column is pc(t_s), the factors of the determinant
        nonsplit = fixture_b_nonsplit
        roots = list(special_points(nonsplit.c0, nonsplit.l, nonsplit.p)[0])
        assert all(isinstance(t, complex) for t in roots)
        for s in (1, F(1, 3), F(-7, 10**4)):
            den, (_, pc) = restricted(nonsplit.c0, nonsplit.l,
                                      propcheck.scaled_form(nonsplit.p, s))
            assert den == s.denominator
            values = oracles.unipolys((den, [pc]))[0]
            rational = [F(-1), F(1, 3), F(-7, 2)]
            rows = _corner_rows(den, pc, [oracles.as_pair(t) for t in rational])
            assert [[F(*x) for x in row] for row in rows] == oracles.a11_closed_form(
                values, rational)
            assert all(type(x) is tuple for row in rows for x in row)
            for points in (roots, [0.5 + 0.25j, -3j, 1e10 + 1j]):
                want = [row[::-1] for row in
                        _evaluation_rows([values], len(points) - 1, [(t, 1) for t in points])]
                rows = _corner_rows(den, pc, points)
                assert repr(rows) == repr(want)
                assert [repr(row[-1]) for row in rows] == [
                    repr(propcheck.evaluate(values, t)) for t in points]
            # complex roots and the rational extra point, as check 4 takes them
            rows = _corner_rows(den, pc, roots + [(1, 1)])
            assert [F(*x) for x in rows[-1]] == [propcheck.evaluate(values, 1)] * 3

    def test_a11_constant_p_is_vandermonde(self, fixture_a):
        one = MultiPoly.monomial((0, 0, 0, 0, 0))
        closed = oracles.a11_closed_form(on_curve(one, fixture_a.c0), A_POINTS[:2])
        assert closed == [[F(-1, 2), F(1)], [F(1), F(1)]]

    def test_a22_closed_form_row(self, fixture_a):
        lc = on_curve(fixture_a.l, fixture_a.c0)
        closed = oracles.a22_closed_form(
            lc, oracles.unipolys(restricted_gradient(fixture_a.q, fixture_a.c0)), A_POINTS[2:]
        )
        # at t = 2: l(c0(2)) = 5, gradient = (0, 0, 1, 8)
        assert closed[0] == [0, 0, 0, 0, 5, 10, 40, 80]

    def test_a22_matches_extracted(self, fixture_a):
        _, blocks = self.blocks_a(fixture_a)
        lc = on_curve(fixture_a.l, fixture_a.c0)
        closed = oracles.a22_closed_form(
            lc, oracles.unipolys(restricted_gradient(fixture_a.q, fixture_a.c0)), A_POINTS[2:]
        )
        assert blocks["a22"] == closed

    def test_a22_zero_when_gradient_vanishes_along_curve(self, fixture_a):
        q = MultiPoly.monomial((0, 0, 0, 4, 0))  # z3^4; gradient dies on the line
        lc = on_curve(fixture_a.l, fixture_a.c0)
        closed = oracles.a22_closed_form(lc, oracles.unipolys(restricted_gradient(q, fixture_a.c0)),
                                         A_POINTS[2:])
        assert all(x == 0 for row in closed for x in row)

    def test_a0_rank(self, fixture_a):
        l_values, a0 = self.a0_a(fixture_a)
        assert rank_exact(IntMatrix.from_rows(oracles.int_rows(a0))) == 4
        assert oracles.rref_rank(a0, 8) == 4
        assert all(v != 0 for v in l_values)  # no flagged rows

    def test_a22_is_a0_rescaled_rowwise(self, fixture_a):
        _, blocks = self.blocks_a(fixture_a)
        l_values, a0 = self.a0_a(fixture_a)
        for s, lval in enumerate(l_values):
            assert blocks["a22"][s] == [lval * x for x in a0[s]]
        # a0 is the evaluation of q's restricted gradient, the rows check 7 ranks
        grads = oracles.unipolys(restricted_gradient(fixture_a.q, fixture_a.c0))
        assert a0 == [[propcheck.evaluate(g, t) * t**i for g in grads[:4] for i in range(2)]
                      for t in A_POINTS[2:]]


class TestGradientPairing:
    def test_fixture_a_matrix(self, fixture_a):
        m = gradient_pairing_map(restricted_gradient(fixture_a.q, fixture_a.c0)[1], fixture_a.d)
        assert (m.rows, m.cols) == (5, 8)
        # map is (v0..v3) -> v2(t) + t^3 v3(t): columns for m=2 hit rows 0,1;
        # columns for m=3 hit rows 3,4
        expected = [[F(0)] * 8 for _ in range(5)]
        expected[0][4] = expected[1][5] = expected[3][6] = expected[4][7] = F(1)
        assert oracles.matrix_rows(m) == expected
        assert rank_exact(m) == 4
        assert kernel_exact(m).dim == 4

    def test_fixture_b_kernel(self, fixture_b):
        m = gradient_pairing_map(restricted_gradient(fixture_b.q, fixture_b.c0)[1], fixture_b.d)
        assert (m.rows, m.cols) == (9, 12)
        assert rank_exact(m) == 8
        assert kernel_exact(m).dim == 4

    def test_kernel_contains_restricted_symmetry_vectors(self, fixture_a, fixture_b):
        for fix in (fixture_a, fixture_b):
            m = gradient_pairing_map(restricted_gradient(fix.q, fix.c0)[1], fix.d)
            d = fix.d
            for v in symmetry_kernel_vectors(fix.c0):
                restricted = v[: 4 * (d + 1)]
                assert all(x == 0 for x in m.matvec(restricted))


class TestSmoothAlongCurve:
    # fixtures.fixture_b claims its quartic is smooth along the conic
    def test_fixtures_smooth(self, fixture_a, fixture_b):
        assert oracles.smooth_along_curve(fixture_a.q, fixture_a.c0)
        assert oracles.smooth_along_curve(fixture_b.q, fixture_b.c0)

    def test_non_reduced_fails(self, fixture_a):
        # z2^2 * (z0^2 + z1^2): gradient vanishes identically along the line
        q = MultiPoly(5, {(2, 0, 2, 0, 0): 1, (0, 2, 2, 0, 0): 1})
        assert not oracles.smooth_along_curve(q, fixture_a.c0)

    def test_common_factor_fails(self, fixture_a):
        # q = z1^3 z2: the only gradient entry surviving on the line is
        # (dq/dz2)(c0(t)) = t^3, so the gcd is nonconstant
        q = MultiPoly(5, {(0, 3, 1, 0, 0): 1})
        assert not oracles.smooth_along_curve(q, fixture_a.c0)


class TestVerifyConstruction:
    def test_fixture_a_all_pass(self, fixture_a):
        rep = verify_construction(fixture_a, seed=0)
        assert rep["passed"]
        assert [c["id"] for c in rep["checks"]] == list(range(1, 11))
        assert all(c["status"] == "pass" for c in rep["checks"])
        assert rep["attempts"] == 1
        det = next(c for c in rep["checks"] if c["id"] == 4)["details"]["det"]
        assert det == "-51/16"

    def test_fixture_b_all_pass(self, fixture_b):
        rep = verify_construction(fixture_b, seed=0)
        assert rep["passed"]
        by_id = {c["id"]: c for c in rep["checks"]}
        assert by_id[7]["details"]["rank"] == 8
        assert by_id[9]["details"]["rank"] == 11
        assert by_id[9]["details"]["tangent_dim"] == 4
        assert by_id[4]["details"]["det"] == "-23670"
        small = verify_construction(small_p(fixture_b), seed=0)
        assert small["passed"]
        assert small["checks"][3]["details"]["det"] == "-2367/100000000000"

    def test_complex_path(self, fixture_b_nonsplit):
        # check 4 is decided exactly, so a small determinant (|det| = 1.56e-10
        # with p / 10^4) passes as its rational twin in fixture B does
        for fx, det in ((fixture_b_nonsplit, "0-156i"),
                        (small_p(fixture_b_nonsplit), "0-1.56e-10i")):
            rep = verify_construction(fx, seed=0)
            assert rep["field"] == "complex"
            assert rep["passed"]
            assert all(c["status"] == "pass" for c in rep["checks"])
            assert rep["checks"][3]["details"]["det"] == det

    def test_complex_field_lower_checks_are_exact(self):
        # l(c0(t)) does not split, so the roots are complex; the generic
        # points stay rational and checks 5-7 are decided exactly (an SVD
        # rank of this rescaled block at tol 1e-8 falls below 16).
        fx = Fixture.from_obj(json.loads((DATA / "fixture-d4-nonsplit.json").read_text()))
        rep = verify_construction(fx, seed=100)
        assert rep["field"] == "complex"
        assert rep["passed"]
        assert rep["attempts"] == 1
        by_id = {c["id"]: c for c in rep["checks"]}
        assert by_id[7]["details"]["rank"] == 16 == 4 * fx.d
        assert by_id[5]["details"]["root_rows"] == 4
        assert rep["points"][4] == "1+0i"  # generic points keep complex labels

    def test_one_restriction_table(self, fixture_a, table_builds, tmp_path):
        # a whole verify run, load included, restricts l, p and the partials
        # of q through one table; f0 is never restricted, and q(c0) = 0 is
        # decided from those restrictions
        path = tmp_path / "fixture-a.json"
        path.write_text(json.dumps(fixture_a.to_obj()))
        assert cli.main(["verify", str(path)]) == 0
        assert table_builds == [6]

    @pytest.fixture()
    def integer_chain_fixtures(self, fixture_a, fixture_b, fixture_b_nonsplit):
        # small_p(B) has the common denominator 10^4; the two data fixtures
        # have large heights and complex roots
        fixtures = [fixture_a, fixture_b, fixture_b_nonsplit, small_p(fixture_b)]
        for name in ("fixture-d3-large.json", "fixture-d4-nonsplit.json"):
            fixtures.append(Fixture.from_obj(json.loads((DATA / name).read_text())))
        return fixtures

    def test_ranks_only_integer_matrices(self, integer_chain_fixtures, monkeypatch):
        # every matrix verify hands to rank_exact, witnesses included, is in
        # ints, and so are the vectors rank_exact multiplies by it
        seen = []
        rank = linalg.rank_exact

        def spy(m, witnesses=()):
            seen.append(m)
            assert all(type(x) is int for x in m.entries)
            assert all(type(x) is int for w in witnesses for x in w)
            return rank(m, witnesses)

        monkeypatch.setattr(linalg, "rank_exact", spy)
        monkeypatch.setattr("curvejac.construction.rank_exact", spy)
        for fix in integer_chain_fixtures:
            seen.clear()
            rep = verify_construction(fix, seed=0)
            assert rep["passed"], fix.name
            # checks 7, 8 (and its witnesses), 9 and 10 (two ranks)
            assert len(seen) == 6, fix.name

    def test_no_bareiss_elimination(self, fixture_a, fixture_b, fixture_b_nonsplit, monkeypatch):
        # every rank is certified mod p, and check 10's image matrix, all
        # zero on a passing fixture, has rank 0 without any elimination
        def refuse(rows):
            raise AssertionError("Bareiss elimination ran")

        monkeypatch.setattr(linalg, "_bareiss_echelon", refuse)
        for fix in (fixture_a, fixture_b, fixture_b_nonsplit):
            rep = verify_construction(fix, seed=0)
            assert rep["passed"], fix.name
            assert rep["checks"][9]["details"]["symmetry_annihilated"] is True

    def test_fixture_and_verify_build_no_f0(self, fixture_b, monkeypatch):
        # neither load nor verify multiplies forms, so f0 = l*q + z4*p is
        # never built; the checks on l, q and p run at load
        def refuse(*args):
            raise AssertionError("a product of forms was built")

        monkeypatch.setattr(MultiPoly, "__mul__", refuse)
        fix = Fixture("B-copy", fixture_b.q, fixture_b.l, fixture_b.p, fixture_b.c0, 2)
        assert verify_construction(fix, seed=0)["passed"]
        assert not hasattr(fix, "f0")
        with pytest.raises(InputError, match="q must not involve z4"):
            Fixture("bad", MultiPoly.monomial((0, 0, 0, 3, 1)), fixture_b.l, fixture_b.p,
                    fixture_b.c0, 2)

    def test_byte_stable(self, fixture_b):
        a = linalg._dump(verify_construction(fixture_b, seed=3))
        b = linalg._dump(verify_construction(fixture_b, seed=3))
        assert a == b
        json.loads(a)  # valid JSON

    def test_extra_row_census_reported(self, fixture_a):
        rep = verify_construction(fixture_a, seed=0)
        census = next(c for c in rep["checks"] if c["id"] == 5)
        rows = census["details"]["rows"]
        assert rows[0]["is_zero"] is True  # root of l(c0)
        assert rows[1]["is_zero"] is False  # the extra point, reported as-is

    def test_error_path_p_vanishing_at_root(self, fixture_a):
        # p = z0^3 (z0 + 2 z1) restricts to 1 + 2t, vanishing at the l-root
        p_bad = MultiPoly(5, {(4, 0, 0, 0, 0): 1, (3, 1, 0, 0, 0): 2})
        fx = Fixture("A-bad-p", fixture_a.q, fixture_a.l, p_bad, fixture_a.c0, 1)
        rep = verify_construction(fx, seed=0)
        by_id = {c["id"]: c for c in rep["checks"]}
        assert by_id[2]["status"] == "fail"
        assert "p not generic" in by_id[2]["details"]["error"]
        # the remaining checks still ran on fallback points
        assert set(by_id) == set(range(1, 11))
        assert not rep["passed"]


    def test_l_vanishing_on_curve_ends_with_failed_report(self, fixture_a):
        # l = z4 restricts to 0: point selection fails, every row of the
        # rescaled block is flagged, and all attempts are used up.
        z4 = MultiPoly.monomial((0, 0, 0, 0, 1))
        fx = Fixture("A-l-z4", fixture_a.q, z4, fixture_a.p, fixture_a.c0, 1)
        rep = verify_construction(fx, seed=0)
        by_id = {c["id"]: c for c in rep["checks"]}
        assert "vanishes identically" in by_id[2]["details"]["error"]
        assert by_id[7]["status"] == "fail"
        assert by_id[7]["details"]["flagged_rows"] == [0, 1, 2, 3]
        assert rep["attempts"] == MAX_POINT_ATTEMPTS
        assert not rep["passed"]


def _derived_gradient(fix):
    """[l(c0) * (dq/dz_m)(c0), m < 4] + [p(c0)]: the gradient of f0 on the
    curve that verify_construction uses in place of restricting f0."""
    lc, pc = on_curve(fix.l, fix.c0), on_curve(fix.p, fix.c0)
    return [propcheck.unipoly_product(lc, g)
            for g in oracles.gradient_on_curve(fix.q, fix.c0)[:4]] + [pc]


class TestDerivedGradient:
    """The restriction of f0 itself, which verify no longer computes, is the
    reference for the gradient verify derives from l, p and q."""

    def assert_matches_restriction(self, fix):
        assert on_curve(oracles.f0(fix), fix.c0) == []
        assert oracles.unipolys(restricted_gradient(oracles.f0(fix), fix.c0)) == _derived_gradient(fix)
        assert oracles.unipolys(fix.restricted) == [
            on_curve(fix.l, fix.c0), on_curve(fix.p, fix.c0),
            *oracles.gradient_on_curve(fix.q, fix.c0)[:4]]

    @pytest.fixture()
    def shipped_test_and_data_fixtures(self, fixture_a, fixture_b, fixture_b_nonsplit):
        z4 = MultiPoly.monomial((0, 0, 0, 0, 1))
        z0 = MultiPoly.monomial((1, 0, 0, 0, 0))
        p_bad = MultiPoly(5, {(4, 0, 0, 0, 0): 1, (3, 1, 0, 0, 0): 2})
        fixtures = [
            fixture_a, fixture_b, fixture_b_nonsplit,
            Fixture("A-bad-p", fixture_a.q, fixture_a.l, p_bad, fixture_a.c0, 1),
            Fixture("A-l-z4", fixture_a.q, z4, fixture_a.p, fixture_a.c0, 1),
            Fixture("A-q0", MultiPoly(5, {}), z0, fixture_a.p, fixture_a.c0, 1),
        ]
        for name in ("fixture-d4-nonsplit.json", "fixture-d3-large.json"):
            fixtures.append(Fixture.from_obj(json.loads((DATA / name).read_text())))
        return fixtures

    def test_shipped_test_and_data_fixtures(self, shipped_test_and_data_fixtures):
        for fix in shipped_test_and_data_fixtures:
            self.assert_matches_restriction(fix)

    def test_ranks_match_kernel_bases(self, shipped_test_and_data_fixtures):
        # checks 8-10 report ranks only; the kernel bases they replaced are
        # the reference
        for fix in shipped_test_and_data_fixtures:
            by_id = {c["id"]: c["details"] for c in verify_construction(fix, seed=0)["checks"]}
            pairing = gradient_pairing_map(restricted_gradient(fix.q, fix.c0)[1], fix.d)
            assert by_id[8]["kernel_dim"] == kernel_exact(pairing).dim, fix.name
            prob = oracles.problem(fix)
            grads = restricted_gradient(prob.f, fix.c0)
            jac = jacobian_coefficient_form(prob, fix.c0, grads)
            kernel = kernel_exact(jac)
            assert by_id[9]["tangent_dim"] == kernel.dim, fix.name
            sym = symmetry_kernel_vectors(fix.c0)
            stack = IntMatrix.from_rows(oracles.int_rows(oracles.dense_kernel(kernel)) + sym)
            assert by_id[10]["stack_rank"] == rank_exact(stack), fix.name
            annihilated = all(not any(jac.matvec(v)) for v in sym)
            assert by_id[10]["symmetry_annihilated"] is annihilated, fix.name

    def test_random_l_and_p(self, fixture_a, fixture_b):
        rng = random.Random(2024)
        for _ in range(50):
            l = propcheck.random_homogeneous(rng, 5, 1)
            p = propcheck.random_homogeneous(rng, 5, 4)
            for base in (fixture_a, fixture_b):
                self.assert_matches_restriction(Fixture("random", base.q, l, p, base.c0, base.d))


class TestFixtureBundle:
    def test_round_trip(self, fixture_a, fixture_b):
        for fix in (fixture_a, fixture_b):
            back = Fixture.from_obj(fix.to_obj())
            assert oracles.f0(back) == oracles.f0(fix)
            assert back.c0 == fix.c0

    def test_off_quartic_curve_rejected(self, fixture_a):
        obj = fixture_a.to_obj()
        obj["q"] = MultiPoly.monomial((4, 0, 0, 0, 0)).to_obj()
        with pytest.raises(InputError, match=r"q\(c0\(t\)\) == 0"):
            Fixture.from_obj(obj)

    def test_nonzero_z4_component_rejected(self, fixture_a):
        obj = fixture_a.to_obj()
        obj["c0"]["components"][4] = {"coeffs": ["1"]}
        with pytest.raises(InputError, match="z4-component"):
            Fixture.from_obj(obj)

    def test_degree_zero_rejected(self, fixture_a, tmp_path, capsys):
        # a constant c0 at a point of the quartic used to pass load, and
        # verify then exited 3 on a matrix with zero rows
        obj = fixture_a.to_obj()
        obj["d"] = obj["c0"]["d"] = 0
        obj["c0"]["components"] = [{"coeffs": [str(c[0])] if c and c[0] else []}
                                   for c in oracles.components(fixture_a.c0)]
        path = tmp_path / "fixture-d0.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(InputError, match="at least 1"):
            Fixture.from_obj(obj)
        assert cli.main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("input error:"), err


class TestFiniteFieldSmoothnessOracle:
    def test_fixture_a_quartic_has_no_singular_points(self, fixture_a):
        assert oracles.quartic_smooth_over_prime_field(fixture_a.q, 11)
        assert oracles.quartic_smooth_over_prime_field(fixture_a.q, 13)

    def test_singular_quartic_detected(self):
        q_sing = MultiPoly(5, {(2, 2, 0, 0, 0): 1})  # z0^2 z1^2, singular along two lines
        assert not oracles.quartic_smooth_over_prime_field(q_sing, 11)


def test_render_matrix_elides_wide_matrices():
    rows = render_matrix([[(i, 1) for i in range(15)]])
    assert len(rows[0]) == 12
    assert rows[0][-1] == "... (4 more)"
    assert render_matrix([[(1, 2), (6, 2), 0.5j]]) == [["1/2", "3", "0+0.5i"]]
