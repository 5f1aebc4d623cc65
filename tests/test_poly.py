import random
from fractions import Fraction as F

import pytest

from curvejac.errors import DimensionError, InputError
from curvejac.poly import (
    MultiPoly,
    UniPoly,
    compose_with_curve,
    gcd_univariate,
    monomial_basis,
    rational_roots,
    roots_numeric,
)

import oracles
import propcheck


def line_components():
    return (UniPoly.of(1), UniPoly.of(0, 1), UniPoly.zero(), UniPoly.zero(), UniPoly.zero())


class TestRingOps:
    def test_monomial_square(self):
        z0 = MultiPoly.monomial((1, 0, 0, 0, 0))
        assert z0 * z0 == MultiPoly.monomial((2, 0, 0, 0, 0))

    def test_difference_of_squares(self):
        a = UniPoly.of(1, 1)
        b = UniPoly.of(1, -1)
        assert a * b == UniPoly.of(1, 0, -1)

    def test_special_quintic_is_homogeneous(self, fixture_a):
        assert fixture_a.f0.homogeneous_degree() == 5

    def test_mul_degree_additivity(self):
        rng = random.Random(2)
        for _ in range(20):
            a = propcheck.random_unipoly(rng, rng.randint(0, 4))
            b = propcheck.random_unipoly(rng, rng.randint(0, 4))
            if a.is_zero or b.is_zero:
                assert (a * b).is_zero
            else:
                assert (a * b).degree == a.degree + b.degree

    def test_mul_matches_convolution_oracle(self):
        rng = random.Random(4)
        for _ in range(20):
            a = propcheck.random_unipoly(rng, 4)
            b = propcheck.random_unipoly(rng, 3)
            assert list((a * b).coeffs) == oracles.naive_mul(list(a.coeffs), list(b.coeffs))

    def test_rejects_mismatched_variables(self):
        with pytest.raises(DimensionError):
            MultiPoly.monomial((1, 0)) * MultiPoly.monomial((1, 0, 0))


class TestPartialDerivative:
    def test_simple(self):
        f = MultiPoly.monomial((3, 0, 1, 0, 0))
        assert f.partial_derivative(0) == MultiPoly(5, {(2, 0, 1, 0, 0): 3})

    def test_constant_direction(self):
        assert MultiPoly.monomial((0, 0, 0, 0, 1)).partial_derivative(0).is_zero

    def test_fixture_quartic_gradient(self, fixture_a):
        q = fixture_a.q
        expected = [
            MultiPoly(5, {(2, 0, 1, 0, 0): 3}),
            MultiPoly(5, {(0, 2, 0, 1, 0): 3}),
            MultiPoly(5, {(3, 0, 0, 0, 0): 1, (0, 0, 3, 0, 0): 4}),
            MultiPoly(5, {(0, 3, 0, 0, 0): 1, (0, 0, 0, 3, 0): 4}),
        ]
        for m in range(4):
            assert q.partial_derivative(m) == expected[m]

    def test_homogeneous_degree_drops(self):
        rng = random.Random(9)
        for _ in range(10):
            f = propcheck.random_homogeneous(rng, 3, 3)
            g = f.partial_derivative(rng.randrange(3))
            assert g.is_zero or g.homogeneous_degree() == 2


class TestComposeWithCurve:
    def test_fermat_on_line(self, fermat_quintic):
        assert compose_with_curve(fermat_quintic, line_components()) == UniPoly.of(
            1, 0, 0, 0, 0, 1
        )

    def test_special_quintic_vanishes_on_curve(self, fixture_a):
        assert compose_with_curve(fixture_a.f0, fixture_a.c0.components).is_zero

    def test_linear_form_on_line(self, fixture_a):
        assert compose_with_curve(fixture_a.l, line_components()) == UniPoly.of(1, 2)

    def test_matches_naive_oracle(self):
        rng = random.Random(13)
        for _ in range(15):
            f = propcheck.random_homogeneous(rng, 3, rng.randint(1, 3))
            comps = [propcheck.random_unipoly(rng, 2) for _ in range(3)]
            got = compose_with_curve(f, comps)
            want = oracles.naive_compose(f.terms, [list(c.coeffs) for c in comps])
            assert list(got.coeffs) == want

    def test_linearity_in_f(self):
        rng = random.Random(21)
        for _ in range(15):
            f = propcheck.random_homogeneous(rng, 3, 2)
            g = propcheck.random_homogeneous(rng, 3, 2)
            comps = [propcheck.random_unipoly(rng, 2) for _ in range(3)]
            a, b = propcheck.random_fraction(rng), propcheck.random_fraction(rng)
            lhs = compose_with_curve(f.scale(a) + g.scale(b), comps)
            rhs = compose_with_curve(f, comps).scale(a) + compose_with_curve(g, comps).scale(b)
            assert lhs == rhs

    def test_homogeneity_in_curve(self):
        rng = random.Random(22)
        for _ in range(15):
            e = rng.randint(1, 3)
            f = propcheck.random_homogeneous(rng, 3, e)
            comps = [propcheck.random_unipoly(rng, 2) for _ in range(3)]
            lam = propcheck.random_fraction(rng)
            scaled = [c.scale(lam) for c in comps]
            assert compose_with_curve(f, scaled) == compose_with_curve(f, comps).scale(lam**e)

    def test_rejects_wrong_component_count(self, fermat_quintic):
        with pytest.raises(DimensionError):
            compose_with_curve(fermat_quintic, line_components()[:4])


class TestGcd:
    def test_common_factor(self):
        g = gcd_univariate(UniPoly.of(-1, 0, 1), UniPoly.of(-1, 1))
        assert g == UniPoly.of(-1, 1)

    def test_coprime(self):
        assert gcd_univariate(UniPoly.of(1, 2), UniPoly.of(1, 0, 0, 0, 1)) == UniPoly.one()

    def test_gcd_with_zero(self):
        p = UniPoly.of(2, 4)
        assert gcd_univariate(p, UniPoly.zero()) == UniPoly.of(F(1, 2), 1)

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            gcd_univariate(UniPoly.zero(), UniPoly.zero())


class TestRoots:
    def test_linear(self):
        roots = roots_numeric(UniPoly.of(1, 2))
        assert len(roots) == 1
        assert abs(roots[0] - (-0.5)) < 1e-12

    def test_pure_imaginary_pair_sorted(self):
        roots = roots_numeric(UniPoly.of(1, 0, 1))
        assert len(roots) == 2
        assert abs(roots[0] - (-1j)) < 1e-12
        assert abs(roots[1] - 1j) < 1e-12

    def test_rational_roots_promoted_exactly(self):
        roots, cofactor = rational_roots(UniPoly.of(1, 0, -1))
        assert roots == [F(-1), F(1)]
        assert cofactor.degree == 0

    def test_irrational_left_unpromoted(self):
        roots, cofactor = rational_roots(UniPoly.of(-2, 0, 1))
        assert roots == []
        assert cofactor.degree == 2

    def test_rational_roots_with_large_denominators(self):
        def linear(r):
            return UniPoly.of(-r, 1)

        near = linear(F(1, 1000003)) * linear(F(1, 1000033))
        roots, cofactor = rational_roots(near * UniPoly.of(-2, 0, 1))
        assert roots == [F(1, 1000033), F(1, 1000003)]
        assert cofactor.degree == 2
        roots, cofactor = rational_roots(near * linear(F(7, 1000037)))
        assert roots == [F(1, 1000033), F(1, 1000003), F(7, 1000037)]
        assert cofactor.degree == 0

    def test_rational_roots_with_multiplicity(self):
        p = UniPoly.of(F(-1, 2), 1) * UniPoly.of(F(-1, 2), 1) * UniPoly.of(3, 1)
        roots, cofactor = rational_roots(p * UniPoly.of(1, 0, 1))
        assert roots == [F(-3), F(1, 2), F(1, 2)]
        assert cofactor == UniPoly.of(1, 0, 1)

    def test_residual_bound(self):
        rng = random.Random(6)
        for _ in range(10):
            p = propcheck.random_unipoly(rng, rng.randint(2, 5))
            if p.degree < 1:
                continue
            precision = 12
            maxc = max(abs(float(c)) for c in p.coeffs)
            for z in roots_numeric(p, precision):
                assert abs(p.evaluate(z)) < 10 ** (-precision + 2) * maxc

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            roots_numeric(UniPoly.of(3))
        with pytest.raises(ValueError):
            roots_numeric(UniPoly.zero())


class TestSerialization:
    def test_unipoly_round_trip(self):
        p = UniPoly.of(1, 2)
        assert p.to_obj() == {"coeffs": ["1", "2"]}
        assert UniPoly.from_obj(p.to_obj()) == p
        assert UniPoly.from_obj({"coeffs": []}).is_zero

    def test_multipoly_round_trip(self, fixture_a):
        for poly in (fixture_a.q, fixture_a.l, fixture_a.p, fixture_a.f0):
            assert MultiPoly.from_obj(poly.to_obj()) == poly

    def test_terms_sorted_leading_first(self):
        f = MultiPoly(3, {(0, 0, 2): 1, (2, 0, 0): 1, (1, 1, 0): 1})
        exps = [tuple(t["exp"]) for t in f.to_obj()["terms"]]
        assert exps == [(2, 0, 0), (1, 1, 0), (0, 0, 2)]

    def test_rejects_degree_mismatch(self):
        with pytest.raises(InputError):
            MultiPoly.from_obj(
                {"nvars": 2, "homogeneous_degree": 3, "terms": [{"exp": [1, 1], "coef": "1"}]}
            )

    def test_rejects_bad_exponent_length(self):
        with pytest.raises(InputError):
            MultiPoly.from_obj({"nvars": 2, "terms": [{"exp": [1], "coef": "1"}]})


def test_monomial_basis_counts_and_order():
    import math

    basis = monomial_basis(5, 5)
    assert len(basis) == math.comb(9, 5) == 126
    assert basis[0] == (5, 0, 0, 0, 0)
    assert basis[-1] == (0, 0, 0, 0, 5)
    assert len(set(basis)) == 126
    assert monomial_basis(5, 1) == [
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
    ]
