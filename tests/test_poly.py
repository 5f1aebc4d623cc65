import cmath
import math
import random
import sys
from fractions import Fraction as F

import pytest

from curvejac.errors import DimensionError, InputError
from curvejac.incidence import CurveParam, restricted_gradient
from curvejac.linalg import _PRIMES
from curvejac.poly import (
    _LABEL_DIGITS,
    MultiPoly,
    _curve_monomials,
    _decimal_digits,
    _dk_sweep,
    _gcd_degree,
    _gradient_map,
    _int_mul,
    _polyroots,
    _squarefree_rational_roots,
    coprime,
    monomial_basis,
    restrict_to_curve,
    squarefree_roots,
)

import oracles
import propcheck


def compose_with_curve(f, components):
    """f(c(t)) as a list of Fractions, for components given as Fraction
    lists."""
    table = _curve_monomials(propcheck.pairs(components))
    return oracles.unipolys(restrict_to_curve([[f]], table)[0])[0]


def complex_roots(p, digits=_LABEL_DIGITS):
    """All complex roots with multiplicity of the Fraction list p, sorted, at
    the working digits of root labels."""
    return _polyroots(propcheck.pair(p), digits)


def roots_of(p):
    """squarefree_roots of the Fraction list p."""
    return squarefree_roots(propcheck.pair(p))


def ints(*polys):
    """The integer lists of Fraction lists, each over its own denominator."""
    return [propcheck.pair(p)[1] for p in polys]


def line_components():
    return ([1], [0, 1], [], [], [])


class TestRingOps:
    def test_monomial_square(self):
        z0 = MultiPoly.monomial((1, 0, 0, 0, 0))
        assert z0 * z0 == MultiPoly.monomial((2, 0, 0, 0, 0))

    def test_difference_of_squares(self):
        assert _int_mul([1, 1], [1, -1]) == [1, 0, -1]

    def test_special_quintic_is_homogeneous(self, fixture_a):
        assert oracles.f0(fixture_a).homogeneous_degree() == 5

    def test_mul_degree_additivity(self):
        # the product of integer coefficient lists has every coefficient,
        # its lead the product of the leads; an empty factor gives []
        rng = random.Random(2)
        for _ in range(20):
            a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
            b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
            if not a or not b:
                assert _int_mul(a, b) == []
            else:
                assert len(_int_mul(a, b)) == len(a) + len(b) - 1
                assert _int_mul(a, b)[-1] == a[-1] * b[-1]

    def test_mul_matches_convolution_oracle(self):
        rng = random.Random(4)
        for _ in range(20):
            a = [rng.randint(-10**30, 10**30) for _ in range(5)]
            b = [rng.randint(-10**30, 10**30) for _ in range(4)]
            assert _int_mul(a, b) == oracles.naive_mul(a, b)

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
        assert compose_with_curve(fermat_quintic, line_components()) == [1, 0, 0, 0, 0, 1]

    def test_special_quintic_vanishes_on_curve(self, fixture_a):
        assert compose_with_curve(oracles.f0(fixture_a),
                                  oracles.components(fixture_a.c0)) == []

    def test_linear_form_on_line(self, fixture_a):
        assert compose_with_curve(fixture_a.l, line_components()) == [1, 2]

    def test_matches_naive_oracle(self):
        rng = random.Random(13)
        for _ in range(15):
            f = propcheck.random_homogeneous(rng, 3, rng.randint(1, 3))
            comps = [propcheck.random_unipoly(rng, 2) for _ in range(3)]
            got = compose_with_curve(f, comps)
            want = oracles.naive_compose(oracles.coefficients(f), comps)
            assert got == want

    def test_restrict_to_curve_equals_fraction_sums(self):
        # restrict_to_curve sums integers over each group's common
        # denominator; the plain Fraction sum is the reference, for groups of
        # forms of mixed denominators (a zero form and a bare monomial among
        # them) sharing one table, on curves with a zero component
        rng = random.Random(14)
        for _ in range(20):
            comps = [propcheck.trimmed(F(rng.randint(-9, 9), rng.choice([1, 2, 3, 10**6]))
                                       for _ in range(3)) for _ in range(3)]
            comps[rng.randrange(3)] = rng.choice([comps[0], []])
            forms = [propcheck.scaled_form(propcheck.random_homogeneous(rng, 3, rng.randint(1, 3)),
                                           F(1, rng.randint(1, 10**9))) for _ in range(4)]
            forms += [MultiPoly(3, {}), MultiPoly.monomial((1, 1, 0))]
            rng.shuffle(forms)
            cut = rng.randint(0, len(forms))
            groups = [forms[:cut], forms[cut:], [forms[0]]]
            table = _curve_monomials(propcheck.pairs(comps))
            pairs = restrict_to_curve(iter(map(iter, groups)), table)
            assert len(pairs) == 3
            for group, pair in zip(groups, pairs):
                want = [oracles.naive_compose(oracles.coefficients(f), comps) for f in group]
                assert oracles.unipolys(pair) == want

    def test_restriction_denominator_is_least(self):
        # den has no factor in common with every entry of the group, and a
        # group that restricts to zero, or has no form, has den 1
        rng = random.Random(15)
        line = propcheck.pairs(line_components())
        for _ in range(20):
            comps = propcheck.pairs([propcheck.random_unipoly(rng, 3) for _ in range(3)])
            group = [propcheck.scaled_form(propcheck.random_homogeneous(rng, 3, 2),
                                           F(rng.randint(1, 50), rng.randint(1, 10**6)))
                     for _ in range(rng.randint(1, 3))]
            (den, lists), = restrict_to_curve([group], _curve_monomials(comps))
            assert den > 0 and math.gcd(den, *(x for xs in lists for x in xs)) == 1
            assert all(type(x) is int for xs in lists for x in xs)
            assert all(xs[-1] for xs in lists if xs)
        z4 = MultiPoly.monomial((0, 0, 0, 0, 1), F(1, 7))
        z3z4 = MultiPoly.monomial((0, 0, 0, 1, 1), F(5, 3))
        assert restrict_to_curve([[z4, z3z4], [], [MultiPoly(5, {})]], _curve_monomials(line)) == [
            (1, [[], []]), (1, []), (1, [[]])]

    def test_groups_keep_their_own_denominators(self):
        # one draw's matrix never grows with another's: each group's pair is
        # what restricting that group alone gives, although they share a table
        rng = random.Random(16)
        for _ in range(10):
            comps = propcheck.pairs([propcheck.random_unipoly(rng, 2) for _ in range(3)])
            small = [propcheck.random_homogeneous(rng, 3, 2) for _ in range(2)]
            big = [propcheck.scaled_form(f, F(1, 10**40 + 3)) for f in small]
            together = restrict_to_curve([small, big], _curve_monomials(comps))
            assert together == [restrict_to_curve([g], _curve_monomials(comps))[0]
                                for g in (small, big)]
            assert together[1][0] % together[0][0] == 0
            assert together[1][0] > together[0][0]
            assert together[0][1] == together[1][1]

    def test_restriction_builds_no_fraction(self, monkeypatch, fixture_b):
        def refuse(*args, **kwargs):
            raise AssertionError("restrict_to_curve built a Fraction")

        forms = [fixture_b.l, fixture_b.p, *(fixture_b.q.partial_derivative(m) for m in range(5)),
                 propcheck.scaled_form(fixture_b.p, F(-3, 7))]
        table = _curve_monomials(fixture_b.c0.components)
        want = restrict_to_curve([forms, forms[:2]], table)
        monkeypatch.setattr(F, "__new__", refuse)
        again = _curve_monomials(fixture_b.c0.components)
        assert restrict_to_curve([forms, forms[:2]], again) == want

    def test_a_zero_component_restricts_its_monomials_to_zero_at_once(self, monkeypatch):
        # on A's line (1, t, 0, 0, 0) 120 of the 126 quintics have a positive
        # exponent on a zero component: each restricts to (1, []) with no
        # product, and a form's terms on them, whatever their denominators,
        # add nothing to its restriction's
        products = []

        def counting_mul(a, b):
            products.append((a, b))
            return _int_mul(a, b)

        monkeypatch.setattr("curvejac.poly._int_mul", counting_mul)
        table = _curve_monomials(propcheck.pairs(line_components()))
        zero = [e for e in monomial_basis(5, 5) if any(e[2:])]
        assert len(zero) == 120 and all(table(e) == (1, []) for e in zero)
        assert products == []
        f = MultiPoly(5, {(5, 0, 0, 0, 0): 3, (0, 0, 5, 0, 0): F(1, 3), (1, 0, 0, 0, 4): F(2, 7)})
        assert restrict_to_curve([[f], [f.partial_derivative(4)]], table) == [
            (1, [[3]]), (1, [[]])]

    def test_linearity_in_f(self):
        rng = random.Random(21)
        for _ in range(15):
            f = propcheck.random_homogeneous(rng, 3, 2)
            g = propcheck.random_homogeneous(rng, 3, 2)
            comps = [propcheck.random_unipoly(rng, 2) for _ in range(3)]
            a, b = propcheck.random_fraction(rng), propcheck.random_fraction(rng)
            lhs = compose_with_curve(propcheck.scaled_form(f, a) + propcheck.scaled_form(g, b),
                                     comps)
            rhs = oracles.linear_combination((a, compose_with_curve(f, comps)),
                                             (b, compose_with_curve(g, comps)))
            assert lhs == rhs

    def test_homogeneity_in_curve(self):
        rng = random.Random(22)
        for _ in range(15):
            e = rng.randint(1, 3)
            f = propcheck.random_homogeneous(rng, 3, e)
            comps = [propcheck.random_unipoly(rng, 2) for _ in range(3)]
            lam = propcheck.random_fraction(rng)
            scaled = [oracles.linear_combination((lam, c)) for c in comps]
            assert compose_with_curve(f, scaled) == oracles.linear_combination(
                (lam**e, compose_with_curve(f, comps)))

    def test_rejects_wrong_component_count(self, fermat_quintic):
        with pytest.raises(DimensionError):
            compose_with_curve(fermat_quintic, line_components()[:4])


def iroot(x, k):
    """The largest r >= 0 with r**k <= x, for x >= 0."""
    lo, hi = 0, 1 << (x.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**k <= x else (lo, mid - 1)
    return lo


TABLE_KINDS = ("integer", "fractional", "zero-component", "slot-bound")


class TestCurveTable:
    def test_entries_are_schoolbook_products(self):
        # each entry (den, ints) of z**e is den = prod_m D_m ** e[m] over the
        # components' own denominators and ints the schoolbook product of
        # the components' integer lists, each to its power: on integer
        # curves (one-digit and 30-digit), fractional curves, curves with a
        # zero component, and curves of one-term components +-M whose
        # entries reach the slot's bound B**k = M**k itself, at either side
        # of a byte boundary; n up to 8 and degrees up to 12
        rng = random.Random(32)
        bound_hits = 0
        for draw in range(64):
            kind = TABLE_KINDS[draw % len(TABLE_KINDS)]
            n, k = rng.randint(1, 8), rng.randint(1, 12)
            d = rng.randint(1, 2 if k > 6 else 5)
            if kind == "fractional":
                comps = propcheck.fractional_curve(draw, n, d, rng.randint(1, 20)).components
            elif kind == "slot-bound":
                # top**k is the largest power a slot of `size` bytes holds,
                # the least that needs one more byte, or 2**(8 j - 1) itself
                size = rng.randint(k, 3 * k)
                top = iroot((1 << (8 * size - 1)) - 1, k) + rng.randint(0, 1)
                if k % 2 and rng.random() < 0.4:
                    top = 1 << (7 * k % 8 + 8 * rng.randint(0, 3))
                assert (top**k).bit_length() % 8 in (0, 7), (k, top)
                comps = tuple((1, (0,) * rng.randint(0, d) + (rng.choice((top, -top)),))
                              for _ in range(n + 1))
            else:
                big = rng.choice((9, 10**30)) if kind == "integer" else 9
                comps = [(1, (*(rng.randint(-big, big) for _ in range(d)), rng.randint(1, big)))
                         for _ in range(n + 1)]
                if kind == "zero-component":
                    comps[rng.randrange(n + 1)] = (1, ())
            table = _curve_monomials(comps)
            for _ in range(4):
                e = [0] * (n + 1)
                for _ in range(k):
                    e[rng.randrange(n + 1)] += 1
                if kind == "slot-bound" and rng.random() < 0.5:
                    e = [0] * (n + 1)
                    e[rng.randrange(n + 1)] = k
                want = [1]
                for (_, xs), j in zip(comps, e):
                    for _ in range(j):
                        want = oracles.schoolbook_mul(want, list(xs))
                den, got = table(tuple(e))
                assert den == math.prod(dm**j for (dm, _), j in zip(comps, e)), (kind, e)
                assert got == want and (not got or got[-1]), (kind, comps, e)
                bound_hits += kind == "slot-bound" and max(map(abs, got)) == abs(top) ** k
        assert bound_hits >= 8

    def test_gradient_map_is_the_partials_restricted(self):
        # grad(f) is the pair restrict_to_curve gives f's partials: forms
        # with den > 1, over the whole monomial basis (one map for two forms)
        # or over their own terms, and sparse forms in 9 variables, on curves
        # with and without a zero component; restricted_gradient agrees
        rng = random.Random(33)
        fractional = 0
        for draw in range(40):
            nvars = 9 if draw % 2 else rng.randint(2, 5)
            degree = rng.randint(1, 4 if nvars == 9 else 5)
            comps = [propcheck.random_unipoly(rng, rng.randint(0, 3)) for _ in range(nvars)]
            if draw % 3 == 0:
                comps[rng.randrange(nvars)] = []
            table = _curve_monomials(propcheck.pairs(comps))
            forms = [propcheck.scaled_form(
                propcheck.random_homogeneous(rng, nvars, degree, 4 if nvars == 9 else 12),
                F(rng.randint(1, 50), rng.randint(2, 10**6))) for _ in range(2)]
            grad = _gradient_map(nvars, monomial_basis(nvars, degree), table)
            for f in forms:
                partials = [f.partial_derivative(m) for m in range(nvars)]
                want = restrict_to_curve([partials], table)[0]
                assert grad(f) == want == _gradient_map(nvars, list(f.terms), table)(f)
                fractional += f.den > 1
                if draw < 4:
                    curve = CurveParam.from_rationals(nvars - 1, 3, comps)
                    assert restricted_gradient(f, curve) == want
        assert fractional >= 70
        constant = MultiPoly(3, {(0, 0, 0): F(5, 3)})
        table = _curve_monomials(propcheck.pairs(line_components()[:3]))
        assert _gradient_map(3, [(0, 0, 0)], table)(constant) == (1, [[], [], []])


class TestGcd:
    # coprime and its fallback, Euclid over Q, against sympy's gcd
    def test_common_factor(self):
        a, b = [-1, 0, 1], [-1, 1]
        assert oracles.sympy_gcd(a, b) == [-1, 1]
        assert _gcd_degree([a, b]) == 1 and not coprime(a, b)

    def test_coprime(self):
        a, b = [1, 2], [1, 0, 0, 0, 1]
        assert oracles.sympy_gcd(a, b) == [1]
        assert _gcd_degree([a, b]) == 0 and coprime(a, b)

    def test_gcd_with_zero(self):
        # a zero polynomial is left out: gcd(p, 0) is p
        p, zero = [2, 4], []
        assert oracles.sympy_gcd(p, zero) == [F(1, 2), 1]
        assert not coprime(p, zero) and not coprime(zero, p, zero)
        assert coprime(*ints([F(1, 3)]), zero)

    def test_rejects_both_zero(self):
        assert oracles.sympy_gcd((), ()) == []
        for polys in ((), ([],) * 3):
            with pytest.raises(ValueError):
                coprime(*polys)


class TestCoprime:
    def test_agrees_with_gcd(self):
        square = propcheck.unipoly_product([F(-1, 2), 1], [F(-1, 2), 1], [3, 1])
        for a, b in [
            ([-1, 0, 1], [-1, 1]),
            ([1, 2], [1, 0, 0, 0, 1]),
            (square, propcheck.derivative(square)),
            ([2, 4], []),
            ([F(1, 3)], []),
            ([0, F(1, 7)], [0, 0, 5]),
        ]:
            assert coprime(*ints(a, b)) == (len(oracles.sympy_gcd(a, b)) == 1)

    def test_high_degree_fractional_roots_certified_mod_p(self, no_euclid):
        lc = propcheck.unipoly_product(*([-F(k, k + 1), 1] for k in range(1, 33)))
        assert coprime(*ints(lc, propcheck.derivative(lc)))
        assert coprime(*ints(lc, [1, 0, 1]))

    def test_repeated_root_lifted_from_gcd_mod_p(self, no_euclid):
        # every prime leaves the common factor t - 1/2 of lc and lc'; its
        # lift divides both exactly, which proves them not coprime
        lc = propcheck.unipoly_product([-F(1, 2), 1],
                                       *([-F(k, k + 1), 1] for k in range(1, 32)))
        assert not coprime(*ints(lc, propcheck.derivative(lc)))
        square = propcheck.unipoly_product([F(-5, 7), 1], [F(-5, 7), 1])
        assert not coprime(*ints(propcheck.unipoly_product(lc, square),
                                 propcheck.unipoly_product(square, [3, 1])))

    def test_common_factor_mod_every_prime_falls_back_to_q(self):
        # t and t + p1*p2*p3 share the factor t modulo each prime of _PRIMES
        # but are coprime over Q
        shift = math.prod(_PRIMES)
        assert coprime([0, 1], [shift, 1])
        assert not coprime([0, shift], [0, shift, 1])

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            coprime([], [])

    def test_first_prime_in_a_denominator_or_lead_decided_by_the_next(self, no_euclid):
        # _PRIMES[0] divides an integer lead, p0 in 1 + p0 t^2 (1/p0 + t^2
        # over its denominator) and 2 p0 in 1 + 2 p0 t^2: the next prime
        # proves coprimality, and lifts the common factor t - 1/3
        p0 = _PRIMES[0]
        for odd in ([F(1, p0), 0, 1], [1, 0, 2 * p0]):
            assert ints(odd)[0][-1] % p0 == 0
            assert coprime(*ints(odd, [-1, 1], [2, 0, 0, 1]))
            factor = [F(-1, 3), 1]
            assert not coprime(*ints(propcheck.unipoly_product(odd, factor),
                                     propcheck.unipoly_product(factor, [5, 1]), []))

    def test_unchanged_by_scaling_one_list(self, no_euclid):
        # the verdict is the gcd's over Q: scaling any one list by m, or by
        # -m, changes no verdict, whichever prime then decides
        p0 = _PRIMES[0]
        factor = [F(-1, 3), 1]
        cases = [ints([1, 0, 1], [-1, 1], [2, 0, 0, 1]),
                 ints(propcheck.unipoly_product([1, 0, 1], factor),
                      propcheck.unipoly_product(factor, [5, 1]), [])]
        for polys in cases:
            want = coprime(*polys)
            for k in range(len(polys)):
                for m in (2, -3, 10**30 + 7, _PRIMES[1]):
                    scaled = [[m * x for x in f] if i == k else f for i, f in enumerate(polys)]
                    assert coprime(*scaled) == want, (polys, k, m)
                scaled = [[p0 * x for x in f] if i == k else f for i, f in enumerate(polys)]
                assert coprime(*scaled) == want, (polys, k)
        assert [coprime(*polys) for polys in cases] == [True, False]

    def test_agrees_with_sympy_200_draws(self):
        assert propcheck.coprime_suite(seed=17, draws=200) == 200


class TestRoots:
    def test_linear(self):
        roots = complex_roots([1, 2])
        assert len(roots) == 1
        assert abs(roots[0] - (-0.5)) < 1e-12

    def test_pure_imaginary_pair_sorted(self):
        rational, roots = roots_of([1, 0, 1])
        assert rational == [] and len(roots) == 2
        assert abs(roots[0] - (-1j)) < 1e-12
        assert abs(roots[1] - 1j) < 1e-12

    def test_rational_roots_promoted_exactly(self):
        # all roots rational: no complex labels
        assert roots_of([1, 0, -1]) == ([(-1, 1), (1, 1)], [])

    def test_irrational_left_unpromoted(self):
        roots, labels = roots_of([-2, 0, 1])
        assert roots == []
        assert labels == pytest.approx([-math.sqrt(2), math.sqrt(2)], rel=1e-15)

    def test_rational_roots_with_large_denominators(self):
        def linear(r):
            return [-r, 1]

        near = propcheck.unipoly_product(linear(F(1, 1000003)), linear(F(1, 1000033)))
        roots, labels = roots_of(propcheck.unipoly_product(near, [-2, 0, 1]))
        assert roots == [(1, 1000033), (1, 1000003)]
        assert len(labels) == 4
        roots, labels = roots_of(propcheck.unipoly_product(near, linear(F(7, 1000037))))
        assert roots == [(1, 1000033), (1, 1000003), (7, 1000037)]
        assert labels == []

    def test_rational_roots_with_multiplicity(self):
        # a repeated root leaves the squarefree part once
        p = propcheck.unipoly_product([F(-1, 2), 1], [F(-1, 2), 1], [3, 1], [1, 0, 1])
        common = oracles.sympy_gcd(p, propcheck.derivative(p))
        sqfree = oracles.naive_divmod(p, common)[0]
        assert sqfree == propcheck.unipoly_product([F(-1, 2), 1], [3, 1], [1, 0, 1])
        roots, labels = roots_of(sqfree)
        assert roots == [(-3, 1), (1, 2)]
        assert labels == pytest.approx([-3, -1j, 1j, 0.5], rel=1e-15)

    def test_rational_roots_run_no_numeric_root_finder(self, monkeypatch):
        def refuse(p, digits):
            raise AssertionError("numeric roots computed")

        monkeypatch.setattr("curvejac.poly._polyroots", refuse)
        # the rational roots of a polynomial that does not split, which
        # squarefree_roots finds before it computes any complex label
        nonsplit = propcheck.unipoly_product([F(-1, 3), 1], [-2, 0, 1])
        assert _squarefree_rational_roots(propcheck.pair(nonsplit)) == [(1, 3)]
        split = propcheck.unipoly_product([F(-1, 3), 1], [5, 1])
        assert roots_of(split) == ([(-5, 1), (1, 3)], [])
        # a negative lead sorts the roots by value, each reduced with den > 0
        assert roots_of([F(1, 2), F(-3, 2), -2]) == ([(-1, 1), (1, 4)], [])

    def test_same_roots_and_labels_for_any_denominator(self, monkeypatch):
        # (den, ints) and (m den, m ints) are one polynomial: squarefree_roots
        # reads the height off its least denominator and the scaling exponent
        # k off each coefficient in lowest terms, so the roots, the labels
        # and every sweep of the iteration (its coefficients, so k, and its
        # bits, so the digit count) do not move
        sweeps = []

        def recorded(zs, coeffs, bits):
            sweeps.append((tuple(coeffs), bits))
            return _dk_sweep(zs, coeffs, bits)

        monkeypatch.setattr("curvejac.poly._dk_sweep", recorded)
        polys = [[1, 0, 1], [-2, 0, F(1, 10**60)], [F(1, 3), F(-7, 5), 0, F(2, 9)],
                 [10**40] * 4 + [1], propcheck.unipoly_product([F(-1, 3), 1], [5, 1])]
        for p in polys:
            den, xs = propcheck.pair(p)
            want = squarefree_roots((den, xs))
            trace, sweeps[:] = list(sweeps), []
            for m in (2, 3, 2**70, 10**40 + 1, 6**50):
                assert squarefree_roots((m * den, [m * x for x in xs])) == want, (p, m)
                assert sweeps == trace, (p, m)
                sweeps.clear()

    def test_far_roots_converge(self):
        # the iteration runs on p(2^k s), roots near the unit circle; on p
        # itself the roots near 1.4e30 never meet its absolute tolerance
        for p in ([-(2 * 10**60 + 1), 0, 1], [-2, 0, F(1, 10**60)]):
            assert [z.real for z in complex_roots(p)] == pytest.approx(
                [-1.4142135623730951e30, 1.4142135623730951e30], rel=1e-15)

    def test_crowded_roots_converge(self, monkeypatch):
        # one root near -10^60 and the six seventh roots of unity other than
        # 1; scaled by 2^-199 the six crowd near 0 and need 571 sweeps at 71
        # digits, mpmath's count too, more than 284, the cap before it
        # became 20 * 71
        sweeps = []

        def counted(zs, coeffs, bits):
            sweeps.append(bits)
            return _dk_sweep(zs, coeffs, bits)

        monkeypatch.setattr("curvejac.poly._dk_sweep", counted)
        p = [10**60] * 7 + [1]
        rational, labels = roots_of(p)
        assert len(sweeps) == 571
        assert rational == [] and len(labels) == 7
        assert labels[0] == pytest.approx(-1e60, rel=1e-15)
        unity = [cmath.exp(2j * cmath.pi * k / 7) for k in range(1, 7)]
        for z in labels[1:]:
            assert min(abs(z - u) for u in unity) < 1e-15

    def test_unconverged_roots_raise_value_error(self, monkeypatch):
        # sweeps that never shrink the corrections run to the cap,
        # max(1000, 20 * 71) at the 71 digits of this polynomial
        sweeps = []

        def unconverged(zs, coeffs, bits):
            sweeps.append(bits)
            return 1 << 2 * bits  # a correction of 1

        monkeypatch.setattr("curvejac.poly._dk_sweep", unconverged)
        p = [10**60] * 7 + [1]
        with pytest.raises(ValueError, match="did not converge in 1420 steps at 71 digits"):
            roots_of(p)
        assert len(sweeps) == 1420

    def test_decimal_digits_match_str(self):
        # the digit count of the Cauchy height sets the working digits; it
        # is taken from the bit length, and CPython's str() of an int is
        # capped at 4300 digits, so only the reference lifts the cap
        cap = sys.get_int_max_str_digits()
        for k in range(1, 5001):
            for h in (10**k - 1, 10**k, 10**k + 1):
                sys.set_int_max_str_digits(0)
                try:
                    want = len(str(h))
                finally:
                    sys.set_int_max_str_digits(cap)
                assert _decimal_digits(h) == want, k

    def test_residual_bound(self):
        rng = random.Random(6)
        for _ in range(10):
            p = propcheck.random_unipoly(rng, rng.randint(2, 5))
            if len(p) < 2:
                continue
            precision = 12
            maxc = max(abs(float(c)) for c in p)
            for z in complex_roots(p, precision + 20):
                assert abs(propcheck.evaluate(p, z)) < 10 ** (-precision + 2) * maxc


class TestSerialization:
    def test_unipoly_round_trip(self):
        # a curve's component is written and read as its coefficient list
        obj = {"n": 1, "d": 1, "components": [{"coeffs": ["1", "2"]}, {"coeffs": []}]}
        c = CurveParam.from_obj(obj)
        assert c.components == ((1, (1, 2)), (1, ()))
        assert c.to_obj() == obj
        assert CurveParam.from_obj(c.to_obj()) == c

    def test_multipoly_round_trip(self, fixture_a):
        for poly in (fixture_a.q, fixture_a.l, fixture_a.p, oracles.f0(fixture_a)):
            assert MultiPoly.from_obj(poly.to_obj()) == poly

    def test_integral_coefficients_stay_ints(self):
        # random documents of repeated terms with int, integral string and
        # 'p/q' coefficients: every coefficient is an int over the least
        # den, 1 when every term is integral, repeated terms are summed and
        # a zero sum is dropped, and the polynomial and its text are those
        # of the all-Fraction reading
        rng = random.Random(46)
        for _ in range(100):
            exps = [[rng.randint(0, 2) for _ in range(3)] for _ in range(4)]
            terms, sums, fractional = [], {}, set()
            for _ in range(rng.randint(0, 10)):
                e, k = rng.choice(exps), rng.randint(-3, 3)
                coef = rng.choice((k, str(k), f"{k}/{rng.randint(1, 3)}"))
                terms.append({"exp": e, "coef": coef})
                sums[tuple(e)] = sums.get(tuple(e), F(0)) + F(coef)
                if "/" in str(coef):
                    fractional.add(tuple(e))
            f = MultiPoly.from_obj({"nvars": 3, "terms": terms})
            want = MultiPoly(3, sums)
            assert f == want and f.to_obj() == want.to_obj()
            assert all(type(c) is int for c in f.terms.values())
            assert oracles.coefficients(f) == {e: c for e, c in sums.items() if c}
            assert f.den == math.lcm(*(c.denominator for c in sums.values()))
            assert f.den == 1 or fractional
        # the constructor takes ints and Fractions, over their least den
        f = MultiPoly(2, {(1, 0): 3, (0, 1): F(1, 2), (1, 1): 0, (2, 0): F(4, 2), (0, 2): F(3, 4)})
        assert (f.den, f.terms) == (4, {(1, 0): 12, (0, 1): 2, (2, 0): 8, (0, 2): 3})
        assert oracles.coefficients(f.partial_derivative(1)) == {(0, 0): F(1, 2), (0, 1): F(3, 2)}

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
