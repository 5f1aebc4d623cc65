"""Standalone property suites over seeded random draws.

Each suite runs about 100 exact draws; a failure raises with the violating
instance, so there is no tolerance anywhere on the rational path.  The one
floating suite, numeric_rank_suite, holds the complex path's singular
values to numpy's within 1e-13 times the largest.
"""

from sympy import isprime

import propcheck
from curvejac.linalg import _PRIMES


def test_taylor_chain_rule_100_draws():
    assert propcheck.taylor_chain_rule_suite(seed=2024, draws=100) == 100


def test_integer_chain_100_draws():
    assert propcheck.integer_chain_suite(seed=2037, draws=100) == 100


def test_symmetry_vectors_128_draws():
    # four draws at each d = 1..32
    assert propcheck.symmetry_vectors_suite(seed=2040, draws=128) == 128


def test_symmetry_annihilation_60_draws():
    assert propcheck.symmetry_annihilation_suite(seed=2041, draws=60) == 60


def test_euler_identity_100_draws():
    assert propcheck.euler_identity_suite(seed=2025, draws=100) == 100


def test_rank_nullity_100_draws():
    assert propcheck.rank_nullity_suite(seed=2026, draws=100) == 100


def test_kernel_annihilation_100_draws():
    assert propcheck.kernel_annihilation_suite(seed=2027, draws=100) == 100


def test_wide_kernel_basis_100_draws():
    assert propcheck.wide_kernel_basis_suite(seed=2028, draws=100) == 100


def test_kernel_basis_kinds_400_draws():
    # 100 draws of each kind of propcheck.KERNEL_KINDS but "wide" and
    # "mostly-zero", which run apart
    kinds = propcheck.KERNEL_KINDS[1:-1]
    assert propcheck.wide_kernel_basis_suite(seed=2034, draws=400, kinds=kinds) == 400


def test_mostly_zero_kernel_basis_120_draws():
    # 40 all-zero matrices, 40 with one nonzero column, 40 with up to a third
    kinds = ("mostly-zero",)
    assert propcheck.wide_kernel_basis_suite(seed=2042, draws=120, kinds=kinds) == 120


def test_through_kernel_100_draws():
    # 50 with at least as many rows as columns, 50 with fewer
    assert propcheck.through_kernel_suite(seed=2045, draws=100) == 100


def test_stack_rank_100_draws():
    assert propcheck.stack_rank_suite(seed=2029, draws=100) == 100


def test_modular_rank_100_draws():
    assert propcheck.modular_rank_suite(seed=2030, draws=100) == 100


def test_packed_rank_48_draws():
    assert propcheck.packed_rank_suite(seed=2038, draws=48) == 48


def test_parse_rational_300_draws():
    # 35 fixed entries at the digit limit and malformed, then 300 draws
    assert propcheck.parse_rational_suite(seed=2046, draws=300) == 335


def test_json_document_300_draws():
    assert propcheck.json_document_suite(seed=2039, draws=300) == 300


def test_moduli_are_prime():
    # A composite modulus would make the inverse of a unit-looking entry
    # raise, and its ranks would certify nothing.
    assert _PRIMES and all(isprime(p) for p in _PRIMES)


def test_rational_roots_100_draws():
    assert propcheck.rational_roots_suite(seed=2031, draws=102) == 102


def test_numeric_rank_304_draws():
    assert propcheck.numeric_rank_suite(seed=2032, draws=304) == 304


def test_int_mul_180_draws():
    assert propcheck.int_mul_suite(seed=2033, draws=180) == 180


def test_root_labels_306_draws():
    assert propcheck.root_labels_suite(seed=2035, draws=306) == 306
