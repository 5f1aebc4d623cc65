"""Standalone property suites over seeded random draws.

Each suite runs 100 exact draws; a failure raises with the violating
instance, so there is no tolerance anywhere on the rational path.
"""

import propcheck


def test_taylor_chain_rule_100_draws():
    assert propcheck.taylor_chain_rule_suite(seed=2024, draws=100) == 100


def test_euler_identity_100_draws():
    assert propcheck.euler_identity_suite(seed=2025, draws=100) == 100


def test_rank_nullity_100_draws():
    assert propcheck.rank_nullity_suite(seed=2026, draws=100) == 100


def test_kernel_annihilation_100_draws():
    assert propcheck.kernel_annihilation_suite(seed=2027, draws=100) == 100


def test_wide_kernel_basis_100_draws():
    assert propcheck.wide_kernel_basis_suite(seed=2028, draws=100) == 100


def test_stack_rank_100_draws():
    assert propcheck.stack_rank_suite(seed=2029, draws=100) == 100
