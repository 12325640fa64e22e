"""The exact chain oracle on chains solved by hand."""

from fractions import Fraction as F

import exact_chain
from conftest import BLOCK4, FULL2, PERM2
from shiftpath import invariant


def test_two_state_chain_is_stationary_at_b_and_a_over_a_plus_b():
    a, b = F(1, 3), F(2, 7)
    assert exact_chain.stationary_vector([[1 - a, a], [b, 1 - b]], [0, 1]) == [b / (a + b), a / (a + b)]
    assert exact_chain.bareiss_solve([[F(0), F(2)], [F(3), F(1)]], [4, 5]) == [1, 2]  # a zero pivot


def test_gamblers_ruin_ends_at_n_from_k_with_chance_k_over_n():
    n = 7
    chain = [[F(int(j == k)) if k in (0, n) else F(int(abs(j - k) == 1), 2)
              for j in range(n + 1)] for k in range(n + 1)]
    classes = exact_chain.closed_classes(chain)
    assert [c.tolist() for c in classes] == [[0], [n]]
    assert exact_chain.absorption(chain, classes[1:]) == [F(k, n) for k in range(n + 1)]


def test_the_periodic_class_of_perm2_is_uniform():
    half = [F(1, 2)] * 2
    assert exact_chain.invariant_measure(PERM2) == (half, 1)
    assert exact_chain.fixed_vectors(PERM2, {(1,): 1.0, (2,): 1.0}, 1) == ([1, 1], half)


def test_a_chain_that_leaks_everywhere_has_h_zero():
    """Both words keep 1 - 2**-11 of their mass per step; the slack is the package's."""
    assert exact_chain.fixed_vectors(FULL2, {(1,): 1.0, (2,): 1.0 - 2.0**-10}, 1) == ([0, 0], None)
    assert exact_chain.NORMALIZED_SLACK == invariant.NORMALIZED_SLACK


def test_a_rank_deficient_system_has_one_null_vector_per_free_column():
    """The second row is twice the first, and the third column is zero, so it is free."""
    rows = [[1, 2, 0, 3], [2, 4, 0, 6], [0, 0, 0, 1]]
    assert exact_chain.null_space(rows, 4) == [[-2, 1, 0, 0], [0, 0, 1, 0]]


def test_the_flat_full_2_shift_has_only_the_constants_at_depth_1():
    assert exact_chain.invariant_functions(FULL2, {(1,): 1.0, (2,): 1.0}, [0.25] * 4, 1) == [[1, 1]]


def test_flat_block4_has_the_two_block_indicators_at_depth_1():
    flat = {(a,): 1.0 for a in range(1, 5)}
    basis = exact_chain.invariant_functions(BLOCK4, flat, [0.125] * 8, 1)
    assert basis == [[1, 1, 0, 0], [0, 0, 1, 1]]


def test_a_base_on_one_block_of_block4_has_only_its_indicator():
    """The words of the uncharged block are mu0-null: no equation, and 0 in the basis."""
    flat = {(a,): 1.0 for a in range(1, 5)}
    basis = exact_chain.invariant_functions(BLOCK4, flat, [0.25] * 4 + [0.0] * 4, 1)
    assert basis == [[1, 1, 0, 0]]
