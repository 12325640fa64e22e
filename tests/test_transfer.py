"""Preimage-averaging operator: action, matrices, fixed function and functional."""

import numpy as np
import pytest

from conftest import (
    BLOCK4,
    FULL2,
    GOLDEN,
    brute_transfer,
    function_dict,
    random_function,
    random_weight,
    slow_leak_weight,
    weight_full_half,
    weight_markov_golden,
)
from shiftpath import (
    CylinderFunction,
    DepthTooShallow,
    NotSubNormalized,
    apply_transfer,
    build_subshift,
    check_weight_pushforward,
    iterate_fixed_function,
    left_fixed_functional,
    strongly_invariant_measure,
    transfer_matrix,
    weight_product,
)


def test_full_shift_matrix_frozen(full2):
    """V = (3/2, 1/2) averages to the rank-one matrix [[3/4,1/4],[3/4,1/4]]."""
    op = transfer_matrix(full2, weight_full_half(full2), 1)
    assert np.allclose(op, [[0.75, 0.25], [0.75, 0.25]], atol=1e-15)


def test_golden_flat_matrix_frozen(golden):
    op = transfer_matrix(golden, CylinderFunction.constant(golden, 1.0), 1)
    assert np.allclose(op, [[0.5, 0.5], [1.0, 0.0]], atol=1e-15)


def test_transfer_matrix_depth_guard(golden):
    v = weight_markov_golden(golden)
    with pytest.raises(DepthTooShallow):
        transfer_matrix(golden, v, 0)
    assert transfer_matrix(golden, v, 1).shape == (2, 2)


def test_apply_transfer_matches_brute_force():
    rng = np.random.default_rng(41)
    for matrix in (FULL2, GOLDEN):
        shift = build_subshift(matrix)
        for _ in range(20):
            v = random_weight(shift, rng, int(rng.integers(1, 4)))
            f = random_function(shift, rng, int(rng.integers(1, 4)))
            out = apply_transfer(shift, v, f)
            expected = brute_transfer(
                matrix, function_dict(v), function_dict(f), out.depth
            )
            for w, got in zip(shift.words(out.depth), out.values):
                assert got == pytest.approx(expected[w], abs=1e-13)


def test_apply_transfer_output_depth(golden):
    v = random_weight(golden, np.random.default_rng(5), 3)
    f = random_function(golden, np.random.default_rng(6), 2)
    assert apply_transfer(golden, v, f).depth == 2
    assert apply_transfer(golden, CylinderFunction.constant(golden, 1.0), f).depth == 1
    one = CylinderFunction.constant(golden, 1.0)
    assert apply_transfer(golden, one, one).depth == 1


def test_matrix_agrees_with_action(golden):
    rng = np.random.default_rng(8)
    v = random_weight(golden, rng, 2)
    f = random_function(golden, rng, 2)
    via_matrix = transfer_matrix(golden, v, 2) @ f.values
    direct = apply_transfer(golden, v, f).promote(2).values
    assert np.allclose(via_matrix, direct, atol=1e-14)


def test_fixed_function_full_shift(full2):
    res = iterate_fixed_function(full2, weight_full_half(full2))
    assert res.status == "converged"
    assert np.allclose(res.h.values, [1.0, 1.0], atol=1e-12)
    assert res.residual <= 1e-13


def test_fixed_function_markov_weights(golden, full2):
    from conftest import weight_markov_full

    for shift, v in ((golden, weight_markov_golden(golden)), (full2, weight_markov_full(full2))):
        res = iterate_fixed_function(shift, v)
        assert res.status == "converged"
        assert np.allclose(res.h.values, 1.0, atol=1e-12)


def test_iteration_requires_sub_normalization(full2):
    v = CylinderFunction.from_table(full2, 1, {(1,): 1.5, (2,): 0.6})
    with pytest.raises(NotSubNormalized):
        iterate_fixed_function(full2, v)


def test_degenerate_weight_detected(full2):
    res = iterate_fixed_function(full2, CylinderFunction.constant(full2, 0.5))
    assert res.status == "degenerate"
    assert np.abs(res.h.values).max() < 1e-9


def test_monotone_iteration_random_weights():
    """Sub-normalized weights must descend pointwise from the constant 1."""
    rng = np.random.default_rng(17)
    for matrix in (FULL2, GOLDEN):
        shift = build_subshift(matrix)
        one = CylinderFunction.constant(shift, 1.0)
        for _ in range(10):
            raw = random_weight(shift, rng, int(rng.integers(1, 3)))
            bound = apply_transfer(shift, raw, one).values.max()
            v = raw * (rng.uniform(0.4, 1.0) / bound)
            f = CylinderFunction.constant(shift, 1.0, max(v.depth - 1, 1))
            for _ in range(60):
                nxt = apply_transfer(shift, v, f)
                assert (nxt.values - f.values).max() <= 1e-12
                f = nxt
            res = iterate_fixed_function(shift, v)
            assert res.status in ("converged", "degenerate")
            fixed = apply_transfer(shift, v, res.h)
            assert np.abs(fixed.values - res.h.promote(fixed.depth).values).max() <= 1e-11


def test_fixed_function_of_a_slowly_leaking_word(full2):
    """h(2) = (1e-4 / 2) / 1e-4 = 1/2, which T^n 1 nears only by a factor 1 - 1e-4 per step."""
    res = iterate_fixed_function(full2, slow_leak_weight(full2))
    assert res.status == "converged"
    assert np.abs(res.h.values - [1.0, 0.5]).max() <= 1e-12


def test_fixed_function_keeps_tiny_positive_values(full2):
    """h(2) = 1e-20 + h(2) / 2, so h = (1, 2e-20): zero only where no path keeps mass."""
    res = iterate_fixed_function(full2, slow_leak_weight(full2, stay=1.0, leave=2e-20))
    assert res.h.values[0] == 1.0
    assert res.h.values[1] == pytest.approx(2e-20, rel=1e-12, abs=0.0)


def test_monotonicity_violation_guard(full2):
    """A weight just over normalization, by more than NORMALIZED_SLACK, is refused."""
    v = CylinderFunction.constant(full2, 1.0 + 1e-11)
    with pytest.raises(NotSubNormalized):
        iterate_fixed_function(full2, v)


@pytest.mark.parametrize("values", [(2.0, 2.0), (1.0, np.nan)], ids=["grows", "nan"])
def test_left_functional_requires_sub_normalization(full2, values):
    """A weight whose mass grows, or that holds a NaN, has no functional to return, not None."""
    v = CylinderFunction(full2, 1, np.array(values))
    with pytest.raises(NotSubNormalized):
        left_fixed_functional(full2, v)
    with pytest.raises(NotSubNormalized):
        iterate_fixed_function(full2, v)


def test_left_functional_full_shift(full2):
    nu = left_fixed_functional(full2, weight_full_half(full2))
    assert np.allclose(nu.masses, [0.75, 0.25], atol=1e-12)
    # pairing with h = 1 is 1
    assert nu.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_left_functional_fixed_under_matrix(golden):
    v = weight_markov_golden(golden)
    nu = left_fixed_functional(golden, v)
    op = transfer_matrix(golden, v, nu.depth)
    assert np.abs(op.T @ nu.masses - nu.masses).max() <= 1e-10


CHAIN3 = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]


def test_left_functional_skips_zero_weight_branches():
    """Points starting with 1 get all their weight from prepending 1; all others leak.

    The zero-weight branches 2 1 ... are no edges of the operator's graph,
    so 1 1 ... is a closed class by itself and carries the whole functional.
    """
    shift = build_subshift(CHAIN3)
    words = shift.symbols_array(3)
    leaky = np.where(words[:, 1] == 1, np.where(words[:, 0] == 1, 2.0, 0.0), 0.9)
    v = CylinderFunction(shift, 3, leaky)
    for depth in (2, 3, 4):
        nu = left_fixed_functional(shift, v, depth)
        expected = np.zeros(shift.word_count(depth))
        expected[shift.word_index((1,) * depth)] = 1.0
        assert nu.masses.tolist() == expected.tolist()


def test_left_functional_none_when_every_class_leaks(full2):
    assert left_fixed_functional(full2, CylinderFunction.constant(full2, 0.5)) is None


def test_left_functional_takes_the_first_closed_class():
    """Two closed classes conserve mass; the functional lives on the one of symbols 1, 2."""
    shift = build_subshift(BLOCK4)
    p = np.array(
        [[0.25, 0.625, 0, 0], [0.75, 0.375, 0, 0], [0, 0, 0.5, 0.125], [0, 0, 0.5, 0.875]]
    )
    a, j = shift.symbols_array(2).T - 1
    v = CylinderFunction(shift, 2, p[a, j] * shift.column_sums[j])
    assert np.allclose(left_fixed_functional(shift, v).masses, [5 / 11, 6 / 11, 0, 0])
    for depth in (2, 3):
        nu = left_fixed_functional(shift, v, depth)
        first = shift.symbols_array(depth)[:, 0]
        assert (nu.masses[first > 2] == 0).all()
        assert nu.masses[first <= 2].min() > 0
        assert nu.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_weight_pushforward_identity():
    """Integrals of running products against rho match iterated averaging."""
    rng = np.random.default_rng(23)
    for matrix in (FULL2, GOLDEN):
        shift = build_subshift(matrix)
        rho = strongly_invariant_measure(shift)
        for _ in range(25):
            v = random_weight(shift, rng, int(rng.integers(1, 4)))
            f = random_function(shift, rng, int(rng.integers(1, 4)))
            n = int(rng.integers(1, 5))
            assert check_weight_pushforward(shift, v, f, rho, n) <= 1e-12


def test_weight_pushforward_by_hand(full2):
    """One fully hand-computed case: V=(3/2,1/2), f=indicator of [1], n=2."""
    rho = strongly_invariant_measure(full2)
    v = weight_full_half(full2)
    f = CylinderFunction.indicator(full2, (1,))
    w2 = weight_product(v, 2)
    # E[V(x) V(rx) 1_{[1]}(x)] over the uniform Bernoulli measure:
    # first symbol must be 1 (weight 3/2), second averages (3/2+1/2)/2 = 1
    expect = 0.5 * 1.5 * 1.0
    got = float(w2.values @ (f.promote(2).values * rho.masses_at(2)))
    assert got == pytest.approx(expect, abs=1e-14)
    assert check_weight_pushforward(full2, v, f, rho, 2) <= 1e-14


def test_product_weight(golden):
    rng = np.random.default_rng(29)
    a = random_weight(golden, rng, 1)
    b = random_weight(golden, rng, 2)
    c = a * b
    for w in golden.words(2):
        assert c.value(w) == pytest.approx(a.value(w) * b.value(w), abs=1e-15)
