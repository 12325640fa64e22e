"""Invariant-function dimension, certificates, and constructive splits."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    BLOCK4,
    IDENT2,
    conditional_expectation,
    solved_base,
    stock_systems,
    weight_full_half,
    weight_markov_full,
)
from shiftpath import (
    CylinderFunction,
    DensityMeasure,
    NotFixedPoint,
    RawMeasure,
    build_subshift,
    check_fixed_point,
    decompose,
    decompose_report,
    relative_ergodicity_dimension,
    strongly_invariant_measure,
)
from shiftpath.extremality import _null_space


def flat_system(shift):
    one = CylinderFunction.constant(shift, 1.0)
    mu0 = DensityMeasure(CylinderFunction.constant(shift, 1.0), strongly_invariant_measure(shift))
    return one, mu0


def test_conditional_expectation_constant_weight(full2):
    """With V normalized, conditioning the constant 1 returns 1."""
    v = weight_full_half(full2)
    mu0 = solved_base(full2, v)
    one = CylinderFunction.constant(full2, 1.0)
    g = conditional_expectation(full2, mu0, v, one)
    assert np.allclose(g.values, 1.0, atol=1e-13)


def test_conditional_expectation_bound(golden):
    rng = np.random.default_rng(61)
    v, mu0 = flat_system(golden)
    for _ in range(10):
        g = CylinderFunction(golden, 2, rng.uniform(-3, 3, golden.word_count(2)))
        out = conditional_expectation(golden, mu0, v, g)
        assert np.abs(out.values).max() <= np.abs((v * g).values).max() + 1e-13


def test_conditional_expectation_hand_case(full2):
    """Flat system on the full shift: conditioning just averages branches."""
    v, mu0 = flat_system(full2)
    g = CylinderFunction.from_table(full2, 1, {(1,): 4.0, (2,): -2.0})
    out = conditional_expectation(full2, mu0, v, g)
    assert np.allclose(out.values, 1.0, atol=1e-14)  # (4 - 2) / 2


def test_extremal_systems_have_dimension_one():
    for name, shift, v in stock_systems():
        if name in ("block_flat",):
            continue
        mu0 = solved_base(shift, v)
        for depth in (1, 2):
            rep = relative_ergodicity_dimension(shift, mu0, v, depth)
            assert rep.solution_dim == 1, name
            assert rep.extremal_certificate, name
            assert decompose(shift, mu0, v, depth) is None, name


def test_identity_shift_dimension_two(ident2):
    v, mu0 = flat_system(ident2)
    rep = relative_ergodicity_dimension(ident2, mu0, v, 1)
    assert rep.solution_dim == 2
    assert not rep.extremal_certificate


def test_block_shift_dimension_two(block4):
    v, mu0 = flat_system(block4)
    for depth in (1, 2):
        rep = relative_ergodicity_dimension(block4, mu0, v, depth)
        assert rep.solution_dim == 2


def test_block_shift_decomposition_frozen(block4):
    v, mu0 = flat_system(block4)
    dec = decompose(block4, mu0, v, 1)
    assert dec is not None
    assert dec.lam == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(dec.f1.values, [2.0, 2.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(
        dec.f2.values, [2.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0], atol=1e-12
    )
    assert np.allclose(dec.mu1.masses_at(1), [0.5, 0.5, 0.0, 0.0], atol=1e-13)
    assert np.allclose(
        dec.mu2.masses_at(1),
        [1.0 / 6.0, 1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0],
        atol=1e-13,
    )


def test_identity_shift_decomposition_frozen(ident2):
    v, mu0 = flat_system(ident2)
    dec = decompose(ident2, mu0, v, 1)
    assert dec is not None
    assert dec.lam == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(dec.f1.values, [2.0, 0.0], atol=1e-12)
    assert np.allclose(dec.f2.values, [2.0 / 3.0, 4.0 / 3.0], atol=1e-12)
    assert np.allclose(dec.mu2.masses_at(1), [1.0 / 3.0, 2.0 / 3.0], atol=1e-13)


def test_decomposition_recombines_and_components_fixed():
    for matrix in (BLOCK4, IDENT2):
        shift = build_subshift(matrix)
        v, mu0 = flat_system(shift)
        dec = decompose(shift, mu0, v, 1)
        for depth in range(1, 4):
            mix = dec.lam * dec.mu1.masses_at(depth) + (1 - dec.lam) * dec.mu2.masses_at(depth)
            assert np.abs(mix - mu0.masses_at(depth)).max() <= 1e-13
        for comp in (dec.mu1, dec.mu2):
            assert comp.total_mass() == pytest.approx(1.0, abs=1e-12)
            for depth in range(1, 4):
                assert check_fixed_point(shift, v, comp, depth) <= 1e-11
        # the components are genuinely different measures
        assert np.abs(dec.mu1.masses_at(1) - dec.mu2.masses_at(1)).max() > 0.1


def test_components_are_distinct_from_base(block4):
    v, mu0 = flat_system(block4)
    dec = decompose(block4, mu0, v, 1)
    assert np.abs(dec.mu1.masses_at(1) - mu0.masses_at(1)).max() > 0.1


def test_no_essential_direction_returns_none(ident2):
    """A base charging one class only cannot be split at depth 1, nor can a base of no mass."""
    one = CylinderFunction.constant(ident2, 1.0)
    mu0 = RawMeasure(ident2, 2, np.array([1.0, 0.0]))
    rep = relative_ergodicity_dimension(ident2, mu0, one, 1)
    assert rep.solution_dim == 2
    assert decompose(ident2, mu0, one, 1) is None
    empty = RawMeasure(ident2, 2, np.zeros(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no mean is taken over an empty support
        assert decompose(ident2, empty, one, 1) is None


@pytest.mark.parametrize("p", [1e-3, 1e-4, 1e-8])
def test_small_bernoulli_masses_are_steps(full2, p):
    """A Bernoulli(p) base on the full 2-shift is ergodic however small p is.

    Base masses are read as given: a floor of 1e-12 of the total once cut
    the words with many 2s out of the walk, which gave dimension 7, 17 and
    27 at depth 5 and a false split at p = 1e-4.
    """
    twos = np.array([word.count(2) for word in full2.words(6)])
    mu0 = RawMeasure(full2, 6, p**twos * (1 - p) ** (6 - twos))
    rep = relative_ergodicity_dimension(full2, mu0, CylinderFunction.constant(full2, 1.0), 5)
    assert rep.solution_dim == 1
    assert len(rep.class_sizes) == 1
    assert decompose_report(full2, mu0, rep) is None


def test_precheck_rejects_non_fixed_point(full2):
    rho = strongly_invariant_measure(full2)
    v = weight_full_half(full2)
    skew = DensityMeasure(
        CylinderFunction.from_table(full2, 1, {(1,): 1.7, (2,): 0.3}), rho
    )
    with pytest.raises(NotFixedPoint):
        relative_ergodicity_dimension(full2, skew, v, 1)


def test_precheck_rejects_a_nan_residual(full2):
    """A NaN residual is no fixed point, even under an infinite tolerance."""
    v = weight_full_half(full2)
    rho = strongly_invariant_measure(full2)
    broken = DensityMeasure(CylinderFunction(full2, 1, np.array([np.nan, 1.0])), rho)
    with pytest.raises(NotFixedPoint):
        relative_ergodicity_dimension(full2, broken, v, 1, tol=float("inf"))


def test_report_carries_class_sizes(full2, ident2):
    v = weight_markov_full(full2)
    mu0 = solved_base(full2, v)
    rep = relative_ergodicity_dimension(full2, mu0, v, 2)
    assert rep.class_sizes == [4]
    assert rep.base_residual <= 1e-11
    # a base on one class of the identity shift: the charged word is one
    # closed class, the uncharged word has no positive branch and is another
    one = CylinderFunction.constant(ident2, 1.0)
    mu0 = RawMeasure(ident2, 2, np.array([1.0, 0.0]))
    assert relative_ergodicity_dimension(ident2, mu0, one, 1).class_sizes == [1, 1]


def test_deep_block_shift_stays_sparse():
    """32768 words: the dense system alone would take 8 GiB."""
    shift = build_subshift(BLOCK4)
    v, mu0 = flat_system(shift)
    tracemalloc.start()
    try:
        rep = relative_ergodicity_dimension(shift, mu0, v, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shift.word_count(14) == 32768
    assert rep.solution_dim == 2
    assert rep.class_sizes == [16384, 16384]
    assert peak < 64 * 2**20
    dec = decompose_report(shift, mu0, rep)
    assert dec.lam == pytest.approx(0.25, abs=1e-12)


def test_null_space_of_a_tall_matrix_forms_no_tall_factor():
    """4096 x 8 probability differences: a full U factor alone would take 128 MiB."""
    rng = np.random.default_rng(7)
    probabilities = rng.dirichlet(np.ones(8), 4096)
    matrix = probabilities - probabilities[rng.permutation(4096)]
    tracemalloc.start()
    try:
        null = _null_space(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # rows of probabilities differ only along directions that sum to zero
    assert null.shape == (8, 1)
    assert np.allclose(matrix @ null, 0.0, atol=1e-12)


def test_many_classes_below_the_conditioning_depth():
    """Base mass on one block of BLOCK4: every uncharged depth-8 word is a closed class."""
    shift = build_subshift(BLOCK4)
    v = CylinderFunction.constant(shift, 1.0, 9)
    mu0 = DensityMeasure(CylinderFunction(shift, 1, np.array([2.0, 2.0, 0.0, 0.0])),
                         strongly_invariant_measure(shift))
    rep = relative_ergodicity_dimension(shift, mu0, v, 6)
    assert rep.solution_dim == 65
    assert rep.class_sizes == [256] + [1] * 256
    assert decompose_report(shift, mu0, rep) is None


def test_three_blocks_decompose_below_the_conditioning_depth():
    """Three closed 2-symbol blocks, split at depth 1 through the null space of depth 3."""
    shift = build_subshift([[1 if i // 2 == j // 2 else 0 for j in range(6)] for i in range(6)])
    v = CylinderFunction.constant(shift, 1.0, 4)
    mu0 = solved_base(shift, v)
    rep = relative_ergodicity_dimension(shift, mu0, v, 1)
    assert rep.solution_dim == 3
    dec = decompose_report(shift, mu0, rep)
    assert dec.lam == pytest.approx(1.0 / 6.0, abs=1e-12)
    for comp in (dec.mu1, dec.mu2):
        for depth in range(1, 4):
            assert check_fixed_point(shift, v, comp, depth) <= 1e-10
