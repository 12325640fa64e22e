"""Invariant-function dimension, certificates, and constructive splits."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    BLOCK4,
    FOUR_LOOPS,
    IDENT2,
    THREE_LOOPS,
    conditional_expectation,
    solved_base,
    stock_systems,
    weight_full_half,
    weight_markov_full,
)
from shiftpath import (
    CylinderFunction,
    DegenerateH,
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
from shiftpath.measures import require_fixed_point


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
        rep = relative_ergodicity_dimension(shift, mu0, v)
        assert rep.solution_dim == 1, name
        assert rep.extremal_certificate, name
        assert decompose(shift, mu0, v) is None, name


def test_identity_shift_dimension_two(ident2):
    v, mu0 = flat_system(ident2)
    rep = relative_ergodicity_dimension(ident2, mu0, v)
    assert rep.solution_dim == 2
    assert not rep.extremal_certificate


def test_block_shift_dimension_two(block4):
    v, mu0 = flat_system(block4)
    rep = relative_ergodicity_dimension(block4, mu0, v)
    assert rep.solution_dim == 2


def test_block_shift_decomposition_frozen(block4):
    v, mu0 = flat_system(block4)
    dec = decompose(block4, mu0, v)
    assert dec is not None
    assert dec.weights == pytest.approx([0.5, 0.5], abs=1e-12)
    assert np.allclose(dec.densities[0].values, [2.0, 2.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(dec.densities[1].values, [0.0, 0.0, 2.0, 2.0], atol=1e-12)
    assert np.allclose(dec.components[0].masses_at(1), [0.5, 0.5, 0.0, 0.0], atol=1e-13)
    assert np.allclose(dec.components[1].masses_at(1), [0.0, 0.0, 0.5, 0.5], atol=1e-13)


def test_identity_shift_decomposition_frozen(ident2):
    v, mu0 = flat_system(ident2)
    dec = decompose(ident2, mu0, v)
    assert dec is not None
    assert dec.weights == pytest.approx([0.5, 0.5], abs=1e-12)
    assert np.allclose(dec.densities[0].values, [2.0, 0.0], atol=1e-12)
    assert np.allclose(dec.densities[1].values, [0.0, 2.0], atol=1e-12)
    assert np.allclose(dec.components[1].masses_at(1), [0.0, 1.0], atol=1e-13)


def assert_exact_decomposition(shift, mu0, v, dec, depths):
    """The components are fixed points, each certified extremal, and recombine to mu0.

    Each passes the fixed-point gate and has one component of its own;
    the weights sum to 1, each component has mu0's total mass, and
    sum_c lam_c mu_c is mu0 to rounding at every depth in `depths`.
    """
    assert sum(dec.weights) == pytest.approx(1.0, abs=1e-12)
    for comp in dec.components:
        assert comp.total_mass() == pytest.approx(mu0.total_mass(), rel=1e-12, abs=0)
        require_fixed_point(shift, v, comp, 1e-10)
        rep = relative_ergodicity_dimension(shift, comp, v)
        assert rep.solution_dim == 1 and rep.extremal_certificate
    for d in depths:
        mix = sum(lam * comp.masses_at(d) for lam, comp in zip(dec.weights, dec.components))
        assert np.abs(mix - mu0.masses_at(d)).max() <= 1e-15 * mu0.total_mass()


def test_decomposition_recombines_and_components_fixed():
    for matrix in (BLOCK4, IDENT2):
        shift = build_subshift(matrix)
        v, mu0 = flat_system(shift)
        dec = decompose(shift, mu0, v)
        assert_exact_decomposition(shift, mu0, v, dec, range(1, 4))
        for comp in dec.components:
            for depth in range(1, 4):
                assert check_fixed_point(shift, v, comp, depth) <= 1e-11
        # the components are genuinely different measures
        assert np.abs(dec.components[0].masses_at(1) - dec.components[1].masses_at(1)).max() > 0.1


def test_components_are_distinct_from_base(block4):
    v, mu0 = flat_system(block4)
    dec = decompose(block4, mu0, v)
    assert np.abs(dec.components[0].masses_at(1) - mu0.masses_at(1)).max() > 0.1


def test_no_essential_direction_returns_none(ident2):
    """A base charging one class only has one component, and a base of no mass is refused.

    The uncharged word of the first is mu0-null: it once counted as a
    second closed class and a second dimension that no mass could split.
    The fixed-point gate refuses the base of no mass with DegenerateH,
    as it does for `build_path_measure`.
    """
    one = CylinderFunction.constant(ident2, 1.0)
    mu0 = RawMeasure(ident2, 2, np.array([1.0, 0.0]))
    rep = relative_ergodicity_dimension(ident2, mu0, one)
    assert rep.solution_dim == 1 and rep.extremal_certificate
    assert rep.basis.tolist() == [[1.0], [0.0]]
    assert decompose(ident2, mu0, one) is None
    empty = RawMeasure(ident2, 2, np.zeros(2))
    for solve in (relative_ergodicity_dimension, decompose):
        with pytest.raises(DegenerateH, match="no mass"):
            solve(ident2, empty, one)


@pytest.mark.parametrize("p", [1e-3, 1e-4, 1e-8])
def test_small_bernoulli_masses_are_steps(full2, p):
    """A Bernoulli(p) base on the full 2-shift is ergodic however small p is.

    Base masses are read as given: a floor of 1e-12 of the total once cut
    the words with many 2s out of the walk, which gave dimension 7, 17 and
    27 at the conditioning depth 5 and a false split at p = 1e-4.
    """
    twos = np.array([word.count(2) for word in full2.words(6)])
    mu0 = RawMeasure(full2, 6, p**twos * (1 - p) ** (6 - twos))
    rep = relative_ergodicity_dimension(full2, mu0, CylinderFunction.constant(full2, 1.0))
    assert rep.depth == 5
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
        relative_ergodicity_dimension(full2, skew, v)


def test_precheck_rejects_a_nan_residual(full2):
    """A NaN residual is no fixed point, even under an infinite tolerance."""
    v = weight_full_half(full2)
    rho = strongly_invariant_measure(full2)
    broken = DensityMeasure(CylinderFunction(full2, 1, np.array([np.nan, 1.0])), rho)
    with pytest.raises(NotFixedPoint):
        relative_ergodicity_dimension(full2, broken, v, tol=float("inf"))


def test_report_carries_class_sizes(full2, ident2):
    v = weight_markov_full(full2)
    mu0 = solved_base(full2, v)
    rep = relative_ergodicity_dimension(full2, mu0, v)
    assert rep.depth == 1 and rep.class_sizes == [2]
    assert rep.base_residual <= 1e-11
    # a base on one class of the identity shift: the charged word is one
    # closed class, and the uncharged word leaves the walk
    one = CylinderFunction.constant(ident2, 1.0)
    mu0 = RawMeasure(ident2, 2, np.array([1.0, 0.0]))
    assert relative_ergodicity_dimension(ident2, mu0, one).class_sizes == [1]


def test_deep_block_shift_stays_sparse():
    """A depth-15 weight conditions on the 32768 words of depth 14: the dense system alone would take 8 GiB."""
    shift = build_subshift(BLOCK4)
    _, mu0 = flat_system(shift)
    v = CylinderFunction.constant(shift, 1.0, 15)
    tracemalloc.start()
    try:
        rep = relative_ergodicity_dimension(shift, mu0, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shift.word_count(14) == 32768
    assert rep.solution_dim == 2
    assert rep.class_sizes == [16384, 16384]
    assert peak < 64 * 2**20
    dec = decompose_report(shift, mu0, rep)
    assert dec.weights == pytest.approx([0.5, 0.5], abs=1e-12)


def one_block_base(shift):
    """BLOCK4's base of density 2 on the block {1, 2} and 0 on {3, 4}: one irreducible block, ergodic."""
    return DensityMeasure(CylinderFunction(shift, 1, np.array([2.0, 2.0, 0.0, 0.0])),
                          strongly_invariant_measure(shift))


@pytest.mark.parametrize("depth", [3, 10, 11])
def test_a_base_on_one_block_is_extremal(depth):
    """The uncharged words of the block {3, 4} are mu0-null: they leave the walk and the basis.

    A flat weight of depth depth + 1 conditions on the words of `depth`.
    Each uncharged word once counted as a closed class and a free
    dimension: solution_dim was 9, 1025 and 2049 at depths 3, 10 and 11.
    """
    shift = build_subshift(BLOCK4)
    one = CylinderFunction.constant(shift, 1.0, depth + 1)
    rep = relative_ergodicity_dimension(shift, one_block_base(shift), one)
    assert rep.solution_dim == 1 and rep.extremal_certificate
    assert rep.class_sizes == [2**depth]
    assert rep.basis.shape == (2 ** (depth + 1), 1)
    # 1 on the charged words of the block {1, 2}, which come first, and 0 on the null ones
    assert rep.basis[: 2**depth].min() == 1.0 and not rep.basis[2**depth :].any()


def test_a_deep_base_on_one_block_stays_small():
    """32768 words at depth 14, half of them null: the free columns alone once took 4 GiB."""
    shift = build_subshift(BLOCK4)
    one = CylinderFunction.constant(shift, 1.0, 15)
    mu0 = one_block_base(shift)
    tracemalloc.start()
    try:
        rep = relative_ergodicity_dimension(shift, mu0, one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.solution_dim == 1 and rep.class_sizes == [16384]
    assert peak < 64 * 2**20


def test_many_classes_below_the_conditioning_depth():
    """Base mass on one block of BLOCK4 under a depth-9 weight: one class, one component.

    The walk runs at the conditioning depth 8, whatever depth its result
    is read at.  The 256 uncharged depth-8 words are mu0-null and leave
    the walk; each was once a closed class of its own, for solution_dim 65
    at depth 6 and class sizes [256] + [1] * 256.
    """
    shift = build_subshift(BLOCK4)
    v = CylinderFunction.constant(shift, 1.0, 9)
    mu0 = one_block_base(shift)
    rep = relative_ergodicity_dimension(shift, mu0, v)
    assert rep.depth == 8 and rep.solution_dim == 1
    assert rep.class_sizes == [256]
    assert decompose_report(shift, mu0, rep) is None


def flat_block4():
    shift = build_subshift(BLOCK4)
    return (shift, *flat_system(shift))


def three_blocks():
    """Three closed 2-symbol blocks, with a depth-4 weight and its solved base."""
    shift = build_subshift([[1 if i // 2 == j // 2 else 0 for j in range(6)] for i in range(6)])
    v = CylinderFunction.constant(shift, 1.0, 4)
    return shift, v, solved_base(shift, v)


def full3_two_loops():
    """The full 3-shift, its depth-2 weight 3 on 11 and 33, 0 on 21 31 13 23, and 1.2, 0.9, 0.9 on
    12 22 32, and its solved base: two loops, 1...1 and 3...3, that the words through 2 lead into."""
    shift = build_subshift([[1, 1, 1]] * 3)
    table = {(1, 1): 3.0, (3, 3): 3.0, (2, 1): 0.0, (3, 1): 0.0, (1, 3): 0.0, (2, 3): 0.0,
             (1, 2): 1.2, (2, 2): 0.9, (3, 2): 0.9}
    v = CylinderFunction.from_table(shift, 2, table)
    return shift, v, solved_base(shift, v)


def test_three_blocks_decompose_below_the_conditioning_depth():
    """Three closed 2-symbol blocks, split at the conditioning depth 3 and read at depth 1 below it.

    Each component's symbol masses are mu0's on its own block and 0 on the others.
    """
    shift, v, mu0 = three_blocks()
    rep = relative_ergodicity_dimension(shift, mu0, v)
    assert rep.depth == 3 and rep.solution_dim == 3
    dec = decompose_report(shift, mu0, rep)
    assert dec.weights == pytest.approx([1 / 3] * 3, abs=1e-12)
    symbols = mu0.masses_at(1)
    for c, comp in enumerate(dec.components):
        block = np.arange(6) // 2 == c
        np.testing.assert_allclose(comp.masses_at(1), np.where(block, 3 * symbols, 0.0), rtol=1e-12, atol=0)
    assert_exact_decomposition(shift, mu0, v, dec, range(1, 4))
    for comp in dec.components:
        for depth in range(1, 4):
            assert check_fixed_point(shift, v, comp, depth) <= 1e-10


@pytest.mark.parametrize("system, weights", [
    (flat_block4, [0.5, 0.5]),
    (three_blocks, [1 / 3] * 3),
    (full3_two_loops, [11 / 21, 10 / 21]),
], ids=["block4", "three-blocks", "full3-two-loops"])
def test_components_at_the_conditioning_depth_are_extremal_fixed_points(system, weights):
    """At the conditioning depth every component passes the gate and its own certificate."""
    shift, v, mu0 = system()
    dec = decompose(shift, mu0, v)
    assert dec.weights == pytest.approx(weights, abs=1e-12)
    assert_exact_decomposition(shift, mu0, v, dec, range(1, dec.report.depth + 2))


def test_components_below_the_conditioning_depth_recombine():
    """The loops' components, solved at the conditioning depth 2, recombine to mu0 at depth 1 below it.

    Those depth-1 masses are what `ergodicity --depth 1` writes.
    """
    for system in (THREE_LOOPS, FOUR_LOOPS):
        shift, v, mu0 = fed_loops(system)
        dec = decompose(shift, mu0, v)
        assert dec.report.depth == 2
        assert_exact_decomposition(shift, mu0, v, dec, (1,))


def fed_loops(system):
    matrix, values = system
    shift = build_subshift(matrix)
    v = CylinderFunction(shift, 3, values)
    return shift, v, solved_base(shift, v)


def test_one_fibre_ties_three_loops_by_one_equation():
    """Three loops that the depth-1 fibre of 4 ties by f(3) = (f(1) + f(2)) / 2 are three components.

    The tie binds only functions of the first symbol, which are not the
    invariant functions of mu0: at the conditioning depth 2 each loop is a
    closed class, and 41 and 42 are absorbed into the first two half each.
    A solve at depth 1 once saw two dimensions, and certified neither the
    two components it returned.
    """
    shift, v, mu0 = fed_loops(THREE_LOOPS)
    rep = relative_ergodicity_dimension(shift, mu0, v)
    assert rep.solution_dim == 3 and not rep.extremal_certificate
    assert rep.depth == 2 and rep.class_sizes == [1, 1, 1]
    loops = np.repeat(np.eye(3), 4, axis=0)
    np.testing.assert_allclose(rep.basis, np.r_[loops, [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 1], [0, 0, 1]]],
                               rtol=0, atol=1e-12)
    dec = decompose_report(shift, mu0, rep)
    assert dec.weights == pytest.approx([0.3125, 0.3125, 0.375], abs=1e-12)
    assert_exact_decomposition(shift, mu0, v, dec, range(1, 4))


def test_four_loops_tied_by_one_equation_split_into_nonnegative_components():
    """Four loops that the depth-1 fibre of 5 ties by f(1) + f(2) = f(3) + f(4) are four extremal components.

    Below the conditioning depth 2 that tie once left three dimensions,
    and Lagrange columns mixed with the constants gave three components
    whose own certificates read 3, 3 and 2.  At depth 2 every component is
    a nonnegative absorption column, extremal on its own.
    """
    shift, v, mu0 = fed_loops(FOUR_LOOPS)
    rep = relative_ergodicity_dimension(shift, mu0, v)
    assert rep.solution_dim == 4 and rep.class_sizes == [1, 1, 1, 1]
    assert rep.basis.min() >= 0
    np.testing.assert_allclose(rep.basis.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    dec = decompose_report(shift, mu0, rep)
    assert dec.weights == pytest.approx([0.26, 0.26, 0.24, 0.24], abs=1e-12)
    assert_exact_decomposition(shift, mu0, v, dec, range(1, 4))
