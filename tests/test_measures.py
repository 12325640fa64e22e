"""Measure containers, the two transform routes, and fixed-point solvers."""

import numpy as np
import pytest

from conftest import (
    BLOCK4,
    FULL2,
    GOLDEN,
    brute_pushforward,
    function_dict,
    measure_dict,
    random_function,
    random_weight,
    slow_leak_weight,
    solved_base,
    stock_systems,
    weight_full_half,
)
from shiftpath import (
    CylinderFunction,
    DegenerateH,
    DensityMeasure,
    DepthTooShallow,
    MarkovMeasure,
    NegativeWeight,
    RawMeasure,
    build_subshift,
    check_fixed_point,
    fixed_density_measure,
    masses_along_orbit,
    strongly_invariant_measure,
    transform_measure,
)
from shiftpath import subshift, transfer


def test_raw_measure_aggregation(golden):
    rho = strongly_invariant_measure(golden)
    raw = RawMeasure(golden, 3, rho.masses_at(3))
    assert np.allclose(raw.masses_at(2), rho.masses_at(2), atol=1e-14)
    assert np.allclose(raw.masses_at(1), rho.masses_at(1), atol=1e-14)
    assert raw.mass((1, 2)) == pytest.approx(rho.mass((1, 2)), abs=1e-14)
    with pytest.raises(DepthTooShallow):
        raw.masses_at(4)
    with pytest.raises(ValueError):
        RawMeasure(golden, 1, np.array([-0.5, 1.5]))


def test_raw_measure_refuses_nan(full2):
    for masses in ([np.nan, 1.0], [0.5, np.nan]):
        with pytest.raises(ValueError):
            RawMeasure(full2, 1, masses)


def test_density_measure_accessors(golden):
    rho = strongly_invariant_measure(golden)
    f = CylinderFunction.from_table(golden, 1, {(1,): 1.2, (2,): 0.6})
    mu = DensityMeasure(f, rho)
    for depth in range(1, 5):
        masses = mu.masses_at(depth)
        for w, m in zip(golden.words(depth), masses):
            assert m == pytest.approx(f.value(w) * rho.mass(w), abs=1e-14)
    assert mu.mass((1,)) == pytest.approx(1.2 * 2.0 / 3.0, abs=1e-14)
    g = CylinderFunction.indicator(golden, (2, 1))
    assert mu.integrate(g) == pytest.approx(mu.mass((2, 1)), abs=1e-14)


def test_transform_routes_agree():
    """Raw pushforward and density averaging give the same measure."""
    rng = np.random.default_rng(31)
    for matrix in (FULL2, GOLDEN):
        shift = build_subshift(matrix)
        rho = strongly_invariant_measure(shift)
        for _ in range(25):
            v = random_weight(shift, rng, int(rng.integers(1, 3)))
            d = int(rng.integers(1, 3))
            f = CylinderFunction(shift, d, rng.uniform(0.0, 2.0, shift.word_count(d)))
            mu = DensityMeasure(f, rho)
            dens = transform_measure(shift, v, mu)
            depth = dens.depth
            raw_in = RawMeasure(shift, depth + 1, mu.masses_at(depth + 1))
            raw_out = transform_measure(shift, v, raw_in, out_depth=depth)
            assert np.abs(dens.masses_at(depth) - raw_out.masses_at(depth)).max() <= 1e-13


def test_raw_transform_matches_brute_force(golden):
    rng = np.random.default_rng(37)
    rho = strongly_invariant_measure(golden)
    for _ in range(10):
        v = random_weight(golden, rng, 2)
        d = 3
        masses = rng.uniform(0.0, 1.0, golden.word_count(d))
        mu = RawMeasure(golden, d, masses)
        out = transform_measure(golden, v, mu)
        expected = brute_pushforward(
            golden.matrix.tolist(), function_dict(v), measure_dict(mu, d), d - 1
        )
        for w, m in zip(golden.words(d - 1), out.masses_at(d - 1)):
            assert m == pytest.approx(expected[w], abs=1e-13)


def test_raw_transform_depth_guard(golden):
    v = random_weight(golden, np.random.default_rng(2), 2)
    mu = RawMeasure(golden, 1, np.array([0.5, 0.5]))
    with pytest.raises(DepthTooShallow):
        transform_measure(golden, v, mu)


def test_fixed_density_full_shift(full2):
    mu0 = fixed_density_measure(full2, weight_full_half(full2))
    assert np.allclose(mu0.density.values, 1.0, atol=1e-12)
    assert mu0.total_mass() == pytest.approx(1.0, abs=1e-12)
    for depth in range(1, 6):
        assert check_fixed_point(full2, weight_full_half(full2), mu0, depth) <= 1e-12


def test_fixed_density_all_stock_systems():
    for name, shift, v in stock_systems():
        mu0 = solved_base(shift, v)
        for depth in range(1, 5):
            assert check_fixed_point(shift, v, mu0, depth) <= 1e-11, name


def test_degenerate_density_raises(full2):
    with pytest.raises(DegenerateH):
        fixed_density_measure(full2, CylinderFunction.constant(full2, 0.5))


def test_fixed_density_is_exactly_zero_off_the_kept_class():
    """Symbols 3 and 4 lose half their mass per step, so h and the density vanish there."""
    block = build_subshift(BLOCK4)
    v = CylinderFunction.from_table(block, 1, {(1,): 1.0, (2,): 1.0, (3,): 0.5, (4,): 0.5})
    mu0 = fixed_density_measure(block, v, rho=strongly_invariant_measure(block))
    assert mu0.density.values.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_fixed_density_needs_no_stationary_solve(monkeypatch):
    """h is already 1 on the kept classes, so the dual vector nu is never solved for."""
    systems = stock_systems()
    expected = [solved_base(shift, v) for _, shift, v in systems]

    def refuse(*args):
        raise AssertionError("fixed_density_measure solved for nu")

    monkeypatch.setattr(transfer, "_stationary_vector", refuse)
    for (name, shift, v), expect in zip(systems, expected):
        mu0 = solved_base(shift, v)
        assert mu0.density.depth == expect.density.depth, name
        assert mu0.density.values.tobytes() == expect.density.values.tobytes(), name


def test_mass_constant_along_orbit():
    for name, shift, v in stock_systems():
        mu0 = solved_base(shift, v)
        masses = masses_along_orbit(shift, v, mu0, 10)
        assert np.abs(masses - mu0.total_mass()).max() <= 1e-10, name


def orbit_per_depth(v, mu0, n_max):
    """The table walk: each n-step weight product integrated against mu0, the oracle of the transfer steps."""
    out, w = [], v
    for n in range(1, n_max + 1):
        out.append(mu0.integrate(w))
        w = v * w.compose_with_shift()
    return np.asarray(out)


def fresh_base(shift, v):
    """The solved base over a new copy of its rho, whose masses no depth has cached yet."""
    base = solved_base(shift, v)
    return DensityMeasure(base.density, MarkovMeasure(shift, base.rho.q, base.rho.kernel))


def test_orbit_of_a_density_base_builds_nothing_deeper_than_its_inputs(monkeypatch):
    """Transfer steps walk rho, and grow the shift's tables, no deeper than max(depth(v), depth(f)).

    The tables may reach depth 2, the least depth of one step's branch sums.
    """
    walks = []
    levels = subshift._levels
    monkeypatch.setattr(subshift, "_levels",
                        lambda shift, depth: walks.append(depth) or levels(shift, depth))
    for name, shift, v in stock_systems():
        base = fresh_base(shift, v)
        deepest = max(v.depth, base.depth)
        walks.clear()
        masses_along_orbit(shift, v, base, 10)
        assert walks and max(walks) <= deepest, name
        assert len(shift._last) - 1 <= max(deepest, 2), name


def test_orbit_of_a_density_base_is_the_table_walk_within_rounding(full2):
    """Each mass is within 10 eps of the table walk's on fixed, leaky and non-fixed bases.

    The two routes add the same terms in another order.  A reference
    measure with a non-default kernel keeps the table walk, bit for bit.
    """
    rho = strongly_invariant_measure(full2)
    skew = DensityMeasure(CylinderFunction.from_table(full2, 1, {(1,): 1.6, (2,): 0.4}), rho)
    leak = slow_leak_weight(full2)
    cases = [(name, shift, v, solved_base(shift, v)) for name, shift, v in stock_systems()]
    cases += [("leaky", full2, leak, solved_base(full2, leak)),
              ("skew", full2, weight_full_half(full2), skew)]
    for name, shift, v, base in cases:
        masses = masses_along_orbit(shift, v, base, 10)
        expected = orbit_per_depth(v, base, 10)
        assert np.all(np.abs(masses - expected) <= 10 * np.finfo(float).eps * expected), name
    sticky = MarkovMeasure(full2, [0.5, 0.5], kernel=[[0.8, 0.2], [0.2, 0.8]])
    base = DensityMeasure(skew.density, sticky)
    v = weight_full_half(full2)
    assert masses_along_orbit(full2, v, base, 6).tobytes() == orbit_per_depth(v, base, 6).tobytes()


def test_orbit_of_a_density_base_refuses_a_signed_weight(full2):
    """The transfer steps refuse a signed weight with NegativeWeight, as transform_measure does."""
    signed = CylinderFunction.from_table(full2, 1, {(1,): 1.5, (2,): -0.5})
    base = DensityMeasure(CylinderFunction.constant(full2, 1.0), strongly_invariant_measure(full2))
    with pytest.raises(NegativeWeight):
        masses_along_orbit(full2, signed, base, 3)


def test_orbit_of_a_raw_base_refuses_a_signed_weight(full2):
    """The table walk of a raw base refuses a signed weight too, before it integrates anything."""
    signed = CylinderFunction.from_table(full2, 1, {(1,): 1.5, (2,): -0.5})
    raw = RawMeasure(full2, 4, strongly_invariant_measure(full2).masses_at(4))
    with pytest.raises(NegativeWeight):
        masses_along_orbit(full2, signed, raw, 3)


def test_orbit_of_a_raw_base_raises_at_its_first_deeper_product(full2):
    """The orbit of a raw base raises where a per-depth loop does: at its first deeper product."""
    v = weight_full_half(full2)
    raw = RawMeasure(full2, 3, strongly_invariant_measure(full2).masses_at(3))
    with pytest.raises(DepthTooShallow) as expected:
        orbit_per_depth(v, raw, 5)
    with pytest.raises(DepthTooShallow) as raised:
        masses_along_orbit(full2, v, raw, 5)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value) == "cannot integrate a depth-4 function at depth 3"
    assert masses_along_orbit(full2, v, raw, 3).tobytes() == orbit_per_depth(v, raw, 3).tobytes()


def test_mass_not_constant_for_non_fixed_point(full2):
    rho = strongly_invariant_measure(full2)
    v = weight_full_half(full2)
    skew = DensityMeasure(
        CylinderFunction.from_table(full2, 1, {(1,): 1.6, (2,): 0.4}), rho
    )
    masses = masses_along_orbit(full2, v, skew, 5)
    assert np.abs(masses - skew.total_mass()).max() > 0.05


def test_check_fixed_point_detects_perturbation(golden):
    v = CylinderFunction.constant(golden, 1.0)
    rho = strongly_invariant_measure(golden)
    bad = DensityMeasure(
        CylinderFunction.from_table(golden, 1, {(1,): 1.3, (2,): 0.4}), rho
    )
    assert check_fixed_point(golden, v, bad, 2) > 1e-2


def test_transform_requires_strong_invariance_for_density_route(full2):
    from shiftpath import markov_measure_for_weight
    from conftest import weight_markov_full

    v = weight_markov_full(full2)
    mu_w = markov_measure_for_weight(full2, v)
    f = CylinderFunction.constant(full2, 1.0)
    not_si = DensityMeasure(f, mu_w)
    with pytest.raises(ValueError):
        transform_measure(full2, v, not_si)
    # explicit raw depth works
    out = transform_measure(full2, v, not_si, out_depth=1)
    assert out.masses_at(1).sum() > 0
