"""Path-space marginals, exact sampling, martingales, and the filter isometry."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import (
    BLOCK4,
    SAMPLER_P,
    random_function,
    solved_base,
    stock_systems,
    weight_full_half,
    weight_markov_full,
    weight_markov_golden,
)
from shiftpath import (
    CylinderFunction,
    DensityMeasure,
    DepthTooShallow,
    FilterMismatch,
    NotFixedPoint,
    RawMeasure,
    ZeroMassConditioning,
    build_path_measure,
    build_subshift,
    check_consistency,
    check_isometry,
    check_quasi_invariance,
    empirical_check,
    martingale_coordinates,
    project_once,
    sample_paths,
    strongly_invariant_measure,
    weight_product,
)
from shiftpath import pathspace


def make_pm(shift, v):
    return build_path_measure(shift, v, solved_base(shift, v), tol=1e-11)


def test_build_rejects_non_fixed_point(full2):
    rho = strongly_invariant_measure(full2)
    v = weight_full_half(full2)
    skew = DensityMeasure(
        CylinderFunction.from_table(full2, 1, {(1,): 1.6, (2,): 0.4}), rho
    )
    with pytest.raises(NotFixedPoint):
        build_path_measure(full2, v, skew, tol=1e-10)


def test_build_rejects_a_nan_residual(full2):
    """A NaN residual is no fixed point, even under an infinite tolerance."""
    rho = strongly_invariant_measure(full2)
    v = weight_full_half(full2)
    broken = DensityMeasure(CylinderFunction(full2, 1, np.array([np.nan, 1.0])), rho)
    with pytest.raises(NotFixedPoint):
        build_path_measure(full2, v, broken, tol=float("inf"))


def test_marginals_are_reweighted_base(full2):
    v = weight_markov_full(full2)
    pm = make_pm(full2, v)
    mu0 = pm.marginal(0)
    for n in range(1, 4):
        w = weight_product(v, n)
        mu_n = pm.marginal(n)
        depth = w.depth
        expect = w.values * mu0.masses_at(depth)
        assert np.allclose(mu_n.masses_at(depth), expect, atol=1e-14)


def test_raw_base_too_shallow_for_a_level_weight(full2):
    """A level-n weight deeper than a raw base's table cannot reweight it."""
    one = CylinderFunction.constant(full2, 1.0)
    base = RawMeasure(full2, 2, strongly_invariant_measure(full2).masses_at(2))
    pm = build_path_measure(full2, one, base)
    assert pm.marginal(2).depth == 2
    with pytest.raises(DepthTooShallow):
        pm.marginal(3)


def period_three_orbit(shift):
    """The orbit measure of (112)^inf on the full 2-shift, as a raw depth-4 table, with v = 1."""
    masses = np.zeros(shift.word_count(4))
    for word in ((1, 1, 2, 1), (1, 2, 1, 1), (2, 1, 1, 2)):
        masses[shift.word_index(word)] = 1.0 / 3.0
    one = CylinderFunction.constant(shift, 1.0)
    return build_path_measure(shift, one, RawMeasure(shift, 4, masses), tol=0.0)


def test_raw_base_is_sampled_at_its_checked_depth(full2):
    """The orbit has no [111]; a sampler that conditions at depth 1 draws it."""
    pm = period_three_orbit(full2)
    words = sample_paths(pm, 2, 20000, 1, seed=1).theta_words(2, 3)
    assert {tuple(w) for w in words.tolist()} <= {(1, 1, 2), (1, 2, 1), (2, 1, 1)}


def test_raw_base_martingale_coordinates_are_exact(full2):
    """Given the level-0 record, the level-1 symbol of the orbit is known exactly."""
    pm = period_three_orbit(full2)
    xi = CylinderFunction.indicator(full2, (1,))
    mc = martingale_coordinates(pm, xi, 1)
    assert mc.depth == 3
    coords = mc.coordinates[0]
    assert [coords.value(w) for w in ((1, 1, 2), (1, 2, 1), (2, 1, 1))] == [0.0, 1.0, 1.0]
    with pytest.raises(DepthTooShallow):
        martingale_coordinates(pm, xi, 2)


def test_marginal_total_masses_constant(golden):
    v = weight_markov_golden(golden)
    pm = make_pm(golden, v)
    for n in range(7):
        assert pm.marginal(n).total_mass() == pytest.approx(1.0, abs=1e-11)


def test_consistency_and_quasi_invariance_all_systems():
    for name, shift, v in stock_systems():
        pm = make_pm(shift, v)
        for depth in range(1, 5):
            for n in range(6):
                assert check_consistency(pm, n, depth) <= 1e-12, name
            assert check_quasi_invariance(pm, depth, 6) <= 1e-12, name


def test_corrupted_marginal_breaks_consistency(full2):
    """Swapping one level for the flat measure must leave a visible defect."""
    v = CylinderFunction.constant(full2, 1.0)
    rho = strongly_invariant_measure(full2)
    mu0 = DensityMeasure(
        CylinderFunction.from_table(full2, 1, {(1,): 2.0, (2,): 0.0}), rho
    )
    override = {1: RawMeasure(full2, 2, rho.masses_at(2))}
    pm = build_path_measure(
        full2, v, mu0, tol=float("inf"), marginal_overrides=override
    )
    assert check_consistency(pm, 0, 1) >= 0.1
    assert check_quasi_invariance(pm, 1, 2) >= 0.1


def test_sampler_prepend_law_is_exact(full2):
    """Conditional one-step ratios must equal the column-stochastic P."""
    v = weight_markov_full(full2)
    pm = make_pm(full2, v)
    mu0, mu1 = pm.marginal(0), pm.marginal(1)
    for depth in (1, 2, 3):
        for u in full2.words(depth):
            for a in (1, 2):
                ratio = mu1.mass((a,) + u) / mu0.mass(u)
                assert ratio == pytest.approx(SAMPLER_P[a - 1, u[0] - 1], abs=1e-14)


def test_sampler_prepend_law_golden(golden):
    v = weight_markov_golden(golden)
    pm = make_pm(golden, v)
    mu0, mu1 = pm.marginal(0), pm.marginal(1)
    p = {(1, 1): 2.0 / 3.0, (2, 1): 1.0 / 3.0, (1, 2): 1.0}
    for u in golden.words(2):
        for a in (1, 2):
            if not golden.is_admissible((a,) + u):
                continue
            ratio = mu1.mass((a,) + u) / mu0.mass(u)
            assert ratio == pytest.approx(p[(a, u[0])], abs=1e-14)


def test_sample_paths_shapes_and_admissibility(full2):
    v = weight_markov_full(full2)
    pm = make_pm(full2, v)
    batch = sample_paths(pm, n_steps=4, n_samples=500, base_depth=2, seed=5)
    assert len(batch) == 500
    assert batch.base_words.shape == (500, 2)
    assert batch.prepends.shape == (500, 4)
    # every recorded truncation must be admissible
    for n in range(5):
        arr = batch.theta_words(n, 2)
        for row in arr[:50]:
            assert full2.is_admissible(tuple(int(x) for x in row))


def test_sampled_transitions_respect_matrix(golden):
    """On the golden shift a prepended 2 can never follow a leading 2."""
    v = weight_markov_golden(golden)
    pm = make_pm(golden, v)
    batch = sample_paths(pm, n_steps=6, n_samples=400, base_depth=1, seed=9)
    for n in range(1, 7):
        arr = batch.theta_words(n, 2)
        for a, b in arr:
            assert golden.matrix[a - 1, b - 1] == 1


def test_sampler_deterministic_across_workers(full2):
    v = weight_markov_full(full2)
    pm = make_pm(full2, v)
    runs = [
        sample_paths(pm, 3, 999, 2, seed=12, workers=w) for w in (1, 2, 4, 7)
    ]
    for other in runs[1:]:
        assert np.array_equal(runs[0].base_words, other.base_words)
        assert np.array_equal(runs[0].prepends, other.prepends)


def test_sampler_threads_are_bounded_by_cpus(full2, monkeypatch):
    """No more threads than usable CPUs and samples, row ranges that cover every row once, the same batch."""
    import threading

    from shiftpath import pathspace

    pm = make_pm(full2, weight_markov_full(full2))
    reference = sample_paths(pm, 3, 100, 2, seed=12)
    spans = []

    class RecordingThread:
        """Stands in for threading.Thread: records its row range, runs in this thread."""

        def __init__(self, target, args):
            self.target, self.args = target, args
            spans.append(args[0][:2])

        def start(self):
            self.target(*self.args)

        def join(self):
            pass

    drawn = []
    draw_base = pathspace._WalkKernel.draw_base

    def counted_draw_base(kernel, r):
        drawn.append(len(r))
        return draw_base(kernel, r)

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    monkeypatch.setattr(pathspace._WalkKernel, "draw_base", counted_draw_base)
    monkeypatch.setattr(pathspace, "_usable_cpus", lambda: 3)
    for workers, samples, threads in ((10**9, 100, 3), (2, 100, 2), (10**9, 2, 2), (1, 100, 1)):
        spans.clear()
        drawn.clear()
        batch = sample_paths(pm, 3, samples, 2, seed=12, workers=workers)
        assert 1 + len(spans) == threads
        # the caller walks the first range itself, up to where the threads' ranges begin
        firsts = [first for first, _ in spans]
        ranges = [(0, (firsts + [samples])[0])] + spans
        assert [row for first, stop in ranges for row in range(first, stop)] == list(range(samples))
        assert all(first < stop for first, stop in ranges)
        # every base draw, the caller's included, walks one row of one range
        assert sum(drawn) == samples
        assert batch.base_words.tobytes() == reference.base_words[:samples].tobytes()
        assert batch.prepends.tobytes() == reference.prepends[:samples].tobytes()


def test_sampler_memory_is_the_batch_and_one_block():
    """200000 six-step samples on the full 3-shift need the batch and at most 8 MiB besides.

    Drawing every uniform up front took another 10.7 MiB for them alone.
    """
    full3 = build_subshift([[1, 1, 1]] * 3)
    one = CylinderFunction.constant(full3, 1.0)
    pm = build_path_measure(full3, one, DensityMeasure(one, strongly_invariant_measure(full3)))
    tracemalloc.start()
    try:
        batch = sample_paths(pm, n_steps=6, n_samples=200000, base_depth=3, seed=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.prepends.shape == (200000, 6)
    assert peak < batch.base_words.nbytes + batch.prepends.nbytes + 8 * 2**20


def test_sampler_memory_holds_one_byte_symbols():
    """300000 samples of 3 + 6 symbols on the full 3-shift peak under 14 MiB, kernel build included.

    The batch is 2.6 MiB of uint8 (10.3 MiB peak); with int64 symbols
    it was 20.6 MiB and the peak 28.8 MiB.
    """
    full3 = build_subshift([[1, 1, 1]] * 3)
    one = CylinderFunction.constant(full3, 1.0)
    pm = build_path_measure(full3, one, DensityMeasure(one, strongly_invariant_measure(full3)))
    tracemalloc.start()
    try:
        batch = sample_paths(pm, n_steps=6, n_samples=300000, base_depth=3, seed=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.prepends.shape == (300000, 6)
    assert peak < 14 * 2**20


def test_sampler_deterministic_across_runs(full2):
    v = weight_markov_full(full2)
    pm = make_pm(full2, v)
    a = sample_paths(pm, 2, 100, 1, seed=3)
    b = sample_paths(pm, 2, 100, 1, seed=3)
    c = sample_paths(pm, 2, 100, 1, seed=4)
    assert np.array_equal(a.prepends, b.prepends)
    assert not np.array_equal(a.prepends, c.prepends)


def test_single_path_helper(full2):
    v = weight_markov_full(full2)
    pm = make_pm(full2, v)
    batch = sample_paths(pm, n_steps=3, n_samples=1, base_depth=2, seed=21)
    assert batch.base_words.shape == (1, 2)
    assert batch.prepends.shape == (1, 3)


def test_empirical_frequencies_match_marginals(full2):
    v = weight_markov_full(full2)
    pm = make_pm(full2, v)
    for n in (1, 2):
        rep = empirical_check(pm, n, 20000, 2, seed=14)
        assert rep.passed, (rep.max_dev, rep.sigma_bound)


def test_empirical_counts_do_not_depend_on_the_block_size(full2, monkeypatch):
    v = weight_markov_full(full2)
    pm = make_pm(full2, v)
    whole = empirical_check(pm, 2, 1000, 3, seed=5)
    monkeypatch.setattr(pathspace, "SAMPLE_BLOCK", 7)
    blocked = empirical_check(pm, 2, 1000, 3, seed=5)
    assert blocked == whole
    assert blocked.batch.prepends.tobytes() == whole.batch.prepends.tobytes()


def test_empirical_check_needs_samples(full2):
    v = weight_markov_full(full2)
    pm = make_pm(full2, v)
    with pytest.raises(ValueError):
        empirical_check(pm, 1, 50, 1, seed=0)


def test_zero_mass_conditioning_raises(full2):
    """A corrupted level can walk the chain onto a massless cylinder."""
    v = CylinderFunction.constant(full2, 1.0)
    rho = strongly_invariant_measure(full2)
    mu0 = DensityMeasure(
        CylinderFunction.from_table(full2, 1, {(1,): 2.0, (2,): 0.0}), rho
    )
    override = {1: RawMeasure(full2, 2, rho.masses_at(2))}
    pm = build_path_measure(
        full2, v, mu0, tol=float("inf"), marginal_overrides=override
    )
    with pytest.raises(ZeroMassConditioning):
        sample_paths(pm, n_steps=6, n_samples=64, base_depth=1, seed=2)


def test_zero_mass_conditioning_raises_from_worker_threads(full2, monkeypatch):
    """A worker thread's error reaches the caller, after every thread has been joined.

    Two steps from the base cylinder [1] stay on mass exactly when the
    first prepend is 1.  At seed 17 rows 0 and 1 do and row 2 does not,
    so at 2 and 3 threads only a worker's range meets the zero-mass
    cylinder.
    """
    import threading

    v = CylinderFunction.constant(full2, 1.0)
    rho = strongly_invariant_measure(full2)
    mu0 = DensityMeasure(CylinderFunction.from_table(full2, 1, {(1,): 2.0, (2,): 0.0}), rho)
    override = {1: RawMeasure(full2, 2, rho.masses_at(2))}
    pm = build_path_measure(full2, v, mu0, tol=float("inf"), marginal_overrides=override)
    monkeypatch.setattr(pathspace, "_usable_cpus", lambda: 3)
    clean = sample_paths(pm, n_steps=2, n_samples=2, base_depth=1, seed=17, workers=3)
    assert clean.prepends.shape == (2, 2)
    for workers in (1, 2, 3):
        before = threading.active_count()
        with pytest.raises(ZeroMassConditioning):
            sample_paths(pm, n_steps=2, n_samples=3, base_depth=1, seed=17, workers=workers)
        assert threading.active_count() == before


def test_a_row_range_reads_its_slice_of_the_one_stream():
    """A range that starts at an odd row draws what one full uniform matrix holds in its rows."""
    seed, n, width, first = 91, 40, 7, 13
    state = np.random.default_rng(seed).bit_generator.state
    rows = pathspace._stream_at(state, first * width).random((n - first, width))
    assert rows.tobytes() == np.random.default_rng(seed).random((n, width))[first:].tobytes()


def test_a_seed_sequence_gives_one_batch_at_any_thread_count(full2, monkeypatch):
    pm = make_pm(full2, weight_markov_full(full2))
    monkeypatch.setattr(pathspace, "_usable_cpus", lambda: 3)
    one, three = (
        sample_paths(pm, 4, 301, 2, seed=np.random.SeedSequence(2024), workers=w) for w in (1, 3)
    )
    assert one.base_words.tobytes() == three.base_words.tobytes()
    assert one.prepends.tobytes() == three.prepends.tobytes()


def dyadic_full3_pm(depth):
    """Full 3-shift, a depth-`depth` weight whose three dyadic branches sum to exactly 3, mu0 solved."""
    shift = build_subshift([[1, 1, 1]] * 3)
    table = {}
    for i, tail in enumerate(itertools.product((1, 2, 3), repeat=depth - 1)):
        c, d = (i % 4) / 8, (i % 3) / 8
        for a, val in zip((1, 2, 3), (1 - c, 1 + c - d, 1 + d)):
            table[(a,) + tail] = val
    v = CylinderFunction.from_table(shift, depth, table)
    return build_path_measure(shift, v, solved_base(shift, v))


def one_block_pm():
    """BLOCK4, weight 1, mu0 of density 2 on symbols 1-2 and no mass on symbols 3-4."""
    shift = build_subshift(BLOCK4)
    mu0 = DensityMeasure(CylinderFunction(shift, 1, np.array([2.0, 2.0, 0.0, 0.0])),
                         strongly_invariant_measure(shift))
    return build_path_measure(shift, CylinderFunction.constant(shift, 1.0), mu0)


# sha256 of base_words and prepends of 20000 six-step samples at seed 5, pinned while the
# base state was still a searchsorted over mu0's running sums
GOLDEN_BATCHES = {
    "full3 weight depth 8": (lambda: dyadic_full3_pm(8), 8, (
        "c51db01c2db9ca0b51be1f33b934fdeb89325f9345db64676a42bce48297e2da",
        "a40b1288335a306f37aa470cbb6acd525bf8b3285e03faa9376745b74b5092a6")),
    "one block of BLOCK4": (one_block_pm, 6, (
        "be5a99703593655afb3c904fec4509661105a48e02eddde1df552931ef411150",
        "544b148b02df26f64519fc92dfb2acbbd63f6842ebfc10f05b66356be7154553")),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN_BATCHES))
def test_sampled_batch_bytes_are_pinned(name, workers):
    """The batch of a fixed library call keeps its bytes at one and at two workers."""
    make, base_depth, golden = GOLDEN_BATCHES[name]
    batch = sample_paths(make(), 6, 20000, base_depth, seed=5, workers=workers)
    written = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (batch.base_words, batch.prepends))
    assert written == golden


def test_martingale_tower_property():
    """Projecting any level down one step must reproduce the level below."""
    rng = np.random.default_rng(51)
    systems = [s for s in stock_systems() if s[0] in ("full_markov", "golden_markov")]
    for name, shift, v in systems:
        pm = build_path_measure(shift, v, solved_base(shift, v), tol=1e-11)
        for _ in range(10):
            xi = random_function(shift, rng, int(rng.integers(1, 3)))
            mc = martingale_coordinates(pm, xi, 4)
            for n in range(4):
                stepped = project_once(pm, mc.coordinates[n + 1], n)
                gap = np.abs(stepped.values - mc.coordinates[n].values).max()
                assert gap <= 1e-13, name


def test_martingale_norms_monotone():
    rng = np.random.default_rng(52)
    for name, shift, v in stock_systems():
        pm = build_path_measure(shift, v, solved_base(shift, v), tol=1e-11)
        for _ in range(5):
            xi = random_function(shift, rng, int(rng.integers(1, 3)))
            norms = martingale_coordinates(pm, xi, 4).norms()
            assert (np.diff(norms) >= -1e-12).all(), (name, norms)


def test_martingale_top_level_is_observable(full2):
    v = weight_markov_full(full2)
    pm = make_pm(full2, v)
    xi = CylinderFunction.from_table(full2, 1, {(1,): 3.0, (2,): -2.0})
    mc = martingale_coordinates(pm, xi, 3)
    top = mc.coordinates[3]
    assert np.allclose(top.values, xi.promote(top.depth).values, atol=1e-15)


def test_martingale_level_zero_is_expectation(full2):
    """E_0 integrates to the same number as xi against the top marginal."""
    v = weight_markov_full(full2)
    pm = make_pm(full2, v)
    xi = CylinderFunction.from_table(full2, 2, {(1, 1): 1.0, (1, 2): -1.0, (2, 1): 2.0, (2, 2): 0.5})
    mc = martingale_coordinates(pm, xi, 3)
    lhs = pm.marginal(0).integrate(mc.coordinates[0])
    d = max(xi.depth, 3 + 1)
    rhs = float(xi.promote(d).values @ pm.marginal(3).masses_at(d))
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_isometry_residual_small(full2):
    v = weight_full_half(full2)
    pm = make_pm(full2, v)
    filt = CylinderFunction(
        full2, 1, np.array([np.sqrt(1.5) * np.exp(0.7j), np.sqrt(0.5) * np.exp(-0.2j)])
    )
    assert check_isometry(pm, filt, 2) <= 1e-13
    assert check_isometry(pm, filt, 3) <= 1e-13


def test_isometry_rejects_mismatched_filter(full2):
    v = weight_full_half(full2)
    pm = make_pm(full2, v)
    wrong = CylinderFunction(full2, 1, np.array([1.0 + 0.0j, 1.0 + 0.0j]))
    with pytest.raises(FilterMismatch):
        check_isometry(pm, wrong, 2)


def test_isometry_rejects_a_nan_filter(full2):
    v = weight_full_half(full2)
    pm = make_pm(full2, v)
    nan = CylinderFunction(full2, 1, np.array([np.sqrt(v.values[0]), complex(0.0, np.nan)]))
    with pytest.raises(FilterMismatch):
        check_isometry(pm, nan, 2)


def test_isometry_detects_broken_base(full2):
    """With a non fixed base the filter identity must fail loudly."""
    rho = strongly_invariant_measure(full2)
    v = weight_full_half(full2)
    skew = DensityMeasure(
        CylinderFunction.from_table(full2, 1, {(1,): 1.6, (2,): 0.4}), rho
    )
    pm = build_path_measure(full2, v, skew, tol=float("inf"))
    filt = CylinderFunction(full2, 1, np.sqrt(v.values).astype(complex))
    assert check_isometry(pm, filt, 1) > 1e-3
