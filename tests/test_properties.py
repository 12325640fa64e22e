"""Property tests over random subshifts of finite type.

Hypothesis draws transition matrices with k <= 4 symbols and no zero
column, and depths up to 6.  The word tables, index maps and word lookup
are compared with the tuple oracle; the branch-sum primitive is compared
bit for bit with numpy's unbuffered scatter-add.  On random nonnegative
weights, the operator matrix is compared with the operator's action, the
raw transform with the density route, the dual pushforward check with
the per-indicator one, and sampled batches across worker counts and with
the former dense sampler.  The sampler's guided base draw is the
searched one on bases with zero, dyadic and tiny masses, and on more
states than the guide has buckets.  h, nu and rho are compared with the exact
rational solves of `exact_chain` (the same zeros, relative errors of at
most EXACT_RTOL elsewhere), nu also with a dense eigenvector, and the
extremality solve with the exact null space of its system on the charged
words, at the conditioning depth and, lifted, one and two levels above
it, on bases from the exact h and rho, also scaled by 1e-13 and by
1e13; its components pass the fixed-point gate and their own
certificates and recombine to the base.  A solved base perturbed below
the depth of its fixed-point identity gets one verdict from the path
family and from the extremality solve, and
`verify` gives a solved base scaled by 1e-13 to 1e13 the verdict and the
residuals of the base itself.
On random sub-stochastic chains the chain solver gives the same
classes, masks, absorption and stationary vectors with numpy and with
scipy (the colour search and csgraph's strong components, the
iteration and the sparse LU); with no iteration budget the two LU
fallbacks, the stationary vector in its renewal form, are the exact
ones within LU_SAFETY roundings of each vector's largest entry; the
iterated absorption values and stationary vectors are the exact ones
within ITERATED_SAFETY times ITERATION_TOL; nu and rho's q take the LU fallback and hold within
WEAK_JOIN_RTOL of the exact one on two blocks joined by steps of
WEAK_JOIN; on chains of up to 300 states and on
prepend walks the colour search gives csgraph's and the boolean
closure's classes and masks.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import exact_chain
from conftest import (
    BLOCK4,
    FOUR_LOOPS,
    FULL2,
    GOLDEN,
    THREE_LOOPS,
    conditioning_depth,
    DenseWalkKernel,
    dense_sample_paths,
    function_dict,
    leaf_up_prefix_indices,
    slow_leak_weight,
    solved_base,
    stock_systems,
)
from exact_chain import brute_words, closure_closed_classes, closure_reaching
from shiftpath import (
    CylinderFunction,
    DegenerateH,
    DensityMeasure,
    InadmissibleWord,
    MarkovMeasure,
    NotFixedPoint,
    RawMeasure,
    apply_transfer,
    build_path_measure,
    build_subshift,
    check_weight_pushforward,
    decompose,
    decompose_report,
    fixed_density_measure,
    iterate_fixed_function,
    left_fixed_functional,
    markov_measure_for_weight,
    relative_ergodicity_dimension,
    sample_paths,
    strongly_invariant_measure,
    transfer_matrix,
    transform_measure,
    weight_pushforward_defect,
)
from shiftpath import invariant, pathspace
from shiftpath.cli import main as cli_main
from shiftpath.invariant import (
    Chain,
    _reaching,
    _stationary_vector,
    absorption,
    closed_classes,
)
from shiftpath.measures import require_fixed_point
from shiftpath.subshift import branch_sum, prepend_walk, word_string

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

# bound on the relative error of a solved h, nu, rho or base mass against the exact one;
# measured up to 4e-13 on nu's small entries and 2e-15 elsewhere
EXACT_RTOL = 1e-11

# the rate at which the two blocks of `weakly_joined_weights` trade mass
WEAK_JOIN = 1e-9
# bound on the relative error of nu and rho's q across WEAK_JOIN; measured up to 2.8e-7
# on 600 draws, dense and sparse (4.1e-7 for the former ones-row solve)
WEAK_JOIN_RTOL = 1e-5


@st.composite
def matrices(draw):
    k = draw(st.integers(1, 4))
    bits = draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k))
    matrix = [bits[i * k : (i + 1) * k] for i in range(k)]
    assume(all(any(row[j] for row in matrix) for j in range(k)))
    return matrix


def int_array(data, n, high):
    return np.asarray(data.draw(st.lists(st.integers(0, high), min_size=n, max_size=n)),
                      dtype=np.int64)


def float_array(data, n):
    floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    return np.asarray(data.draw(st.lists(floats, min_size=n, max_size=n)), dtype=np.float64)


depths = st.integers(1, 6)


@PROPERTY_SETTINGS
@given(matrices(), depths)
def test_tables_match_tuple_oracle(matrix, depth):
    shift = build_subshift(matrix)
    words = brute_words(matrix, depth)
    assert shift.words(depth) == words
    assert shift.word_count(depth) == len(words)
    assert shift.symbols_array(depth).tolist() == [list(w) for w in words]
    for short in range(1, depth + 1):
        where = {w: i for i, w in enumerate(brute_words(matrix, short))}
        expected = [where[w[:short]] for w in words]
        assert shift.prefix_indices(depth, short).tolist() == expected
    if depth >= 2:
        where = {w: i for i, w in enumerate(brute_words(matrix, depth - 1))}
        assert shift.suffix_indices(depth).tolist() == [where[w[1:]] for w in words]


@PROPERTY_SETTINGS
@given(matrices())
def test_prefix_maps_from_the_root_match_the_leaf_up_walk(matrix):
    shift = build_subshift(matrix)
    for depth in range(1, 7):
        for prefix in range(1, depth + 1):
            got = shift.prefix_indices(depth, prefix)
            assert got.dtype == np.intp
            assert got.tobytes() == leaf_up_prefix_indices(shift, depth, prefix).tobytes()


@PROPERTY_SETTINGS
@given(matrices(), depths, st.data())
def test_word_lookup_round_trips_and_rejects(matrix, depth, data):
    shift = build_subshift(matrix)
    words = brute_words(matrix, depth)
    table = shift.symbols_array(depth)
    assert shift.word_index(table).tolist() == list(range(len(words)))
    i = data.draw(st.integers(0, len(words) - 1))
    assert shift.word_index(words[i]) == i
    k = len(matrix)
    probe = tuple(int_array(data, depth, k - 1) + 1)
    outside = list(words[i])
    outside[data.draw(st.integers(0, depth - 1))] = data.draw(st.sampled_from([-1, 0, k + 1]))
    for word in (probe, tuple(outside)):
        if word in words:
            assert shift.word_index(word) == words.index(word)
            continue
        with pytest.raises(InadmissibleWord):
            shift.word_index(word)
        with pytest.raises(InadmissibleWord):
            shift.word_index(np.vstack([table, word]))


@PROPERTY_SETTINGS
@given(st.integers(1, 30), st.data())
def test_branch_sum_matches_add_at(size, data):
    n = data.draw(st.integers(0, 200))
    index = int_array(data, n, size - 1)
    re, im = float_array(data, n), float_array(data, n)
    for values in (re, re + 1j * im):
        expected = np.zeros(size, dtype=values.dtype)
        np.add.at(expected, index, values)
        got = branch_sum(index, values, size)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def table(data, shift, depth, low=0.0, high=3.0):
    """A cylinder function of the given depth with values drawn in [low, high]."""
    n = shift.word_count(depth)
    values = data.draw(st.lists(st.floats(low, high), min_size=n, max_size=n))
    return CylinderFunction(shift, depth, values)


def normalized_weight(data, shift):
    """Depth-2 weight whose average over the preimages of every point is 1."""
    k = shift.k
    entries = data.draw(st.lists(st.floats(0.1, 1.0), min_size=k * k, max_size=k * k))
    p = shift.matrix * np.reshape(entries, (k, k))
    p = p / p.sum(axis=0)
    a, j = shift.symbols_array(2).T - 1
    return CylinderFunction(shift, 2, p[a, j] * shift.column_sums[j])


@PROPERTY_SETTINGS
@given(matrices(), st.integers(1, 3), st.data())
def test_transfer_matrix_acts_like_apply_transfer(matrix, v_depth, data):
    shift = build_subshift(matrix)
    v = table(data, shift, v_depth)
    depth = data.draw(st.integers(max(v_depth - 1, 1), 4))
    f = table(data, shift, data.draw(st.integers(1, depth)), -2.0, 2.0)
    got = transfer_matrix(shift, v, depth) @ f.promote(depth).values
    expected = apply_transfer(shift, v, f).promote(depth).values
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


@PROPERTY_SETTINGS
@given(matrices(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.data())
def test_raw_transform_matches_density_route(matrix, v_depth, f_depth, depth, data):
    shift = build_subshift(matrix)
    v = table(data, shift, v_depth)
    mu = DensityMeasure(table(data, shift, f_depth), strongly_invariant_measure(shift))
    density_route = transform_measure(shift, v, mu).masses_at(depth)
    raw_route = transform_measure(shift, v, mu, out_depth=depth).masses
    np.testing.assert_allclose(raw_route, density_route, rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(matrices(), st.integers(1, 3), st.integers(1, 4), st.data())
def test_dual_pushforward_defect_matches_per_indicator_check(matrix, v_depth, depth, data):
    shift = build_subshift(matrix)
    v = table(data, shift, v_depth)
    # the strongly invariant reference, where the identity holds, and a
    # consistent Markov reference of another kernel, where it need not
    markov = markov_measure_for_weight(shift, normalized_weight(data, shift))
    for rho in (strongly_invariant_measure(shift), markov):
        oracle = max(
            check_weight_pushforward(shift, v, CylinderFunction.indicator(shift, w), rho, n)
            for w in shift.words(depth)
            for n in (1, 2, 3)
        )
        assert abs(weight_pushforward_defect(shift, v, rho, depth, 3) - oracle) <= 1e-12


@PROPERTY_SETTINGS
@given(matrices(), st.integers(1, 4), st.data())
def test_left_functional_is_the_fixed_probability_vector(matrix, depth, data):
    shift = build_subshift(matrix)
    v = normalized_weight(data, shift)
    nu = left_fixed_functional(shift, v, depth)
    operator = transfer_matrix(shift, v, depth)
    assert nu.masses.min() >= 0.0
    assert abs(nu.total_mass() - 1.0) <= 1e-12
    assert np.abs(nu.masses @ operator - nu.masses).max() <= 1e-10
    vals, vecs = np.linalg.eig(operator.T)
    near_one = np.flatnonzero(np.abs(vals - 1.0) <= 1e-6)
    if len(near_one) == 1:
        vec = np.real(vecs[:, near_one[0]])
        np.testing.assert_allclose(nu.masses, vec / vec.sum(), rtol=0, atol=1e-10)


@st.composite
def sub_normalized_weights(draw):
    """A random subshift and a sub-normalized weight of depth 1 to 3.

    Branch values are tenths from 0.1 to 1, and up to a third of them,
    at least one, are set to 0.  At depth 1 the weight is scaled so that
    its largest branch average is 1.  Deeper, the branches of each word
    are scaled to average 1, and to 1/2 on one drawn leaky word, if any;
    words whose branches are all 0 lose all their mass.
    """
    shift = build_subshift(draw(matrices()))
    v_depth = draw(st.integers(1, 3))
    n = shift.word_count(v_depth)
    values = np.asarray(draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))) / 10.0
    values[list(draw(st.sets(st.integers(0, n - 1), max_size=max(n // 3, 1))))] = 0.0
    if v_depth == 1:
        one = CylinderFunction.constant(shift, 1.0)
        top = apply_transfer(shift, CylinderFunction(shift, 1, values), one).values.max()
        if top > 0:
            values = values / top
    else:
        suffix = shift.suffix_indices(v_depth)
        total = np.bincount(suffix, values)
        scale = np.divide(np.bincount(suffix), total, out=np.zeros_like(total), where=total > 0)
        leaky = draw(st.none() | st.integers(0, len(total) - 1))
        if leaky is not None:
            scale[leaky] *= 0.5
        values = values * scale[suffix]
    return shift, CylinderFunction(shift, v_depth, values)


def tiny_leak():
    """Word 2 of the full 2-shift reaches the kept word 1, with h(2) = 2e-20."""
    full = build_subshift(FULL2)
    return full, slow_leak_weight(full, stay=1.0, leave=2e-20)


def slow_degenerate():
    """Depth 3 on a 4-symbol subshift: no word keeps its mass, and the operator's spectral radius is 0.99989."""
    shift = build_subshift([[1, 1, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1], [0, 1, 1, 0]])
    values = [
        0.0, 2.0, 1.0, 1.0, 1.714285714285714, 2.666666666666667, 1.7999999999999998,
        0.49999999999999994, 2.0, 2.0, 1.5, 2.625, 1.714285714285714, 0.6666666666666667,
        0.75, 0.37500000000000006, 2.0, 0.0, 1.0, 1.0, 0.2857142857142857, 0.0,
        0.6000000000000001, 0.49999999999999994, 0.5, 0.5, 0.75, 0.0, 0.2857142857142857,
        0.6666666666666667, 0.6000000000000001, 0.49999999999999994, 0.5, 0.5,
    ]
    return shift, CylinderFunction(shift, 3, values)


def assert_matches_exact(values, exact):
    """values is 0 exactly where exact is, and within EXACT_RTOL of it elsewhere."""
    assert len(values) == len(exact)
    for value, x in zip(values.tolist(), exact):
        assert (value == 0) == (x == 0)
        assert abs(Fraction(value) - x) <= EXACT_RTOL * abs(x)


@PROPERTY_SETTINGS
@given(sub_normalized_weights())
@example(tiny_leak())
@example(slow_degenerate())
def test_fixed_function_is_the_limit_of_the_monotone_loop(system):
    """h is the exact lim T^n 1 of its chain, with the same status: positive exactly
    where a path keeps its mass, however slowly a word leaks."""
    shift, v = system
    res = iterate_fixed_function(shift, v)
    h, nu = exact_chain.fixed_vectors(shift.matrix.tolist(), function_dict(v), res.h.depth)
    assert_matches_exact(res.h.values, h)
    assert res.status == ("degenerate" if nu is None else "converged")


@PROPERTY_SETTINGS
@given(st.sampled_from([(shift, v) for _, shift, v in stock_systems()]) | sub_normalized_weights())
def test_fixed_density_is_h_and_h_pairs_to_one_with_nu(system):
    """The density is the solved h, unscaled; h pairs to 1 with the dual fixed vector nu."""
    shift, v = system
    res = iterate_fixed_function(shift, v)
    if res.status == "degenerate":
        with pytest.raises(DegenerateH):
            fixed_density_measure(shift, v)
        return
    mu0 = fixed_density_measure(shift, v, rho=strongly_invariant_measure(shift))
    assert mu0.density.values.tobytes() == res.h.values.tobytes()
    assert abs(left_fixed_functional(shift, v).integrate(res.h) - 1.0) <= 1e-13


def block_flat():
    """Two closed classes, {1, 2} and {3, 4}, that both keep their mass."""
    block = build_subshift(BLOCK4)
    return block, CylinderFunction.constant(block, 1.0)


@PROPERTY_SETTINGS
@given(sub_normalized_weights(), st.integers(0, 1))
@example(block_flat(), 0)
@example(block_flat(), 1)
def test_left_functional_matches_the_exact_chain(system, extra_depth):
    shift, v = system
    depth = max(v.depth - 1, 1) + extra_depth
    nu = left_fixed_functional(shift, v, depth)
    _, exact = exact_chain.fixed_vectors(shift.matrix.tolist(), function_dict(v), depth)
    assert (nu is None) == (exact is None)
    if nu is not None:
        assert_matches_exact(nu.masses, exact)
        assert np.abs(nu.masses - np.array(exact, dtype=float)).max() <= 1e-12
        operator = transfer_matrix(shift, v, depth)
        assert np.abs(nu.masses @ operator - nu.masses).max() <= 1e-13


@PROPERTY_SETTINGS
@given(matrices())
def test_non_unique_means_a_null_space_above_one(matrix):
    """rho's q is the exact one, and non-unique exactly where the kernel has more than one
    closed class: their number is the dimension of its fixed space."""
    rho = strongly_invariant_measure(build_subshift(matrix))
    q, n_classes = exact_chain.invariant_measure(matrix)
    assert_matches_exact(rho.q, q)
    assert rho.non_unique == (n_classes > 1)


@st.composite
def weakly_joined_weights(draw):
    """A full shift on 2 to 6 symbols and a depth-2 normalized weight of two blocks joined by WEAK_JOIN.

    The symbols fall into two blocks of 1 to 3.  The kernel's entries
    are 1 to 4 units within a block and 1 to 4 times WEAK_JOIN across
    the two, each column scaled to sum 1, so the one closed class of
    its chain is two blocks that trade mass at a rate of about WEAK_JOIN.
    """
    sizes = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    k = sum(sizes)
    shift = build_subshift(np.ones((k, k), dtype=np.int64))
    block = np.repeat([0, 1], sizes)
    units = np.reshape(draw(st.lists(st.integers(1, 4), min_size=k * k, max_size=k * k)), (k, k))
    p = np.where(block[:, None] == block, 1.0, WEAK_JOIN) * units
    p = p / p.sum(axis=0)
    a, j = shift.symbols_array(2).T - 1
    return shift, CylinderFunction(shift, 2, p[a, j] * shift.column_sums[j])


@PROPERTY_SETTINGS
@given(weakly_joined_weights())
def test_nu_and_rho_hold_across_a_weak_join(system):
    """nu, and the q of the weight's Markov measure, are the exact stationary vector within WEAK_JOIN_RTOL.

    Both solve the same nearly decomposable chain, whose stationary
    vector moves by about 1 / WEAK_JOIN times a perturbation of its
    entries, so a float solve loses about u / WEAK_JOIN.
    """
    shift, v = system
    before = invariant.SOLVE_COUNTS["lu"]
    nu = left_fixed_functional(shift, v)
    _, exact_nu = exact_chain.fixed_vectors(shift.matrix.tolist(), function_dict(v), 1)
    rho = markov_measure_for_weight(shift, v)
    lu_solves = invariant.SOLVE_COUNTS["lu"] - before
    # the kernel moves mass from column j to row a: the chain steps from j to a
    chain = [[Fraction(x) for x in column] for column in rho.kernel.T.tolist()]
    (members,) = exact_chain.closed_classes(chain)
    exact_q = exact_chain.stationary_vector(chain, members)
    # the lazy iteration contracts at a rate of about 1 - WEAK_JOIN, so both give up and take the LU
    assert lu_solves == 2
    assert not rho.non_unique
    for solved, exact in ((nu.masses, exact_nu), (rho.q, exact_q)):
        for value, x in zip(solved.tolist(), exact):
            assert abs(Fraction(value) - x) <= WEAK_JOIN_RTOL * x


@PROPERTY_SETTINGS
@given(matrices(), st.integers(0, 4), st.integers(1, 60), st.integers(1, 3), st.data())
def test_sampled_batches_do_not_depend_on_workers(matrix, steps, samples, depth, data):
    shift = build_subshift(matrix)
    # a normalized weight fixes the strongly invariant measure itself
    mu0 = DensityMeasure(CylinderFunction.constant(shift, 1.0), strongly_invariant_measure(shift))
    pm = build_path_measure(shift, normalized_weight(data, shift), mu0)
    seed = data.draw(st.integers(0, 2**32 - 1))
    batches = [sample_paths(pm, steps, samples, depth, seed, workers=w) for w in (1, 2, 3)]
    for batch in batches[1:]:
        assert batch.base_words.tobytes() == batches[0].base_words.tobytes()
        assert batch.prepends.tobytes() == batches[0].prepends.tobytes()
        assert batch.base_words.shape == batches[0].base_words.shape
        assert batch.prepends.shape == batches[0].prepends.shape


@PROPERTY_SETTINGS
@given(st.data(), st.integers(0, 4), st.integers(1, 60), st.integers(1, 3))
def test_streamed_sampler_matches_the_dense_oracle(data, steps, samples, depth):
    """Rows split across 1, 2 or 3 threads, in blocks of 7 // threads, give the batch of the former sampler.

    The oracle draws every uniform at once, as one (samples, steps + 1) matrix.
    The kernel's flat running sums, next states and symbols are the
    dense kernel's rows bit for bit, so no draw can move.  Half of the
    systems are a normalized weight over the strongly invariant measure;
    the others are a sub-normalized weight with zero branches, stored as
    zeros in the walk, over its solved fixed density.
    """
    if data.draw(st.booleans()):
        shift = build_subshift(data.draw(matrices()))
        v = normalized_weight(data, shift)
        one = CylinderFunction.constant(shift, 1.0)
        mu0 = DensityMeasure(one, strongly_invariant_measure(shift))
    else:
        shift, v = data.draw(sub_normalized_weights())
        try:
            mu0 = solved_base(shift, v)
        except DegenerateH:
            assume(False)
        assume(mu0.total_mass() > 0)
    pm = build_path_measure(shift, v, mu0)
    working = max(depth, v.depth, pm.density_depth)
    kernel, dense = pm._kernel(working), DenseWalkKernel(pm, working)
    counts = shift.column_sums[shift.prefix_indices(working, 1)]
    rows = np.repeat(np.arange(len(counts)), counts)
    cols = np.arange(len(rows)) - kernel.start[rows]
    for flat, table in ((kernel.cdf, dense.cdf), (kernel.nxt, dense.nxt), (kernel.syms, dense.syms)):
        assert flat.astype(table.dtype).tobytes() == table[rows, cols].tobytes()
    seed = data.draw(st.integers(0, 2**32 - 1))

    def values(batch):
        return batch.base_words.shape, batch.base_words.tolist(), batch.prepends.tolist()

    # the oracle's prepends are int64, so the values are compared and the dtype apart
    expected = values(dense_sample_paths(pm, steps, samples, depth, seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pathspace, "SAMPLE_BLOCK", 7)
        patch.setattr(pathspace, "_usable_cpus", lambda: 3)
        for workers in (1, 2, 3):
            batch = sample_paths(pm, steps, samples, depth, seed, workers=workers)
            assert values(batch) == expected
            assert batch.base_words.dtype == batch.prepends.dtype == np.uint8


def guided_kernel(k, depth, masses):
    """The sampler's kernel on the full k-shift whose base has these depth-`depth` masses."""
    shift = build_subshift([[1] * k] * k)
    levels = {0: RawMeasure(shift, depth, masses),
              1: RawMeasure(shift, depth + 1, np.ones(k ** (depth + 1)))}
    return pathspace._WalkKernel(pathspace.PathMeasure(shift, None, None, 0.0, levels), depth)


@st.composite
def base_masses(draw):
    """(k, depth, masses) of a base on the full k-shift: zero masses, dyadic masses or tiny ones."""
    k = draw(st.sampled_from([2, 3]))
    depth = draw(st.integers(1, 9 if k == 2 else 6))
    n, rng = k**depth, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zeros", "dyadic", "tiny"]))
    if kind == "zeros":
        masses = rng.integers(0, 10, n).astype(np.float64)
        masses[n - draw(st.integers(0, n - 1)):] = 0.0
        masses[0] += 1.0
    elif kind == "dyadic":
        # a power-of-two total keeps every running sum on a multiple of 2**-units
        units = draw(st.integers(0, 18))
        masses = rng.multinomial(2**units, rng.dirichlet(np.ones(n))).astype(np.float64)
    else:
        masses = np.where(rng.random(n) < 0.1, 1.0, rng.random(n) * 10.0 ** -rng.integers(6, 16))
        masses[rng.integers(n)] = 1.0
    return k, depth, masses


@PROPERTY_SETTINGS
@given(base_masses())
# the running sum reaches 1 + 2**-52 before the trailing zero-mass states, where it is set to 1
@example((2, 4, np.array([8, 5, 9, 9, 1, 9, 2] + [0] * 9, dtype=np.float64)))
# twice as many states as the largest guide has buckets, some without mass
@example((2, 17, np.random.default_rng(33).random(2**17) * (np.arange(2**17) % 7 != 0)))
def test_guided_base_draws_are_the_searched_ones(system):
    """The guide gives every base draw the state `searchsorted` gives, and searches only split buckets.

    Draws fall at 0, at 1 - 2**-53, at each running sum of mu0, one ulp
    either side of it, and at each bucket's lower edge.  A bucket is
    split when a running sum lies strictly inside it.
    """
    kernel = guided_kernel(*system)
    cum0, buckets = kernel.cum0, kernel.buckets
    assert buckets & (buckets - 1) == 0 and 1 << 10 <= buckets <= pathspace.MAX_GUIDE_BUCKETS
    assert buckets >= min(8 * len(cum0), pathspace.MAX_GUIDE_BUCKETS)
    inside = cum0[cum0 < 1] * buckets
    split = np.unique(inside[inside % 1 != 0].astype(np.intp))
    assert np.array_equal(np.flatnonzero(kernel.guide < 0), split)
    r = np.concatenate([[0.0, 1 - 2**-53], cum0, np.nextafter(cum0, 0), np.nextafter(cum0, 2),
                        np.arange(buckets) / buckets])
    r = r[(r >= 0) & (r < 1)]
    searched = []
    search = kernel._search
    kernel._search = lambda x: searched.append(x.copy()) or search(x)
    states = kernel.draw_base(r)
    assert np.array_equal(states, np.minimum(np.searchsorted(cum0, r, side="right"), len(cum0) - 1))
    in_split = np.isin((r * buckets).astype(np.intp), split)
    assert np.array_equal(np.concatenate(searched) if searched else r[:0], r[in_split])


@st.composite
def weighted_systems(draw):
    """(matrix, weight depth, raw weight values, leaky word or None)."""
    matrix = draw(matrices())
    shift = build_subshift(matrix)
    v_depth = draw(st.integers(2, 3))
    n = shift.word_count(v_depth)
    values = draw(st.lists(st.just(0.0) | st.floats(0.1, 1.0), min_size=n, max_size=n))
    leaky = draw(st.none() | st.integers(0, shift.word_count(v_depth - 1) - 1))
    return matrix, v_depth, values, leaky


def solved_system(matrix, v_depth, values, leaky, residue=0.0):
    """A weight with zeros and its fixed measure h d(rho), from the exact h and rho.

    The branch values of each depth-(v_depth - 1) word are scaled to
    average 1 (all-zero branches become 1), and to 1/2 on the leaky
    word, so the weight is sub-normalized and h is not constant when a
    word leaks.  h and the q of rho are the exact ones rounded, with
    `residue` in place of their zeros; a base of no mass is None.
    """
    shift = build_subshift(matrix)
    suffix = shift.suffix_indices(v_depth)
    values = np.asarray(values, dtype=np.float64)
    total = np.bincount(suffix, values)
    scale = np.divide(np.bincount(suffix), total, out=np.zeros_like(total), where=total > 0)
    values = np.where(total[suffix] > 0, values * scale[suffix], 1.0)
    if leaky is not None:
        values[suffix == leaky] *= 0.5
    v = CylinderFunction(shift, v_depth, values)
    h, _ = exact_chain.fixed_vectors(matrix, function_dict(v), max(v_depth - 1, 1))
    q, _ = exact_chain.invariant_measure(matrix)
    h, q = ([float(x) if x else residue for x in exact] for exact in (h, q))
    mu0 = DensityMeasure(CylinderFunction(shift, max(v_depth - 1, 1), h), MarkovMeasure(shift, q))
    return shift, v, (mu0 if mu0.total_mass() > 0 else None)


# one transient word and two classes in one depth-1 fibre; one transient
# word; two classes joined only by stored zeros; three loops that one depth-1
# fibre ties by one equation, three components at the conditioning depth 2;
# four loops so tied, four components there
EXTREMALITY_EXAMPLES = (
    (FULL2, 3, [2.0, 0.0, 2.0, 1.0, 0.0, 2.0, 0.0, 1.0], None),
    (FULL2, 2, [2.0, 2.0, 0.0, 0.0], None),
    (FULL2, 2, [2.0, 0.0, 0.0, 2.0], None),
    (THREE_LOOPS[0], 3, THREE_LOOPS[1], None),
    (FOUR_LOOPS[0], 3, FOUR_LOOPS[1], None),
)

# bases charged only on self-loops: one point mass, and two point masses (at
# 1...1 and 4...4) whose words between them, given small masses, are a third component
RESIDUE_EXAMPLES = (
    ([[1, 1], [0, 1]], 2, [1.0, 3.0, 0.0], None),
    ([[1, 1, 0], [1, 0, 0], [1, 0, 1]], 2, [4.0, 0.0, 1.0, 5.0, 0.0], None),
    (
        [[1, 0, 1, 1], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 1]],
        3,
        [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0,
         1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0],
        1,
    ),
)


# systems that iterated bases got wrong: every word leaks, so slowly that T^n 1 still
# moves by 3.6e-12 after 10000 steps (h = 0); residue cost the sparse solve one of its
# 8 invariant functions; h d(rho) has no mass, as h charges only words rho does not;
# an exact null space whose echelon basis has entries near 1e17, too ill-conditioned
# for a float QR; and two split directions of equal deviation, which rounding once
# ranked one way at base scale 1 and the other at 1e13 (lam 0.1875 against 0.3125)
PINNED_EXAMPLES = (
    ([[1, 1, 1, 0], [0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]], 3,
     [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0,
      0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.25, 0.0, 0.0], 5),
    ([[0, 0, 1], [1, 0, 1], [0, 1, 1]], 3, [0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0], 0),
    ([[0, 1, 1, 1], [0, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, 1]], 3,
     [0.0, 0.0, 0.0, 0.0, 1.0, 0.125, 1.0, 0.0, 0.0, 1.0,
      0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.75], 2),
    ([[0, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 1], [1, 0, 1, 0]], 2,
     [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0], 0),
    ([[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]], 2,
     [0.75, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.14796510700684337, 0.0, 0.0, 0.25], 1),
)


def with_examples(cases):
    def wrap(test):
        for case in cases:
            test = example(case)(test)
        return test

    return wrap


def exact_invariant_projector(shift, mu0, v, depth):
    """Dimension and orthogonal projector of the extremality system's exact null space at `depth`.

    The system conditions on the words of `depth`, at or above the
    conditioning depth.  The exact basis is orthogonal already, so only
    its norms are taken in float.
    """
    basis = exact_chain.invariant_functions(
        shift.matrix.tolist(), function_dict(v), mu0.masses_at(depth + 1).tolist(), depth
    )
    q = np.array([[float(x) for x in u] for u in basis]).reshape(-1, shift.word_count(depth)).T
    q /= np.linalg.norm(q, axis=0)
    return len(basis), q @ q.T


def span_projector(basis):
    """The orthogonal projector onto the span of the columns of `basis`, by numpy's QR."""
    q, _ = np.linalg.qr(basis)
    return q @ q.T


def lifted_basis(shift, mu0, rep, depth):
    """The report's depth-m columns read on each depth-`depth` word's prefix, 0 on the words mu0 leaves null."""
    return rep.basis[shift.prefix_indices(depth, rep.depth)] * (mu0.masses_at(depth) > 0)[:, None]


def assert_recombines(shift, mu0, v, dec):
    """The components pass the fixed-point gate, each is extremal and has mu0's mass, and they mix back to mu0."""
    e = conditioning_depth(mu0, v) + 1
    assert sum(dec.weights) == pytest.approx(1.0, abs=1e-12)
    for comp in dec.components:
        require_fixed_point(shift, v, comp, 1e-10)
        assert relative_ergodicity_dimension(shift, comp, v).solution_dim == 1
        assert comp.total_mass() == pytest.approx(mu0.total_mass(), rel=1e-12, abs=0)
    mix = sum(lam * comp.masses_at(e) for lam, comp in zip(dec.weights, dec.components))
    assert np.abs(mix - mu0.masses_at(e)).max() <= 1e-12 * mu0.total_mass()


# the exact null space two levels above the conditioning depth is solved only up to this many words
LIFT_ORACLE_WORDS = 64


@PROPERTY_SETTINGS
@given(weighted_systems())
@with_examples(EXTREMALITY_EXAMPLES + RESIDUE_EXAMPLES + PINNED_EXAMPLES)
def test_extremality_matches_the_exact_null_space_at_every_scale(system):
    """Closed classes and absorption give the exact null space of the system, at any base scale.

    The sparse solve on the exact base, and on that base scaled by 1e-13 and by 1e13, must
    give the dimension and projector of the exact base's exact null space on the charged
    words at the conditioning depth m, and, lifted to the deeper words, at m + 1, and at
    m + 2 where that has at most LIFT_ORACLE_WORDS words; and components of the same
    weights that recombine to the base, each extremal.  The fixed-point pre-check scales
    with the base, so the largest base passes it too."""
    shift, v, mu0 = solved_system(*system)
    assume(mu0 is not None)
    m = conditioning_depth(mu0, v)
    depths = [d for d in (m, m + 1, m + 2) if d <= m + 1 or shift.word_count(d) <= LIFT_ORACLE_WORDS]
    exact = {d: exact_invariant_projector(shift, mu0, v, d) for d in depths}
    weights = []
    for base in (mu0, *(DensityMeasure(mu0.density * s, mu0.rho) for s in (1e-13, 1e13))):
        rep = relative_ergodicity_dimension(shift, base, v)
        assert rep.depth == m
        for d, (dim, projector) in exact.items():
            assert rep.solution_dim == dim
            np.testing.assert_allclose(span_projector(lifted_basis(shift, base, rep, d)), projector,
                                       rtol=0, atol=1e-8)
        dec = decompose_report(shift, base, rep)
        if dec is not None:
            assert_recombines(shift, base, v, dec)
        weights.append(None if dec is None else dec.weights)
    if weights[0] is None:
        assert weights == [None] * 3
    else:
        for scaled in weights[1:]:
            np.testing.assert_allclose(scaled, weights[0], rtol=1e-12, atol=0)


@PROPERTY_SETTINGS
@given(weighted_systems())
@with_examples(EXTREMALITY_EXAMPLES + RESIDUE_EXAMPLES + PINNED_EXAMPLES)
def test_solved_bases_need_no_mass_floor(system):
    """Bases built from the solved h are exactly 0 where the exact base is.

    So the sparse solve on them gives the exact base's exact null space with no mass floor."""
    matrix, v_depth, values, leaky = system
    shift, v, mu0 = solved_system(matrix, v_depth, values, leaky)
    assume(mu0 is not None)
    solved = solved_base(shift, v)
    m = conditioning_depth(mu0, v)
    assert_matches_exact(solved.masses_at(m + 1), mu0.masses_at(m + 1).tolist())
    dim, projector = exact_invariant_projector(shift, mu0, v, m)
    rep = relative_ergodicity_dimension(shift, solved, v)
    assert rep.solution_dim == dim
    np.testing.assert_allclose(span_projector(rep.basis), projector, rtol=0, atol=1e-8)


def test_extremality_examples_have_transient_words_and_two_classes():
    """Some example has charged words in no closed class, and two classes."""
    kinds = set()
    for example in EXTREMALITY_EXAMPLES:
        shift, v, mu0 = solved_system(*example)
        rep = relative_ergodicity_dimension(shift, mu0, v)
        transient = sum(rep.class_sizes) < np.count_nonzero(mu0.masses_at(rep.depth) > 0)
        kinds.add((transient, len(rep.class_sizes) > 1))
    assert (True, True) in kinds


def test_pinned_systems_without_a_base_have_none():
    """Every word of the first pinned system leaks, so h = 0; the last one's h d(rho) has no mass.

    Both raise DegenerateH: the first from the solve for h, the last from
    the fixed-point gate of `build_path_measure`.
    """
    for case, message in ((PINNED_EXAMPLES[0], "h is zero"), (PINNED_EXAMPLES[2], "no mass")):
        shift, v, mu0 = solved_system(*case)
        assert mu0 is None
        with pytest.raises(DegenerateH, match=message):
            build_path_measure(shift, v, solved_base(shift, v))


def test_small_masses_between_two_point_masses_are_a_component_of_their_own():
    """A base of 2/9 at 1...1 and 1/9 at 4...4 splits in two, and in three with 1e-13 between them.

    With 1e-13 on each zero of h and q, the words between the two point
    masses carry positive mass, and at the conditioning depth 2 they form
    a closed class of their own, of weight 2e-13: the exact null space on
    the charged words, and the solve with it, grow from 2 dimensions to 3.
    A solve at depth 1 once joined all three into one fixed point.  The
    point masses weigh 2/3 and 1/3, their shares of the base, either way.
    """
    dims, weights = [], []
    for residue in (0.0, 1e-13):
        shift, v, mu0 = solved_system(*RESIDUE_EXAMPLES[2], residue=residue)
        dims.append(exact_invariant_projector(shift, mu0, v, 2)[0])
        assert relative_ergodicity_dimension(shift, mu0, v).solution_dim == dims[-1]
        weights.append(decompose(shift, mu0, v).weights)
    assert dims == [2, 3]
    assert weights[0] == pytest.approx([2 / 3, 1 / 3], rel=1e-12, abs=0)
    assert weights[1] == pytest.approx([2 / 3, 2e-13, 1 / 3], rel=1e-9, abs=0)


def stationarity_rows(shift, v, rho, depth):
    """The fixed-point identity one level above `depth`, as rows on depth-`depth` densities.

    Row w of the matrix maps a density f to the mass of [w] under f d(rho)
    minus that of its transform: the depth-(depth - 1) masses against the
    sum over a of v f rho on [aw].
    """
    n = shift.word_count(depth)
    rho_d = rho.masses_at(depth)
    rows = np.zeros((shift.word_count(depth - 1), n))
    np.add.at(rows, (shift.prefix_indices(depth, depth - 1), np.arange(n)), rho_d)
    np.add.at(rows, (shift.suffix_indices(depth), np.arange(n)), -v.promote(depth).values * rho_d)
    return rows


def gate_outcome(call):
    """The residual of the NotFixedPoint that call() raises, or None when it passes."""
    try:
        call()
    except NotFixedPoint as exc:
        return exc.residual
    return None


@PROPERTY_SETTINGS
@given(weighted_systems(), st.integers(1, 2), st.data())
def test_the_path_family_and_the_extremality_solve_share_one_gate(system, extra, data):
    """A base perturbed below its identity's depth is refused by both, with one residual, or by neither.

    The perturbation of the solved density, at `extra` levels deeper than
    it, lies in the null space of the stationarity rows one level up, on
    the words the density charges: the identity holds to rounding at the
    depth the extremality solve conditions on, and in general not at the
    depth the sampler's gate checks.  Both must agree.
    """
    shift, v, mu0 = solved_system(*system)
    assume(mu0 is not None)
    deep = mu0.density.depth + extra
    density = mu0.density.promote(deep).values.copy()
    support = np.flatnonzero(density > 0)
    rows = stationarity_rows(shift, v, mu0.rho, deep)[:, support]
    _, s, vt = np.linalg.svd(rows)
    null = vt[int((s > 1e-10 * max(s.max(initial=0.0), 1.0)).sum()):].T
    assume(null.shape[1] > 0)
    step = null @ (int_array(data, null.shape[1], 8) - 4.0) / 4.0
    falling = step < 0
    # at most half of each charged word's density is taken away
    scale = min(0.5 * (density[support][falling] / -step[falling]).min(initial=2.0), 1.0)
    density[support] += scale * step
    base = DensityMeasure(CylinderFunction(shift, deep, density), mu0.rho)
    built = gate_outcome(lambda: build_path_measure(shift, v, base))
    assert gate_outcome(lambda: relative_ergodicity_dimension(shift, base, v)) == built


def verify_config(mu0, v, scale):
    """A config of the weight and of mu0's density scaled by `scale`, a base over the invariant measure."""
    shift = v.shift

    def table(f, factor):
        return {"depth": f.depth, "values": {
            word_string(w): x * factor for w, x in zip(shift.words(f.depth), f.values.tolist())}}

    return {"k": shift.k, "matrix": shift.matrix.tolist(), "V": table(v, 1.0),
            "mu0": table(mu0.density, scale)}


@settings(max_examples=30, deadline=None)
@given(sub_normalized_weights())
@example((build_subshift(GOLDEN), CylinderFunction(build_subshift(GOLDEN), 2, [4 / 3, 1.0, 2 / 3])))
def test_verify_verdicts_do_not_depend_on_the_base_scale(tmp_path_factory, system):
    """A solved base scaled by 1e-13 to 1e13 gets the verdict and the residuals of the base itself.

    Each residual of a measure built on the base is read per unit of its
    total mass, so a valid base passes at any scale, and every residual
    stays within rounding of its value at scale 1.
    """
    shift, v = system
    try:
        mu0 = solved_base(shift, v)
    except DegenerateH:
        assume(False)
    assume(mu0.total_mass() > 0)
    reports = {}
    for scale in (1.0, 1e-13, 1e-6, 1e6, 1e13):
        out = tmp_path_factory.mktemp("verify")
        (out / "config.json").write_text(json.dumps(verify_config(mu0, v, scale)))
        code = cli_main(["verify", "--config", str(out / "config.json"), "--out", str(out)])
        reports[scale] = (code, json.loads((out / "verify_report.json").read_text()))
    verdicts = {scale: (code, report["passed"]) for scale, (code, report) in reports.items()}
    assert set(verdicts.values()) == {verdicts[1.0]}, verdicts
    report = reports[1.0][1]
    for scale, (_, report_s) in reports.items():
        assert report_s["mu0"]["residuals"] == report["mu0"]["residuals"]
        assert report_s["mu0"]["total_mass"] == pytest.approx(
            scale * report["mu0"]["total_mass"], rel=1e-12, abs=0)
        for key, value in report["residuals"].items():
            assert abs(report_s["residuals"][key] - value) <= 1e-13, (scale, key)


@st.composite
def leaky_chains(draw):
    """A sub-stochastic `Chain` on 1 to 12 states, with stored zeros and leaking rows.

    Each row steps to up to four distinct states with weights of 0 to 3
    units, a 0 kept as a stored entry, and loses 0 to 2 units more; it
    is divided by its total, so a row of zeros keeps no mass.
    """
    n = draw(st.integers(1, 12))
    counts, indices, data = [], [], []
    for _ in range(n):
        targets = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
        weights = draw(st.lists(st.integers(0, 3), min_size=len(targets), max_size=len(targets)))
        total = max(sum(weights) + draw(st.integers(0, 2)), 1)
        counts.append(len(targets))
        indices += targets
        data += [w / total for w in weights]
    return Chain(np.r_[0, np.cumsum(counts, dtype=np.int64)], np.array(indices, dtype=np.int64),
                 np.array(data))


def on_both_branches(solve):
    """solve() at the defaults, and with every chain on scipy's side.

    At the defaults these chains are iterated, or solved by the sparse
    LU when an iteration gives up, and their classes come from the
    colour search; with no iteration budget and no search rounds, from
    scipy's sparse LU and strong components.
    """
    dense = solve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariant, "ITERATION_BUDGET", 0)
        patch.setattr(invariant, "SEARCH_ROUNDS", -1)
        return dense, solve()


@settings(max_examples=200, deadline=None)
@given(leaky_chains(), st.data())
def test_dense_and_sparse_chain_solvers_agree(chain, data):
    n = chain.shape[0]
    given_steps = chain.toarray()
    dense, sparse = on_both_branches(lambda: closed_classes(chain))
    assert [c.tolist() for c in dense] == [c.tolist() for c in sparse]
    classes = dense

    targets = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    assert _reaching(chain, targets).tolist() == closure_reaching(given_steps, targets).tolist()

    values = int_array(data, 2 * len(classes), 4).reshape(len(classes), 2) / 4.0
    dense, sparse = on_both_branches(lambda: absorption(chain, classes, values))
    np.testing.assert_allclose(dense, sparse, rtol=0, atol=1e-12)

    for members in classes:
        block = chain.restricted(members)
        sums = block @ np.ones(len(members))
        # a lone state with no step to itself has no stationary vector
        if sums.min() > 0:
            kernel = Chain(block.indptr, block.indices, block.data / sums[block.rows()])
            dense, sparse = on_both_branches(
                lambda: _stationary_vector(kernel, np.arange(len(members)))
            )
            np.testing.assert_allclose(dense, sparse, rtol=0, atol=1e-12)
    # neither branch reorders the chain's arrays in place
    assert (chain.toarray() == given_steps).all()


@st.composite
def wide_chains(draw):
    """A `Chain` on 1 to 300 states, with self-loops, stored zeros and rows of no steps.

    The states fall into runs of equal length.  In half of the runs
    every step stays in the run, in the others a fifth of the steps go
    anywhere, so that large classes, closed or not, occur next to
    transient states.
    """
    n = draw(st.integers(1, 300))
    run, degree = draw(st.integers(1, 60)), draw(st.sampled_from([0.5, 1.5, 3.0, 5.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.minimum(rng.poisson(degree, n), n)
    leaky = rng.random(n // run + 1) < 0.5
    indices = []
    for i, count in enumerate(counts):
        own = np.arange(i - i % run, min(i - i % run + run, n))
        stays = count <= len(own) and not (leaky[i // run] and rng.random() < 0.2)
        indices.append(rng.choice(own if stays else np.arange(n), count, replace=False))
    data = rng.integers(0, 4, counts.sum()) / 3.0  # a quarter of the steps are stored zeros
    return Chain(np.r_[0, np.cumsum(counts)], np.concatenate(indices).astype(np.int64), data)


@st.composite
def walk_chains(draw):
    """The prepend walk of a random subshift at depth up to 4, some masses zero."""
    shift = build_subshift(draw(matrices()))
    depth = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masses = rng.integers(0, 3, shift.word_count(depth + 1)) / 2.0
    return prepend_walk(shift, depth, masses)


@settings(max_examples=100, deadline=None)
@given(st.one_of(wide_chains(), walk_chains()), st.data())
def test_graph_search_matches_csgraph_and_the_closure(chain, data):
    """Classes, in order, equal csgraph's and the boolean closure's; reachability masks the closure's."""
    n = chain.shape[0]
    dense = chain.toarray()
    expected = [c.tolist() for c in closure_closed_classes(dense)]
    searched, sparse = on_both_branches(lambda: closed_classes(chain))
    assert [c.tolist() for c in searched] == expected
    assert [c.tolist() for c in sparse] == expected
    for _ in range(3):
        targets = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(n) < 0.05
        assert _reaching(chain, targets).tolist() == closure_reaching(dense, targets).tolist()


# the iterated fixed vectors are within this many times ITERATION_TOL of the exact ones,
# entry by entry; measured up to 0.15 times for absorption and 0.5 times for the
# stationary vectors on 1800 random chains of up to 12 states, and up to 0.85 times on
# 3000 more
ITERATED_SAFETY = 10

# the LU fallbacks are within this many units of rounding (machine epsilon) of the exact
# fixed vectors, relative to each vector's largest entry; measured up to 4.4 units on 23750
# random chains of up to 12 states, while relative to each entry it reached 52 units
LU_SAFETY = 32


def entries_to_exact(chain, classes, values, unless):
    """(value, exact value, largest exact entry of its vector) for absorption and the stationary vectors.

    Every entry of each absorption column and of each closed class's
    stationary vector, the exact ones from `exact_chain`, all as
    Fractions.  A solve that counts in invariant.SOLVE_COUNTS[unless] is
    not listed.
    """
    entries = []

    def collect(solved, exact):
        entries.extend((Fraction(value), x, max(exact)) for value, x in zip(solved.tolist(), exact))

    exact = [[Fraction(x) for x in row] for row in chain.toarray().tolist()]
    before = invariant.SOLVE_COUNTS[unless]
    solved = absorption(chain, classes, values)
    if invariant.SOLVE_COUNTS[unless] == before:
        chances = [exact_chain.absorption(exact, [members.tolist()]) for members in classes]
        for column in range(values.shape[1]):
            held = [sum(Fraction(row[column]) * p[i] for row, p in zip(values, chances))
                    for i in range(chain.shape[0])]
            collect(solved[:, column], held)
    for members in classes:
        block = chain.restricted(members)
        sums = block @ np.ones(len(members))
        # a lone state with no step to itself has no stationary vector
        if sums.min() > 0:
            kernel = Chain(block.indptr, block.indices, block.data / sums[block.rows()])
            before = invariant.SOLVE_COUNTS[unless]
            q = _stationary_vector(kernel, np.arange(len(members)))
            if invariant.SOLVE_COUNTS[unless] == before:
                steps = [[Fraction(x) for x in row] for row in kernel.toarray().tolist()]
                collect(q, exact_chain.stationary_vector(steps, list(range(len(members)))))
    return entries


@settings(max_examples=100, deadline=None)
@given(leaky_chains(), st.data())
def test_iterated_vectors_are_exact_within_their_tolerance(chain, data):
    """Iterated absorption values and stationary vectors are the exact ones, to a stated factor.

    The error is relative to each exact entry of `exact_chain`'s solve,
    at most ITERATED_SAFETY times ITERATION_TOL, and a zero is exact.
    Only the solves the iteration took are checked: a chain that gives
    up takes the LU, which the test of the LU fallbacks checks.
    """
    classes = closed_classes(chain)
    values = int_array(data, 2 * len(classes), 4).reshape(len(classes), 2) / 4.0
    bound = ITERATED_SAFETY * invariant.ITERATION_TOL
    for value, x, _ in entries_to_exact(chain, classes, values, unless="lu"):
        assert (value == 0) == (x == 0)
        assert abs(value - x) <= bound * x


@settings(max_examples=100, deadline=None)
@given(leaky_chains(), st.data())
def test_lu_fallbacks_are_exact_within_a_stated_factor(chain, data):
    """With no iteration budget, absorption and the stationary vectors are exact to LU_SAFETY roundings.

    Every fixed vector takes its fallback, one sparse LU of I - Q or of
    its transpose.  Each entry is within LU_SAFETY times the machine
    epsilon of `exact_chain`'s, relative to the largest exact entry of
    its vector: an LU bounds its error by the vector's size, not each
    entry's, and may miss an exact zero by a rounding.  Rows may lose
    mass, and a self-loop puts a second entry on the diagonal of I - P,
    which the LU adds.
    """
    classes = closed_classes(chain)
    values = int_array(data, 2 * len(classes), 4).reshape(len(classes), 2) / 4.0
    bound = LU_SAFETY * Fraction(np.finfo(np.float64).eps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariant, "ITERATION_BUDGET", 0)
        entries = entries_to_exact(chain, classes, values, unless="iterated")
    for value, x, largest in entries:
        assert abs(value - x) <= bound * largest
