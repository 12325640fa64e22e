"""Strongly invariant measures and their product-formula masses."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    BLOCK4,
    GOLDEN,
    IDENT2,
    brute_invariant_mass,
    random_subshift,
    weight_markov_full,
)
from shiftpath import (
    CylinderFunction,
    DensityMeasure,
    MarkovMeasure,
    build_subshift,
    markov_measure_for_weight,
    strongly_invariant_measure,
    transform_measure,
    verify_strong_invariance,
)
from shiftpath import invariant, subshift
from shiftpath.invariant import (
    Chain,
    _lu_solve,
    _reaching,
    _strong_invariance_defects,
    absorption,
    closed_classes,
)
from shiftpath.subshift import prepend_walk


def test_golden_symbol_masses_exact(golden):
    rho = strongly_invariant_measure(golden)
    assert abs(rho.q[0] - 2.0 / 3.0) <= 1e-12
    assert abs(rho.q[1] - 1.0 / 3.0) <= 1e-12


def test_golden_cylinder_masses_frozen(golden):
    rho = strongly_invariant_measure(golden)
    assert rho.mass((2, 1, 1)) == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert rho.mass((1, 2, 1)) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_full_and_permutation_shifts_are_uniform(full2, perm2):
    for shift in (full2, perm2):
        rho = strongly_invariant_measure(shift)
        assert np.allclose(rho.q, [0.5, 0.5], atol=1e-13)
        assert not rho.non_unique


def test_masses_match_product_formula():
    rng = np.random.default_rng(3)
    shifts = [random_subshift(rng, k) for k in (2, 3, 4)]
    for shift in shifts:
        rho = strongly_invariant_measure(shift)
        matrix = shift.matrix.tolist()
        for depth in range(1, 5):
            masses = rho.masses_at(depth)
            for w, m in zip(shift.words(depth), masses):
                expect = brute_invariant_mass(matrix, rho.q, w)
                assert m == pytest.approx(expect, abs=1e-13)


def test_single_masses_are_the_table_entries():
    """mass(word) takes its factors in the order of masses_at, so the two agree bit for bit."""
    rng = np.random.default_rng(0)
    full3 = build_subshift(np.ones((3, 3), dtype=int))
    kernel = rng.random((3, 3))
    rho = MarkovMeasure(full3, [0.2, 0.3, 0.5], kernel=kernel / kernel.sum(axis=0))
    for w, m in zip(full3.words(6), rho.masses_at(6)):
        assert rho.mass(w) == m


def test_strong_invariance_defect_small(full2, golden, perm2):
    for shift in (full2, golden, perm2):
        rho = strongly_invariant_measure(shift)
        for depth in range(1, 6):
            assert verify_strong_invariance(rho, depth) <= 1e-12


def test_strong_invariance_detects_wrong_vector(golden):
    fake = MarkovMeasure(golden, np.array([0.7, 0.3]))
    assert verify_strong_invariance(fake, 2) > 1e-3


def test_strong_invariance_defect_at_depth_two_only():
    """A kernel that keeps the symbol masses but breaks the branch average."""
    full2 = build_subshift([[1, 1], [1, 1]])
    sticky = MarkovMeasure(full2, [0.5, 0.5], kernel=[[0.8, 0.2], [0.2, 0.8]])
    assert verify_strong_invariance(sticky, 1) == 0.0
    assert verify_strong_invariance(sticky, 2) >= 0.1


def test_one_pass_defects_match_the_per_depth_calls():
    """Each depth's defect is the identity's worst word; their running max is each call's."""
    rng = np.random.default_rng(7)
    full3 = build_subshift(np.ones((3, 3), dtype=int))
    kernel = rng.random((3, 3))
    q = rng.random(3)
    rho = MarkovMeasure(full3, q / q.sum(), kernel=kernel / kernel.sum(axis=0))
    defects = _strong_invariance_defects(rho, 5)
    # integral of 1_[w] against the branch average: mass of [w_2..w_d] / #branches of w_2
    avg = full3.matrix / full3.column_sums
    oracle = [np.abs(rho.q - avg @ rho.q).max()] + [
        max(abs(rho.mass(w) - avg[w[0] - 1, w[1] - 1] * rho.mass(w[1:])) for w in full3.words(d))
        for d in range(2, 6)
    ]
    assert np.allclose(defects, oracle, rtol=1e-12, atol=0)
    expected = [verify_strong_invariance(rho, d) for d in range(1, 6)]
    assert np.maximum.accumulate(defects).tolist() == expected


def test_strong_invariance_walks_each_level_at_most_twice(monkeypatch):
    """On the 2-cycle every depth has 2 words, so the pass must be linear in the depth.

    A pass that walks every level above each depth again is quadratic in
    the depth.
    """
    cycle = build_subshift([[0, 1], [1, 0]])
    rho = strongly_invariant_measure(cycle)
    levels, walked = subshift._levels, []

    def counted(shift, depth):
        for level in levels(shift, depth):
            walked.append(level)
            yield level

    monkeypatch.setattr(subshift, "_levels", counted)
    assert verify_strong_invariance(rho, 3000) == 0.0
    assert 3000 <= len(walked) <= 2 * 3000


@pytest.mark.parametrize("matrix, q", [
    (np.ones((3, 3), dtype=int), [0.2, 0.3, 0.5]),
    (BLOCK4, [0.375, 0.625, 0.0, 0.0]),
])
def test_mass_tables_do_not_depend_on_the_query_order(matrix, q):
    """Every depth's table is the same bits whichever depths a fresh measure was asked first."""
    shift = build_subshift(matrix)
    kernel = np.random.default_rng(5).random(shift.matrix.shape) * shift.matrix
    kernel /= kernel.sum(axis=0)
    tables = []
    for order in ([7], range(1, 8), [7, 3], [3, 7]):
        rho = MarkovMeasure(shift, q, kernel=kernel)
        for depth in order:
            rho.masses_at(depth)
        tables.append([rho.masses_at(depth).tobytes() for depth in range(1, 8)])
    assert all(t == tables[0] for t in tables[1:])
    assert not rho.strongly_invariant and rho.masses_at(7).min() < rho.masses_at(7).max()


def test_strong_invariance_masses_do_not_use_the_suffix_map(monkeypatch):
    """A wrong suffix map shows up as a defect, so the masses come by another route.

    On the golden-mean shift every depth-2 cylinder has mass 1/3, so
    the swap is made at depth 4, between the suffixes 111 (mass 1/6)
    and 121 (mass 1/3).  The shift is fresh, so no mass is cached
    before the swap.
    """
    golden = build_subshift(GOLDEN)
    right = golden.suffix_indices
    wrong = right(4)[[2, 1, 0, *range(3, golden.word_count(4))]]
    suffix_masses = strongly_invariant_measure(build_subshift(GOLDEN)).masses_at(3)
    assert suffix_masses[wrong[0]] != suffix_masses[right(4)[0]]
    monkeypatch.setattr(golden, "suffix_indices", lambda d: wrong if d == 4 else right(d))
    rho = strongly_invariant_measure(golden)
    assert verify_strong_invariance(rho, 3) <= 1e-15
    assert verify_strong_invariance(rho, 4) > 1e-3


def test_reducible_matrices_flag_non_uniqueness():
    """Non-uniqueness is reported by the `non_unique` flag alone, with no warning."""
    for matrix, expected_q in ((BLOCK4, [0.25] * 4), (IDENT2, [0.5, 0.5])):
        shift = build_subshift(matrix)
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            rho = strongly_invariant_measure(shift)
        assert raised == []
        assert rho.non_unique
        assert np.allclose(rho.q, expected_q, atol=1e-12)
        # the mixture is still strongly invariant
        for depth in range(1, 5):
            assert verify_strong_invariance(rho, depth) <= 1e-12


def test_markov_measure_validation(golden):
    with pytest.raises(ValueError):
        MarkovMeasure(golden, np.array([0.9, 0.2]))  # not normalized
    with pytest.raises(ValueError):
        MarkovMeasure(golden, np.array([1.2, -0.2]))  # negative entry
    bad_kernel = np.array([[0.5, 0.5], [0.5, 0.5]])  # (2,2) is not a transition
    with pytest.raises(ValueError):
        MarkovMeasure(golden, np.array([2.0 / 3.0, 1.0 / 3.0]), kernel=bad_kernel)


def test_markov_measure_refuses_nan(full2):
    for q in ([np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan]):
        with pytest.raises(ValueError):
            MarkovMeasure(full2, q)


def test_markov_measure_refuses_a_kernel_whose_columns_do_not_sum_to_one(full2):
    # columns summing to 1.8 would make the depth-2 masses sum to 1.8
    for kernel in ([[0.9, 0.9], [0.9, 0.9]], [[0.5, 0.5], [0.5, 0.5 + 1e-9]],
                   [[np.nan, 0.5], [np.nan, 0.5]]):
        with pytest.raises(ValueError, match="columns"):
            MarkovMeasure(full2, [0.5, 0.5], kernel=kernel)
    MarkovMeasure(full2, [0.5, 0.5], kernel=[[0.8, 0.2], [0.2, 0.8]])
    # a weight's kernel is refused as the weight's fault, by the same 1e-12
    with pytest.raises(ValueError, match="not normalized"):
        markov_measure_for_weight(full2, CylinderFunction(full2, 1, [1.0 + 1e-7] * 2))


def test_integrate_uses_masses(golden):
    from shiftpath import CylinderFunction

    rho = strongly_invariant_measure(golden)
    f = CylinderFunction.from_table(golden, 2, {(1, 1): 1.0, (1, 2): 2.0, (2, 1): 4.0})
    masses = rho.masses_at(2)
    assert rho.integrate(f) == pytest.approx(f.values @ masses, abs=1e-15)
    assert rho.total_mass() == pytest.approx(1.0, abs=1e-13)


def test_markov_measure_for_weight(full2):
    """A normalized depth-2 weight induces its own Markov base measure."""
    v = weight_markov_full(full2)
    mu = markov_measure_for_weight(full2, v)
    # stationary vector of P = [[1/3,1/2],[2/3,1/2]] is (3/7, 4/7)
    assert np.allclose(mu.q, [3.0 / 7.0, 4.0 / 7.0], atol=1e-12)
    # front extension factor is P(a, w1)
    p = np.array([[1.0 / 3.0, 0.5], [2.0 / 3.0, 0.5]])
    for w in full2.words(2):
        for a in (1, 2):
            ratio = mu.mass((a,) + w) / mu.mass(w)
            assert ratio == pytest.approx(p[a - 1, w[0] - 1], abs=1e-13)
    assert not mu.strongly_invariant


def test_a_kernel_off_by_2e_6_is_not_strongly_invariant(full2):
    """The 1e-14 bound on the kernel is absolute: no relative slack lets a 2e-6 gap through."""
    kernel = np.array([[0.5 + 2e-6, 0.5], [0.5 - 2e-6, 0.5]])
    q = np.array([0.5, 0.5 - 2e-6]) / (1.0 - 2e-6)  # kernel @ q == q
    mu = MarkovMeasure(full2, q, kernel=kernel)
    assert verify_strong_invariance(mu, 2) > 1e-7
    assert not mu.strongly_invariant
    one = CylinderFunction.constant(full2, 1.0)
    with pytest.raises(ValueError, match="strongly invariant"):
        transform_measure(full2, one, DensityMeasure(one, mu))


def test_markov_measure_for_weight_rejects_unnormalized(full2):
    from shiftpath import CylinderFunction

    v = CylinderFunction.from_table(
        full2, 2, {(1, 1): 1.0, (1, 2): 1.0, (2, 1): 1.0, (2, 2): 0.5}
    )
    with pytest.raises(ValueError):
        markov_measure_for_weight(full2, v)


def test_quiet_invariant_helper_matches(block4):
    """Tests call the solver directly, as no warning needs muting: BLOCK4 is flagged non-unique."""
    rho = strongly_invariant_measure(block4)
    assert rho.non_unique


def test_closed_classes_are_ordered_by_lowest_state():
    # 0 -> 2 leaves {0}; {1, 3} and {2, 4} are closed; {5} is closed alone
    edges = [(0, 2), (1, 3), (3, 1), (4, 2), (2, 4), (5, 5)]
    graph = np.zeros((6, 6))
    for i, j in edges:
        graph[i, j] = 0.5
    assert [c.tolist() for c in closed_classes(graph)] == [[1, 3], [2, 4], [5]]


def test_closed_classes_ignore_stored_zeros():
    # the stored zero 0 -> 1 is no edge, so {0} is closed by itself
    graph = Chain(np.array([0, 2, 3]), np.array([0, 1, 0]), np.array([1.0, 0.0, 1.0]))
    assert [c.tolist() for c in closed_classes(graph)] == [[0]]


def pinned_chain(steps):
    """A `Chain` with one step of weight 1 from each state i to steps[i], or none where it is -1."""
    steps = np.asarray(steps)
    has = steps >= 0
    return Chain(np.r_[0, np.cumsum(has)], steps[has], np.ones(has.sum()))


def csgraph_calls(monkeypatch):
    """A list that grows by one each time scipy's strong components run."""
    from scipy.sparse import csgraph

    calls, strong_components = [], csgraph.connected_components
    monkeypatch.setattr(csgraph, "connected_components",
                        lambda *args, **kwargs: calls.append(args) or strong_components(*args, **kwargs))
    return calls


def search_both_sides(monkeypatch, chain, rounds):
    """The closed classes, and the csgraph calls, at the budget, at `rounds` - 1 rounds and at `rounds`.

    `rounds` is the count the colour search needs on the chain: scipy's
    strong components run just below it and not at it.
    """
    calls = csgraph_calls(monkeypatch)
    found = []
    for budget in (invariant.SEARCH_ROUNDS, rounds - 1, rounds):
        monkeypatch.setattr(invariant, "SEARCH_ROUNDS", budget)
        found.append(([c.tolist() for c in closed_classes(chain)], len(calls)))
        calls.clear()
    return found


LONG = 1024
PINNED = {
    # each state's one step (-1 for none), the closed classes, the states reaching state 0,
    # the states reaching the last state, the rounds the colour search needs
    "path": (np.r_[np.arange(1, LONG), -1], [[LONG - 1]], [0], list(range(LONG)), LONG + 1),
    "reversed path": (np.arange(-1, LONG - 1), [[0]], list(range(LONG)), [LONG - 1], 2),
    "cycle": (np.roll(np.arange(LONG), -1), [list(range(LONG))], list(range(LONG)),
              list(range(LONG)), 2 * LONG),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_graph_search_walks_1024_states_without_recursion(name, monkeypatch):
    """Paths and a cycle of 1024 states, on both sides of the round budget.

    The colour search raises a path's colours one state a round and
    walks a cycle once more from its root, so both go to scipy at the
    default budget; the reversed path settles in two rounds.  With the
    budget at the rounds it needs, the colour search alone gives the
    same classes.
    """
    steps, classes, into_first, into_last, rounds = PINNED[name]
    chain = pinned_chain(steps)
    falls_back = int(rounds > invariant.SEARCH_ROUNDS)
    assert search_both_sides(monkeypatch, chain, rounds) == [
        (classes, falls_back), (classes, 1), (classes, 0)
    ]
    for state, expected in ((0, into_first), (LONG - 1, into_last)):
        targets = np.arange(LONG) == state
        assert np.flatnonzero(_reaching(chain, targets)).tolist() == expected


def test_reachability_above_the_cut_searches_one_level_per_round(monkeypatch):
    """A 3000-state path into a closed state, with a branch off its middle that reaches none of it.

    State 1500 steps half to 1501 and half to the first of 100 branch
    states, which end in a state of no steps, a closed class that holds 0.
    The search back from the path's end takes 3000 rounds.  The colour search needs 1602 rounds, so at the default budget
    the classes come from scipy's strong components.
    """
    n, branch, fork = 3000, 100, 1500
    steps = [[i + 1] for i in range(n - 1)] + [[n - 1]]
    steps += [[i + 1] for i in range(n, n + branch - 1)] + [[]]
    weights = [[1.0] * len(s) for s in steps]
    steps[fork], weights[fork] = [fork + 1, n], [0.5, 0.5]
    chain = Chain(np.r_[0, np.cumsum([len(s) for s in steps])], np.array([j for s in steps for j in s]),
                  np.array([x for w in weights for x in w]))
    states = np.arange(n + branch)
    assert _reaching(chain, states == n - 1).tolist() == (states < n).tolist()
    into_branch = (states <= fork) | (states >= n)
    assert _reaching(chain, states == n + branch - 1).tolist() == into_branch.tolist()

    pinned = [[n - 1], [n + branch - 1]]
    assert search_both_sides(monkeypatch, chain, 1602) == [(pinned, 1), (pinned, 1), (pinned, 0)]
    classes = closed_classes(chain)
    held = absorption(chain, classes, np.array([[1.0], [0.0]]))[:, 0]
    assert (held[n:] == 0.0).all()
    assert held[:n].tolist() == np.where(states[:n] <= fork, 0.5, 1.0).tolist()


def test_lu_solve_adds_duplicate_entries():
    # two steps from 0 to 0 and a stored zero make I - Q the system [[2, 1], [0, 4]]
    q = Chain(np.array([0, 3, 5]), np.array([0, 1, 0, 0, 1]), np.array([-0.5, -1.0, -0.5, 0.0, -3.0]))
    assert _lu_solve(q, np.array([4.0, 8.0])).tolist() == [1.0, 2.0]
    assert _lu_solve(q, np.array([2.0, 9.0]), "T").tolist() == [1.0, 2.0]


def test_closed_classes_and_absorption_densify_no_whole_chain(block4):
    """On the 1024-word prepend walk of BLOCK4 both stay far below one 1024 x 1024 float array.

    Every word is in one of the two closed classes, so no block is solved.
    """
    depth = 9
    walk = prepend_walk(block4, depth, np.full(block4.word_count(depth + 1), 0.5))
    assert walk.shape == (1024, 1024)
    absorption(walk, closed_classes(walk), np.eye(2))  # loads what the solvers import
    tracemalloc.start()
    try:
        classes = closed_classes(walk)
        absorbed = absorption(walk, classes, np.eye(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(c) for c in classes] == [512, 512]
    assert set(absorbed.sum(axis=1)) == {1.0}
    assert peak < 1 << 20, f"{peak} bytes"


def test_markov_measure_leaves_the_callers_kernel_writeable(full2):
    kernel = np.array([[0.25, 0.5], [0.75, 0.5]])
    rho = MarkovMeasure(full2, [0.4, 0.6], kernel=kernel)
    masses = rho.masses_at(2).copy()
    assert kernel.flags.writeable
    kernel[:] = 0.5
    rho._mass_cache.clear()
    assert rho.masses_at(2).tolist() == masses.tolist()
    assert not rho.kernel.flags.writeable
