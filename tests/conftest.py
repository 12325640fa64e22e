"""Shared fixtures and brute-force oracles.

The oracle helpers below work on plain dicts and itertools enumeration,
with no shared code paths with the library's vectorized internals, so
agreement between the two is evidence rather than tautology.  The exact
solves behind h, nu, rho and the extremality space, and the helpers they
use, live in `exact_chain`.
"""

from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest

from exact_chain import brute_column_sums, brute_words, closure_reaching, table_value
from shiftpath import (
    CylinderFunction,
    DensityMeasure,
    ZeroMassConditioning,
    build_subshift,
    fixed_density_measure,
    strongly_invariant_measure,
)
from shiftpath.measures import _window_masses
from shiftpath.pathspace import SampleBatch, _usable_cpus
from shiftpath.subshift import word_string

FULL2 = [[1, 1], [1, 1]]
GOLDEN = [[1, 1], [1, 0]]
BLOCK4 = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
PERM2 = [[0, 1], [1, 0]]
IDENT2 = [[1, 0], [0, 1]]

# column-stochastic prepend law used by the sampler fixture: V = 2 P
SAMPLER_P = np.array([[1.0 / 3.0, 0.5], [2.0 / 3.0, 0.5]])


@pytest.fixture
def full2():
    return build_subshift(FULL2)


@pytest.fixture
def golden():
    return build_subshift(GOLDEN)


@pytest.fixture
def block4():
    return build_subshift(BLOCK4)


@pytest.fixture
def perm2():
    return build_subshift(PERM2)


@pytest.fixture
def ident2():
    return build_subshift(IDENT2)


def weight_full_half(shift):
    """V = (3/2, 1/2) on the full 2-shift."""
    return CylinderFunction.from_table(shift, 1, {(1,): 1.5, (2,): 0.5})


def weight_markov_full(shift):
    """Depth-2 weight 2*P on the full 2-shift; prepend law is exactly P."""
    table = {
        (a, j): 2.0 * SAMPLER_P[a - 1, j - 1] for a in (1, 2) for j in (1, 2)
    }
    return CylinderFunction.from_table(shift, 2, table)


def slow_leak_weight(shift, stay=2.0 - 2e-4, leave=1e-4):
    """Full 2-shift, depth 2: word 1 keeps its mass; word 2 sends leave/2 to word 1, keeps stay/2."""
    return CylinderFunction.from_table(
        shift, 2, {(1, 1): 2.0, (2, 1): 0.0, (1, 2): leave, (2, 2): stay}
    )


def weight_markov_golden(shift):
    """Depth-2 weight on the golden-mean shift with fixed density one."""
    return CylinderFunction.from_table(
        shift, 2, {(1, 1): 4.0 / 3.0, (2, 1): 2.0 / 3.0, (1, 2): 1.0}
    )


def fed_loop_values(k, fed):
    """Depth-3 weight values on the full k-shift whose prepend walk feeds words into loops.

    From a depth-2 word xy (0-based symbols) the walk steps, with equal
    weights, to the words ax for the symbols a in fed[x][y], and to the
    loop xx when x is not in fed.  Each word's branches average 1.
    """
    return [float(k * (a in fed[x][y]) / len(fed[x][y]) if x in fed else k * (a == x))
            for a, x, y in product(range(k), repeat=3)]


# the full 4-shift with loops at 1, 2 and 3; 41 and 42 feed the first two loops half each,
# 43 and 44 the third, so a depth-1 invariant function has f(3) = (f(1) + f(2)) / 2
THREE_LOOPS = ([[1] * 4] * 4, fed_loop_values(4, {3: ([0, 1], [0, 1], [2], [2])}))
# the full 5-shift with loops at 1 to 4; the words of 5 feed the first two loops or the last
# two, half each, so a depth-1 invariant function has f(1) + f(2) = f(3) + f(4)
FOUR_LOOPS = ([[1] * 5] * 5, fed_loop_values(5, {4: ([0, 1], [0, 1], [2, 3], [2, 3], [0, 1])}))


def stock_systems():
    """Non-degenerate (name, shift, weight) triples used across the suite."""
    full = build_subshift(FULL2)
    gold = build_subshift(GOLDEN)
    perm = build_subshift(PERM2)
    block = build_subshift(BLOCK4)
    return [
        ("full_half", full, weight_full_half(full)),
        ("full_markov", full, weight_markov_full(full)),
        ("golden_flat", gold, CylinderFunction.constant(gold, 1.0)),
        ("golden_markov", gold, weight_markov_golden(gold)),
        ("perm_flat", perm, CylinderFunction.constant(perm, 1.0)),
        ("block_flat", block, CylinderFunction.constant(block, 1.0)),
    ]


def solved_base(shift, v):
    """mu0 = h d(rho) for the weight, built from the solver."""
    return fixed_density_measure(shift, v, rho=strongly_invariant_measure(shift))


# ---------------------------------------------------------------------------
# brute-force oracles (dict and loop based on purpose)


def leaf_up_prefix_indices(shift, depth, prefix_depth):
    """The former prefix map, kept as an oracle: each word walks the parent arrays up to its prefix."""
    idx = np.arange(shift.word_count(depth), dtype=np.int64)
    for d in range(depth, prefix_depth, -1):
        idx = shift._parent[d][idx]
    return idx


def measure_mass(mu, word):
    """Mass of [word] from a dict of masses at some fixed finer depth."""
    depth = len(next(iter(mu)))
    word = tuple(word)
    if len(word) == depth:
        return mu.get(word, 0.0)
    assert len(word) < depth
    return sum(m for u, m in mu.items() if u[: len(word)] == word)


def brute_invariant_mass(matrix, q, word):
    """Product formula for the preimage-averaging invariant measure."""
    cols = brute_column_sums(matrix)
    mass = q[word[-1] - 1]
    for a, b in zip(word, word[1:]):
        mass *= matrix[a - 1][b - 1] / cols[b - 1]
    return mass


def brute_transfer(matrix, v, f, out_depth):
    """Preimage average of v*f as a dict over depth-out_depth words."""
    k = len(matrix)
    cols = brute_column_sums(matrix)
    out = {}
    for w in brute_words(matrix, out_depth):
        total = 0.0
        for a in range(1, k + 1):
            if matrix[a - 1][w[0] - 1]:
                aw = (a,) + w
                total += table_value(v, aw) * table_value(f, aw)
        out[w] = total / cols[w[0] - 1]
    return out


def brute_pushforward(matrix, v, mu, out_depth):
    """Raw transform sum_a v(aw) mu([aw]) as a dict (no preimage averaging)."""
    k = len(matrix)
    out = {}
    for w in brute_words(matrix, out_depth):
        total = 0.0
        for a in range(1, k + 1):
            if matrix[a - 1][w[0] - 1]:
                aw = (a,) + w
                total += table_value(v, aw) * measure_mass(mu, aw)
        out[w] = total
    return out


def brute_weight_product(matrix, v, n, depth):
    """Running product of v along the first n truncations, at given depth."""
    out = {}
    for u in brute_words(matrix, depth):
        prod = 1.0
        for i in range(n):
            prod *= table_value(v, u[i:])
        out[u] = prod
    return out


def random_subshift(rng, k, require_irreducible=True, max_tries=500):
    """A random 0/1 transition matrix with every column hit, via rejection."""
    for _ in range(max_tries):
        m = (rng.random((k, k)) < 0.6).astype(int)
        if (m.sum(axis=0) == 0).any():
            continue
        shift = build_subshift(m)
        if not require_irreducible or shift.irreducible:
            return shift
    raise RuntimeError("no admissible random matrix found")


def random_weight(shift, rng, depth, low=0.1, high=2.0):
    vals = rng.uniform(low, high, shift.word_count(depth))
    return CylinderFunction(shift, depth, vals)


def random_function(shift, rng, depth, scale=2.0):
    vals = rng.uniform(-scale, scale, shift.word_count(depth))
    return CylinderFunction(shift, depth, vals)


def function_dict(f):
    return {w: x for w, x in zip(f.shift.words(f.depth), f.values)}


def measure_dict(mu, depth):
    return {w: m for w, m in zip(mu.shift.words(depth), mu.masses_at(depth))}


def conditioning_depth(mu0, v):
    """The word depth the extremality system conditions on."""
    d0 = mu0.density.depth if isinstance(mu0, DensityMeasure) else mu0.depth
    return max(v.depth - 1, d0 - 1, 1)


def conditional_expectation(shift, mu0, v, g):
    """Average of v * g over the prepended extensions, given the current word.

    The former `extremality.conditional_expectation`, kept as an oracle.

    On a word w the value is

        sum_a v(aw) g(aw) mu0([aw])  /  sum_a mu0([aw]),

    with the sums over admissible prepend symbols a, evaluated at a
    depth fine enough to resolve v, g and the base density.  Words whose
    one-step extension carries no mu0 mass get the value 0.  The result
    never exceeds the sup of v * g in absolute value.
    """
    dout = max(max(v.depth, g.depth) - 1, mu0.depth - 1, 1)
    num = _window_masses(shift, v * g, mu0, 1, dout)
    den = _window_masses(shift, CylinderFunction.constant(shift, 1.0), mu0, 1, dout)
    vals = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return CylinderFunction(shift, dout, vals)


# ---------------------------------------------------------------------------
# dense bodies of the chain solver's two LU solves, kept as bit-identity oracles


def dense_stationary_vector(chain, states):
    """q = q P, sum q = 1, for the `Chain` P on `states`: numpy's solve of the renewal form.

    State 0 is pinned to 1; the rest solve (I - P[1:, 1:])^T x = P[0, 1:].
    """
    p = chain.restricted(states).toarray()
    k = p.shape[0]
    x = np.linalg.solve(np.eye(k - 1) - p[1:, 1:].T, p[0, 1:])
    q = np.clip(np.r_[1.0, x], 0.0, None)
    return q / q.sum()


def dense_absorption(chain, classes, values):
    """The absorption values of a sub-stochastic `Chain` by numpy's solve of the dense transient block."""
    out = np.zeros((chain.shape[0], values.shape[1]))
    closed = np.zeros(chain.shape[0], dtype=bool)
    for members, row in zip(classes, values):
        out[members] = row
        closed[members] = True
    live = np.flatnonzero(closure_reaching(chain.toarray(), out.any(axis=1)) & ~closed)
    if not len(live):
        return out
    system = np.eye(len(live)) - chain.restricted(live).toarray()
    # out is 0 off the closed states, so chain @ out is P_TC X_C on the live rows
    entering = np.column_stack([chain @ column for column in out.T])
    out[live] = np.linalg.solve(system, entering[live])
    return out


# ---------------------------------------------------------------------------
# the former sampler, with its dense (states x branches) kernel, kept as an oracle


class DenseWalkKernel:
    """The former sampler kernel, with dense (states x branches) arrays, kept as an oracle.

    Finite-state sampler for the trajectory process at a fixed record
    depth.  The record of a trajectory is the depth-D truncation of its current
    coordinate.  Prepending symbol a to a record u happens with the
    conditional mass ratio mu_{k+1}([a u]) / mu_k([u]).  Once D resolves
    both the weight and the base density those ratios telescope: the
    running-product factors beyond the first cancel between numerator
    and denominator, so the ratio equals mu_1([a u]) / mu_0([u]) at
    every step and the record sequence is a time-homogeneous Markov
    chain on the depth-D words.  No truncation bias remains.
    """

    def __init__(self, pm, working_depth):
        shift = pm.shift
        d = working_depth
        mu0 = pm.marginal(0)
        mu1 = pm.marginal(1)
        den = mu0.masses_at(d)
        total = den.sum()
        if total <= 0:
            raise ZeroMassConditioning("base measure has no mass at the record depth")
        self.shift = shift
        self.depth = d
        self.p0 = den / total
        cum0 = np.cumsum(self.p0)
        cum0[-1] = 1.0
        self.cum0 = cum0

        # state w moves along its branches a w, in the order of a, so the
        # branch column is a's place among the preimages of w's first symbol
        e = d + 1
        fs = shift.suffix_indices(e)
        sym = shift.symbols_array(e)
        col = (np.cumsum(shift.matrix, axis=0) - 1)[sym[:, 0] - 1, sym[:, 1] - 1]
        counts = shift.column_sums[shift.symbols_array(d)[:, 0] - 1]
        n_states, kmax = len(counts), int(counts.max())

        prob = np.zeros((n_states, kmax))
        nxt = np.zeros((n_states, kmax), dtype=np.int64)
        syms = np.zeros((n_states, kmax), dtype=np.int64)
        prob[fs, col] = mu1.masses_at(e)
        nxt[fs, col] = shift.prefix_indices(e, d)
        syms[fs, col] = sym[:, 0]

        rowsum = prob.sum(axis=1)
        self.invalid = (den <= 0) | (rowsum <= 0)
        safe_den = np.where(self.invalid, 1.0, rowsum)
        prob /= safe_den[:, None]
        cdf = np.cumsum(prob, axis=1)
        # clamp the last real branch so rounding in the row sums cannot
        # push a uniform draw past every branch
        last = np.clip(counts - 1, 0, None)
        cdf[np.arange(n_states), last] = np.inf
        pad = np.arange(kmax)[None, :] > last[:, None]
        cdf[pad] = np.inf
        self.cdf = cdf
        self.nxt = nxt
        self.syms = syms

    def draw_base(self, r):
        return np.minimum(
            np.searchsorted(self.cum0, r, side="right"), len(self.p0) - 1
        )

    def step(self, states, r):
        if self.invalid[states].any():
            bad = int(states[self.invalid[states]][0])
            word = word_string(self.shift.symbols_array(self.depth)[bad])
            raise ZeroMassConditioning(f"trajectory reached the zero-mass cylinder [{word}]")
        choice = np.argmax(r[:, None] < self.cdf[states], axis=1)
        return self.nxt[states, choice], self.syms[states, choice]


def dense_sample_paths(pm, n_steps, n_samples, base_depth, seed, workers=1):
    """The former sampler, which draws every uniform up front, kept as an oracle.

    Draws trajectories of the path process, exactly and reproducibly.
    The base record is drawn from mu0 at the working depth (the larger
    of base_depth, the weight depth and the base density depth, so the
    conditional ratios are exact), then each step prepends a symbol with
    its conditional mass ratio.  All randomness comes from one
    generator seeded with `seed` and is precomputed as a block, so the
    returned batch depends only on (arguments, seed) and not on the
    worker count, which is capped at the usable CPUs and the samples.
    """
    if n_steps < 0 or n_samples < 1 or base_depth < 1:
        raise ValueError("need n_steps >= 0, n_samples >= 1, base_depth >= 1")
    working = max(base_depth, pm.v.depth, pm.density_depth)
    kernel = DenseWalkKernel(pm, working)
    rng = np.random.default_rng(seed)
    uniforms = rng.random((n_samples, n_steps + 1))

    def run(rows):
        states = kernel.draw_base(uniforms[rows, 0])
        base_states = states.copy()
        prep = np.zeros((len(rows), n_steps), dtype=np.int64)
        for j in range(n_steps):
            states, syms = kernel.step(states, uniforms[rows, j + 1])
            prep[:, j] = syms
        return base_states, prep

    chunks = np.array_split(np.arange(n_samples), max(min(workers, n_samples, _usable_cpus()), 1))
    if len(chunks) == 1:
        results = [run(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(run, chunks))
    base_states = np.concatenate([r[0] for r in results])
    prepends = np.vstack([r[1] for r in results])
    sym = pm.shift.symbols_array(working)
    base_words = sym[base_states][:, :base_depth]
    return SampleBatch(pm.shift, base_depth, n_steps, base_words, prepends)
