"""Weighted measures on the space of inverse-branch trajectories.

A fixed point mu0 of the weighted transformer, together with its weight
v, determines a consistent family of level measures

    mu_n = (running product of v over n steps) d(mu0),

one per coordinate of the space of backward trajectories of the shift
(sequences x0, x1, ... with shift(x_{n+1}) = x_n).  The family is never
materialized as a single object; every computation below works through
the exact finite-depth marginals.  Consistency of the family and the
reweighting relation between consecutive levels are checkable
identities, and the trajectory process can be sampled exactly because
the one-step conditional masses are ratios of stored cylinder masses:
the sampler steps along `subshift.step_walk`, the same walk of
probabilities whose harmonic functions the extremality solve computes.
`build_path_measure` admits mu0 through `measures.require_fixed_point`,
the one fixed-point gate, which the extremality solve passes too.
"""

import os
import threading

import numpy as np

from .errors import FilterMismatch, TableTooLarge, TooFewSamples, ZeroMassConditioning
from .invariant import Record
from .measures import _window_masses, base_depth, check_fixed_point, require_fixed_point
from .subshift import MAX_SAMPLE_SYMBOLS, CylinderFunction, _row_blocks, step_walk
from .subshift import weight_product, word_string

# samples drawn and walked per block, which bounds the uniforms held at once, and their copy
SAMPLE_BLOCK = 1 << 14
# most buckets of the base draw's guide table, 8 bytes each
MAX_GUIDE_BUCKETS = 1 << 16
# largest gap between |filter|^2 and the weight that check_isometry accepts
FILTER_TOL = 1e-12


class PathMeasure:
    """A validated fixed point plus its weight, exposing exact level marginals."""

    def __init__(self, shift, v, mu0, base_residual, overrides=None):
        self.shift = shift
        self.v = v
        self.mu0 = mu0
        self.base_residual = base_residual
        self.overrides = dict(overrides or {})
        self._marginals = {}
        self._kernels = {}

    def __repr__(self):
        return f"PathMeasure(v_depth={self.v.depth}, residual={self.base_residual:.2e})"

    @property
    def density_depth(self):
        """mu0's own depth, `measures.base_depth`, which the fixed-point gate reads too."""
        return base_depth(self.mu0)

    def marginal(self, n):
        """The level-n measure: mu0 reweighted by the n-step product of v."""
        if n < 0:
            raise ValueError("level must be >= 0")
        if n in self.overrides:
            return self.overrides[n]
        if n == 0:
            return self.mu0
        if n not in self._marginals:
            self._marginals[n] = self.mu0.reweighted(weight_product(self.v, n))
        return self._marginals[n]

    def _kernel(self, working_depth):
        if working_depth not in self._kernels:
            self._kernels[working_depth] = _WalkKernel(self, working_depth)
        return self._kernels[working_depth]


def build_path_measure(shift, v, mu0, tol=1e-10, marginal_overrides=None):
    """Validate that mu0 is fixed under the v-weighted transformer and wrap it.

    mu0 passes `measures.require_fixed_point`, the gate that the
    extremality solve shares: the defect is checked on the cylinders fine
    enough to resolve both mu0 and its transform, where a zero defect
    characterizes the fixed-point property exactly.  Raises NotFixedPoint
    when the residual exceeds tol times mu0's total mass, DegenerateH when
    mu0 has no mass and NegativeWeight when v is signed.

    `marginal_overrides` replaces selected level measures, which breaks
    the consistency identities on purpose; it exists so the checking and
    sampling code paths can be exercised against corrupted data.
    """
    residual = require_fixed_point(shift, v, mu0, tol)
    return PathMeasure(shift, v, mu0, residual, marginal_overrides)


def check_consistency(pm, n, depth):
    """Defect of mu_{n+1} pushed through the shift against mu_n.

    Sums the level-(n+1) masses over the admissible leading symbol and
    compares with the level-n masses, cylinder by cylinder at the given
    depth.  Returns the max absolute difference.
    """
    one = CylinderFunction.constant(pm.shift, 1.0)
    lhs = _window_masses(pm.shift, one, pm.marginal(n + 1), 1, depth)
    rhs = pm.marginal(n).masses_at(depth)
    return float(np.abs(lhs - rhs).max())


def check_quasi_invariance(pm, depth, n_max):
    """Worst defect of the level-reweighting description of the family.

    Two families of identities are tested on the depth-d cylinders: the
    base fixed-point identity (integral of f against mu0 equals the
    integral of (f o shift) * v), and for each n < n_max the relation
    mu_{n+1} = (v o shift^n) mu_n.  Passing both certifies that the
    trajectory-space measure is quasi-invariant with coordinate-zero
    derivative v.
    """
    shift = pm.shift
    worst = check_fixed_point(shift, pm.v, pm.marginal(0), depth)
    vn = pm.v
    for n in range(n_max):
        if n > 0:
            vn = vn.compose_with_shift()
        rhs = _window_masses(shift, vn, pm.marginal(n), 0, depth)
        lhs = pm.marginal(n + 1).masses_at(depth)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _running_sums(indptr, out):
    """Running sums along each CSR row of the float array `out`, in place, added in stored order.

    Rows go in blocks; each entry is still its row's sum up to it, added
    one entry at a time.
    """
    counts = np.diff(indptr)
    for rows in _row_blocks(len(counts)):
        starts, lengths = indptr[:-1][rows], counts[rows]
        for j in range(1, lengths.max(initial=0)):
            at = starts[lengths > j] + j
            out[at] += out[at - 1]
    return out


class _WalkKernel:
    """Finite-state sampler for the trajectory process at a fixed record depth.

    The record of a trajectory is the depth-D truncation of its current
    coordinate.  Prepending symbol a to a record u happens with the
    conditional mass ratio mu_{k+1}([a u]) / mu_k([u]).  Once D resolves
    both the weight and the base density those ratios telescope: the
    running-product factors beyond the first cancel between numerator
    and denominator, so the ratio equals mu_1([a u]) / mu_0([u]) at
    every step and the record sequence is a time-homogeneous Markov
    chain on the depth-D words.  No truncation bias remains.  A step
    moves along the CSR row of `subshift.step_walk` of mu_1, the walk
    the extremality solve builds too, to the first branch whose running
    sum of probabilities exceeds the draw.

    A base state is the first state whose running sum of mu0 exceeds the
    draw r, `np.searchsorted(cum0, r, side="right")`, found through a
    guide table: the indexed search of Chen and Asau (1974; Devroye,
    Non-Uniform Random Variate Generation, 1986, III.2.4).  The table
    cuts [0, 1) into B equal buckets, B the power of two of at least 8
    per state, clamped to [2**10, MAX_GUIDE_BUCKETS]; at 8 bytes a bucket
    it holds at most 512 KiB.  A draw in bucket b, [b/B, (b+1)/B), gets a
    state from #{cum0 <= b/B} to #{cum0 < (b+1)/B}.  When the two counts
    agree the bucket holds that state, and the draw is one gather;
    otherwise a running sum splits the bucket, which holds -1, and only
    the draws in it search cum0.  B is a power of two, so r*B and b/B are
    exact, and every guided state is the searched one bit for bit.
    """

    def __init__(self, pm, working_depth):
        self.shift, self.depth = pm.shift, working_depth
        den = pm.marginal(0).masses_at(working_depth)
        total = den.sum()
        if total <= 0:
            raise ZeroMassConditioning("base measure has no mass at the record depth")
        self.cum0 = np.cumsum(den / total)
        self.cum0[-1] = 1.0
        self.buckets = min(max(1 << (8 * len(den) - 1).bit_length(), 1 << 10), MAX_GUIDE_BUCKETS)
        edges = np.arange(self.buckets + 1) / self.buckets
        lo = self._search(edges[:-1])
        # -1 marks a bucket with a running sum strictly inside it
        self.guide = np.where(lo == np.searchsorted(self.cum0, edges[1:]), lo, -1)

        walk = step_walk(self.shift, working_depth, pm.marginal(1).masses_at(working_depth + 1))
        self.start, last = walk.indptr[:-1], walk.indptr[1:] - 1
        self.kmax = int(np.diff(walk.indptr).max())
        self.nxt = walk.indices
        # depth-1 word i is symbol i + 1; the sum is intp, so it cannot wrap
        first = (self.shift.prefix_indices(working_depth, 1) + 1).astype(self.shift.symbol_dtype)
        self.syms = first[walk.indices]
        self.cdf = _running_sums(walk.indptr, walk.data)
        # a row of no mass stays zero, so its running sum ends at zero
        self.invalid = (den <= 0) | (self.cdf[last] <= 0)
        self.has_invalid = bool(self.invalid.any())
        # the last branch of a row takes every draw that rounding in its sum pushes past it
        self.cdf[last] = np.inf

    def _search(self, r):
        return np.minimum(np.searchsorted(self.cum0, r, side="right"), len(self.cum0) - 1)

    def draw_base(self, r):
        states = self.guide.take((r * self.buckets).astype(np.intp))
        split = states < 0
        if split.any():
            states[split] = self._search(r[split])
        return states

    def step(self, states, r):
        if self.has_invalid:
            invalid = self.invalid[states]
            if invalid.any():
                word = word_string(self.shift.words_at(self.depth, states[invalid][0]))
                raise ZeroMassConditioning(f"trajectory reached the zero-mass cylinder [{word}]")
        pos = self.start.take(states)
        for _ in range(self.kmax - 1):
            pos += self.cdf.take(pos) <= r
        return self.nxt.take(pos), self.syms.take(pos)


class SampleBatch(Record):
    __slots__ = (
        "shift",
        "base_depth",
        "n_steps",
        "base_words",  # (n_samples, base_depth) symbols, of shift.symbol_dtype
        "prepends",  # (n_samples, n_steps) symbols, of shift.symbol_dtype
    )

    def __len__(self):
        return self.base_words.shape[0]

    def theta_words(self, n, depth):
        """Depth-d truncations of coordinate n, as an (n_samples, d) array."""
        if n > self.n_steps:
            raise ValueError(f"batch only records {self.n_steps} steps")
        if n + self.base_depth < depth:
            raise ValueError("records are too short for the requested depth")
        if n == 0:
            return self.base_words[:, :depth]
        recent = self.prepends[:, n - 1 :: -1][:, :depth]
        return np.hstack([recent, self.base_words[:, : depth - recent.shape[1]]])


def _usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stream_at(state, skip):
    """A generator on a copy of PCG64 `state`, past its first `skip` draws."""
    bits = np.random.PCG64()
    bits.state = state
    return np.random.Generator(bits.advance(skip))


def sample_paths(pm, n_steps, n_samples, base_depth, seed, workers=1):
    """Draw trajectories of the path process, exactly and reproducibly.

    The base record is drawn from mu0 at the working depth (the larger
    of base_depth, the weight depth and `PathMeasure.density_depth`, so
    the conditional ratios are exact), then each step prepends a symbol with
    its conditional mass ratio.  A base draw is one gather from the
    kernel's guide table, and a search of mu0's running sums only where a
    sum splits the draw's bucket; it is the searched state bit for bit
    (`_WalkKernel`, after Chen and Asau).  Row i reads uniforms
    i * (n_steps + 1) onward of the one PCG64 stream of
    `np.random.default_rng(seed)`, so the batch depends only on
    (arguments, seed).  Each of at most as many threads as usable CPUs
    and samples walks one contiguous range of rows from its own copy of
    the stream, SAMPLE_BLOCK // threads rows at a time through a buffer
    allocated here, so the scratch memory does not grow with n_samples.
    Each block's uniforms are copied once into an (n_steps + 1, rows)
    buffer allocated here too, so that the base draw and every step read
    one contiguous row of draws.  The caller walks the first range, joins
    every thread and raises the first error in row order.  A batch of
    more than MAX_SAMPLE_SYMBOLS symbols raises TableTooLarge first.
    """
    if n_steps < 0 or n_samples < 1 or base_depth < 1:
        raise ValueError("need n_steps >= 0, n_samples >= 1, base_depth >= 1")
    if n_samples * (base_depth + n_steps) > MAX_SAMPLE_SYMBOLS:
        raise TableTooLarge(f"{n_samples} samples of {base_depth + n_steps} symbols are too many")
    working = max(base_depth, pm.v.depth, pm.density_depth)
    kernel = pm._kernel(working)
    base_of = pm.shift.prefix_indices(working, base_depth)
    base_words = np.empty((n_samples, base_depth), dtype=pm.shift.symbol_dtype)
    prepends = np.empty((n_samples, n_steps), dtype=pm.shift.symbol_dtype)
    width = n_steps + 1
    state = np.random.default_rng(seed).bit_generator.state
    threads = max(min(workers, n_samples, _usable_cpus()), 1)
    edges = [t * n_samples // threads for t in range(threads + 1)]
    block = max(SAMPLE_BLOCK // threads, 1)
    # allocated here, not in the threads, whose malloc arenas would keep the memory
    rows_held = min(block, -(-n_samples // threads))
    buffers = np.empty((threads, rows_held, width))
    columns = np.empty((threads, width, rows_held))
    spans = [(edges[t], edges[t + 1], buffers[t], columns[t]) for t in range(threads)]
    errors = {}

    def walk(first, stop, buffer, column):
        rng = _stream_at(state, first * width)
        for start in range(first, stop, block):
            rows = slice(start, min(start + block, stop))
            draws = column[:, : rows.stop - start]
            draws[...] = rng.random(out=buffer[: rows.stop - start]).T
            states = kernel.draw_base(draws[0])
            base_words[rows] = pm.shift.words_at(base_depth, base_of[states])
            for j in range(n_steps):
                states, prepends[rows, j] = kernel.step(states, draws[j + 1])

    def run(span):
        try:
            walk(*span)
        except BaseException as exc:
            errors[span[0]] = exc

    started = []
    try:
        for span in spans[1:]:
            thread = threading.Thread(target=run, args=(span,))
            thread.start()
            started.append(thread)
        walk(*spans[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return SampleBatch(pm.shift, base_depth, n_steps, base_words, prepends)


class EmpiricalReport(Record):
    __slots__ = (
        "n",
        "n_samples",
        "depth",
        "max_dev",
        "sigma_bound",
        "passed",
        "worst_word",
        "batch",  # the SampleBatch drawn, left out of the repr and of ==
    )
    _hidden = ("batch",)


def empirical_check(pm, n, n_samples, depth, seed, workers=1):
    """Monte Carlo validation of the level-n marginal at one cylinder depth.

    Draws n_samples trajectories and compares the empirical frequencies
    of the coordinate-n truncations with the exact marginal, word by
    word, against a three-standard-deviation binomial band.  The report
    carries the batch.  Fewer than 100 samples raise TooFewSamples after
    the draw.
    """
    shift = pm.shift
    batch = sample_paths(pm, n, n_samples, max(depth, 1), seed, workers=workers)
    if n_samples < 100:
        raise TooFewSamples("need at least 100 samples")
    counts = np.zeros(shift.word_count(depth), dtype=np.int64)
    for start in range(0, n_samples, SAMPLE_BLOCK):
        rows = slice(start, start + SAMPLE_BLOCK)
        block = SampleBatch(batch.shift, batch.base_depth, batch.n_steps,
                            batch.base_words[rows], batch.prepends[rows])
        counts += np.bincount(shift.word_index(block.theta_words(n, depth)), minlength=len(counts))
    exact = pm.marginal(n).masses_at(depth)
    p = exact / exact.sum()
    emp = counts / n_samples
    dev = np.abs(emp - p)
    sigma3 = 3.0 * np.sqrt(p * (1.0 - p) / n_samples)
    worst = int(np.argmax(dev - sigma3))
    return EmpiricalReport(
        n=n,
        n_samples=n_samples,
        depth=depth,
        max_dev=float(dev.max()),
        sigma_bound=float(sigma3[worst]),
        passed=bool((dev <= sigma3).all()),
        worst_word=tuple(shift.words_at(depth, worst).tolist()),
        batch=batch,
    )


class MartingaleCoordinates(Record):
    __slots__ = (
        "pm",
        "level",
        "depth",
        "coordinates",  # CylinderFunction per level 0 .. level
    )

    def norms(self):
        """L2 norm of each coordinate against its own level measure."""
        out = []
        for n, g in enumerate(self.coordinates):
            masses = self.pm.marginal(n).masses_at(self.depth)
            out.append(float(np.sqrt(np.sum(g.abs_squared().values * masses))))
        return np.asarray(out)


def martingale_coordinates(pm, xi, level):
    """Conditional expectations of a top-level observable at every level.

    Coordinate n is the conditional expectation of xi evaluated at the
    level-`level` coordinate, given the level-n record; on a depth-d
    word w it is the mass-weighted average of xi over all admissible
    prepend strings of length level - n.  Zero-mass records get the
    value 0.  All coordinates are produced at one working depth, fine
    enough to make the conditional averages exact.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    shift = pm.shift
    dw = max(xi.depth, pm.v.depth, pm.density_depth, 1)
    coords = [None] * (level + 1)
    coords[level] = xi.promote(dw)
    mu_top = pm.marginal(level)
    for n in range(level - 1, -1, -1):
        num = _window_masses(shift, xi, mu_top, level - n, dw)
        den = pm.marginal(n).masses_at(dw)
        vals = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        coords[n] = CylinderFunction(shift, dw, vals)
    return MartingaleCoordinates(pm, level, dw, coords)


def project_once(pm, g, n):
    """One-step conditional averaging from level n+1 down to level n.

    Used to state the tower property: projecting the level-(n+1)
    coordinate one step must reproduce the level-n coordinate exactly.
    """
    num = _window_masses(pm.shift, g, pm.marginal(n + 1), 1, g.depth)
    den = pm.marginal(n).masses_at(g.depth)
    vals = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return CylinderFunction(pm.shift, g.depth, vals)


def check_isometry(pm, filt, depth):
    """Defect of the filter-weighted composition operator being isometric.

    Requires |filt|^2 to reproduce the weight pointwise within
    FILTER_TOL (FilterMismatch otherwise), then verifies, for every
    depth-d cylinder indicator, that the squared norm of the
    composed-and-filtered function equals the squared norm of the
    original.  Both sides reduce to cylinder sums against mu0, which is
    the fixed-point check with weight |filt|^2; the max absolute
    difference is returned.
    """
    m2 = filt.abs_squared()
    e = max(m2.depth, pm.v.depth)
    gap = float(np.abs(m2.promote(e).values - pm.v.promote(e).values).max())
    if not gap <= FILTER_TOL:  # a NaN gap fails too
        raise FilterMismatch(
            f"squared filter modulus differs from the weight by {gap:.3e}"
        )
    return check_fixed_point(pm.shift, m2, pm.marginal(0), depth)
