"""Measures on the symbol space and the weighted pushforward transformer.

Two representations are used.  A RawMeasure is a finite table of
cylinder masses at one depth; it can be coarsened but not refined.  A
DensityMeasure is a nonnegative cylinder function times a Markov
product-rule measure; it resolves every depth exactly, which is what
makes the transformer, the marginal computations and the samplers
exact.

The transformer with weight v pushes a measure through the inverse of
the shift after reweighting: the transformed mass of [w] is the sum,
over admissible leading symbols a, of the integral of v over [a w]
against the input measure.  For a density f against a strongly
invariant reference measure this collapses to preimage-averaging the
density: transforming (f drho) gives (averaged v*f) drho.
"""

import numpy as np

from .errors import DegenerateH, DepthTooShallow, NotFixedPoint
from .invariant import strongly_invariant_measure
from .subshift import weight_product
from .transfer import _operator_pieces, apply_transfer, iterate_fixed_function


class RawMeasure:
    """A measure known only through its masses on the cylinders of one depth."""

    def __init__(self, shift, depth, masses):
        masses = np.asarray(masses, dtype=np.float64)
        if masses.shape != (shift.word_count(depth),):
            raise ValueError(
                f"expected {shift.word_count(depth)} masses for depth {depth}"
            )
        if not masses.min() >= -1e-15:
            raise ValueError("masses must be nonnegative")
        masses = np.clip(masses, 0.0, None)
        masses.setflags(write=False)
        self.shift = shift
        self.depth = depth
        self.masses = masses

    def __repr__(self):
        return f"RawMeasure(depth={self.depth}, total={self.total_mass():.6g})"

    def total_mass(self):
        return float(self.masses.sum())

    def masses_at(self, depth):
        if depth > self.depth:
            raise DepthTooShallow(
                f"measure stored at depth {self.depth} cannot resolve depth {depth}"
            )
        return self.shift.window_sums(self.masses, self.depth, 0, depth)

    def mass(self, word):
        word = tuple(word)
        self.shift.require_admissible(word)
        if len(word) > self.depth:
            raise DepthTooShallow(
                f"mass of [{''.join(map(str, word))}] needs depth {len(word)}, "
                f"have {self.depth}"
            )
        return float(self.masses_at(len(word))[self.shift.word_index(word)])

    def integrate(self, f):
        if f.depth > self.depth:
            raise DepthTooShallow(
                f"cannot integrate a depth-{f.depth} function at depth {self.depth}"
            )
        vals = f.promote(self.depth).values
        out = np.sum(vals * self.masses)
        return complex(out) if np.iscomplexobj(vals) else float(out)

    def reweighted(self, f):
        """The measure f d(self), at the stored depth."""
        if f.depth > self.depth:
            raise DepthTooShallow(f"depth {self.depth} cannot carry a depth-{f.depth} weight")
        return RawMeasure(self.shift, self.depth, f.promote(self.depth).values * self.masses)


class DensityMeasure:
    """A nonnegative cylinder density against a Markov product-rule measure."""

    def __init__(self, density, rho):
        density.require_nonnegative("density")
        if density.shift is not rho.shift:
            raise ValueError("density and reference measure live on different subshifts")
        self.shift = rho.shift
        self.density = density
        self.rho = rho

    def __repr__(self):
        return (
            f"DensityMeasure(density_depth={self.density.depth}, "
            f"total={self.total_mass():.6g})"
        )

    @property
    def depth(self):
        return self.density.depth

    def total_mass(self):
        return float(self.rho.integrate(self.density))

    def masses_at(self, depth):
        return _window_masses(self.shift, self.density, self.rho, 0, depth)

    def mass(self, word):
        word = tuple(word)
        f = self.density
        if len(word) >= f.depth:
            return float(f.value(word) * self.rho.mass(word))
        index = self.shift.word_index(word)  # before masses_at, which refuses depth 0
        return float(self.masses_at(len(word))[index])

    def integrate(self, g):
        e = max(g.depth, self.density.depth)
        return self.rho.integrate(g.promote(e) * self.density.promote(e))

    def reweighted(self, f):
        """The measure f d(self), a density against the same reference."""
        return DensityMeasure(f * self.density, self.rho)


def _window_masses(shift, f, mu, start, width):
    """Masses of f dmu on the windows w[start:start + width], computed exactly.

    Each word u of depth e = max(depth(f), start + width) contributes
    f(u) mu([u]) to its window.  With start 1 and f the weight v these
    are the masses of the transformed measure at depth `width`.
    """
    e = max(f.depth, start + width)
    # one expression, so that the factors are freed before the sum runs;
    # masses_at raises DepthTooShallow for raw measures that are too coarse
    return shift.window_sums(f.promote(e).values * mu.masses_at(e), e, start, width)


def transform_measure(shift, v, mu, out_depth=None):
    """Apply the weighted pushforward transformer to a measure.

    Density route: when mu is a DensityMeasure over a strongly invariant
    reference measure, returns the preimage-averaged density against the
    same reference, exact at every depth.  Raw route: a RawMeasure at
    out_depth (default: one less than the stored depth), which requires
    mu to resolve depth max(out_depth + 1, depth(v)).
    """
    v.require_nonnegative()
    if isinstance(mu, DensityMeasure) and out_depth is None:
        if mu.rho.strongly_invariant:
            return DensityMeasure(apply_transfer(shift, v, mu.density), mu.rho)
        raise ValueError(
            "density route needs a strongly invariant reference measure; "
            "pass out_depth to force the raw computation"
        )
    if out_depth is None:
        if not isinstance(mu, RawMeasure):
            raise ValueError("out_depth is required for this measure type")
        if mu.depth < max(v.depth, 2):
            raise DepthTooShallow(
                f"raw transform needs depth >= {max(v.depth, 2)}, have {mu.depth}"
            )
        out_depth = mu.depth - 1
    if out_depth < 1:
        raise ValueError("out_depth must be >= 1")
    return RawMeasure(shift, out_depth, _window_masses(shift, v, mu, 1, out_depth))


def check_fixed_point(shift, v, mu0, depth):
    """Worst defect of mu0 being fixed by the transformer, at one depth.

    Tests the pullback form of the fixed-point property: for every
    depth-d indicator f, the integral of f equals the integral of
    (f o shift) * v.  Returns the max absolute difference.
    """
    v.require_nonnegative()
    lhs = mu0.masses_at(depth)
    rhs = _window_masses(shift, v, mu0, 1, depth)
    return float(np.abs(lhs - rhs).max())


def base_depth(mu0):
    """mu0's own depth: its density's, or one less than a raw table's."""
    return mu0.density.depth if isinstance(mu0, DensityMeasure) else max(mu0.depth - 1, 1)


def require_fixed_point(shift, v, mu0, tol):
    """The gate of every object built on mu0: its fixed-point residual, or an error.

    Checks at max(base_depth(mu0), depth(v) - 1), where a zero residual is
    the identity at every depth, against tol times mu0's total mass.  A
    signed weight raises NegativeWeight, a base of no mass DegenerateH, and
    a residual over the bound NotFixedPoint; so does a NaN residual, which
    a base of NaN mass has.
    """
    residual = check_fixed_point(shift, v, mu0, max(base_depth(mu0), v.depth - 1))
    total = mu0.total_mass()
    if total == 0:
        raise DegenerateH("the base measure has no mass")
    if not residual <= tol * total:  # a NaN residual fails too
        raise NotFixedPoint(residual, tol * total)
    return residual


def masses_along_orbit(shift, v, mu0, n_max):
    """Total masses of the transformed iterates, n = 1 .. n_max; constant for a fixed point.

    A density f drho over a strongly invariant rho takes n transfer steps at depth
    max(depth(v) - 1, depth(f) - 1, 1), by the weight-pushforward identity; any other
    base integrates the n-step weight product, of depth depth(v) + n - 1, against mu0.
    A signed weight raises NegativeWeight on either route.
    """
    v.require_nonnegative()
    out, w, mu = [], v, mu0
    for n in range(1, n_max + 1):
        if isinstance(mu0, DensityMeasure) and mu0.rho.strongly_invariant:
            mu = transform_measure(shift, v, mu)
            out.append(mu.total_mass())
            continue
        if n > 1:
            # two steps, so that the shallower product is freed before v multiplies in
            w = w.compose_with_shift()
            w = v * w
        out.append(mu0.integrate(w))
    return np.asarray(out)


def weight_pushforward_defect(shift, v, rho, depth, n_max):
    """Max of check_weight_pushforward over depth-d indicators and n = 1..n_max.

    The transpose of the operator on depth-D tables, D = max(depth,
    depth(v) - 1, 1), moves rho's masses once for all indicators; each
    step, summed to depth d, is compared with rho reweighted by the
    n-step weight product.  Agrees with the per-indicator max up to rounding.
    """
    big = max(depth, v.depth - 1, 1)
    ve, suf, counts = _operator_pieces(shift, v, big)
    dual, worst = rho.masses_at(big), 0.0
    for n in range(1, n_max + 1):
        dual = shift.window_sums(ve * (dual / counts)[suf], big + 1, 0, big)
        rhs = shift.window_sums(dual, big, 0, depth)
        lhs = _window_masses(shift, weight_product(v, n), rho, 0, depth)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def fixed_density_measure(shift, v, rho=None):
    """The canonical fixed measure h drho built from the fixed function h.

    Solves for h = lim T^n 1 (`iterate_fixed_function`).  h is already
    normalized against the dual fixed vector nu (`left_fixed_functional`):
    it is exactly 1 on every closed class that keeps its mass, and nu is
    a probability on the first of those classes, so nu(h) = 1 and no
    division is needed.  Raises DegenerateH when h vanishes.
    """
    if rho is None:
        rho = strongly_invariant_measure(shift)
    res = iterate_fixed_function(shift, v)
    if res.status == "degenerate":
        raise DegenerateH("no closed class of the operator keeps its mass, so h is zero")
    return DensityMeasure(res.h, rho)
