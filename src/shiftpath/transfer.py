"""The weighted transfer operator and its fixed objects.

Applying the operator with weight v averages v-weighted values over the
inverse branches of the shift:

    (averaged v*f)(x) = (1/#branches(x1)) * sum over symbols a with
                        matrix[a, x1] == 1 of v(a x) f(a x).

On cylinder tables this is exact: if v has depth m and f depth d, the
result depends on the first max(m - 1, d - 1, 1) coordinates.
"""

import numpy as np

from .errors import DepthTooShallow, NotSubNormalized
from .invariant import NORMALIZED_SLACK, Record, _stationary_vector, absorption, closed_classes
from .subshift import CylinderFunction, prepend_walk, weight_product


def _operator_pieces(shift, v, depth):
    """Weights, suffix map and branch counts of the operator on depth-`depth` tables.

    Over the words u one level deeper: v(u) and the index of u[1:].  Per
    depth-`depth` word: its branch count, which divides the branch sum.
    """
    if depth < max(v.depth - 1, 1):
        raise DepthTooShallow(
            f"depth {depth} cannot carry the operator of a depth-{v.depth} weight"
        )
    v.require_nonnegative()
    counts = shift.column_sums[shift.prefix_indices(depth, 1)]
    return v.promote(depth + 1).values, shift.suffix_indices(depth + 1), counts


def apply_transfer(shift, v, f):
    """Apply the v-weighted transfer operator to a cylinder function.

    Parameters
    ----------
    shift : Subshift
    v : CylinderFunction
        Nonnegative weight.
    f : CylinderFunction

    Returns
    -------
    CylinderFunction at depth max(depth(v) - 1, depth(f) - 1, 1).
    """
    out_depth = max(v.depth - 1, f.depth - 1, 1)
    ve, _, counts = _operator_pieces(shift, v, out_depth)
    out = shift.window_sums(ve * f.promote(out_depth + 1).values, out_depth + 1, 1, out_depth)
    return CylinderFunction(shift, out_depth, out / counts)


def _operator_matrix(shift, v, depth):
    """The operator on depth-`depth` tables: the prepend walk with steps v(aw)/c(w).

    An `invariant.Chain`; c(w) is the branch count of w.  Zero-weight
    branches stay as stored zeros, which `closed_classes` ignores.
    """
    ve, suf, counts = _operator_pieces(shift, v, depth)
    return prepend_walk(shift, depth, ve * (1.0 / counts)[suf])


def transfer_matrix(shift, v, depth):
    """The operator as a dense array acting on depth-`depth` tables.

    Entry [i, j] is the value of the transferred j-th indicator on the
    i-th depth-d word, so transfer_matrix(shift, v, d) @ f.values
    computes the operator.  Requires depth >= max(depth(v) - 1, 1) so
    that depth-d tables map into depth-d tables.
    """
    return _operator_matrix(shift, v, depth).toarray()


class FixedFunctionResult(Record):
    __slots__ = (
        "h",  # CylinderFunction
        "n_used",
        "status",  # "converged" or "degenerate"
        "residual",
    )


def _kept_classes(op):
    """Closed classes whose rows sum to 1 within NORMALIZED_SLACK, by lowest word.

    Raises NotSubNormalized if any row sums to more than 1 + NORMALIZED_SLACK or to NaN.
    """
    row_sums = op @ np.ones(op.shape[0])
    excess = float(np.max(row_sums - 1.0))  # np.max keeps a NaN
    if not excess <= NORMALIZED_SLACK:
        raise NotSubNormalized(f"sup of transferred constant exceeds 1 by {excess:.3e}")
    return [m for m in closed_classes(op) if row_sums[m].min() >= 1.0 - NORMALIZED_SLACK]


def _fixed_objects(shift, v, depth, function=True, functional=True):
    """h's result and nu at one depth, from one operator and one search for its kept classes.

    Either is skipped, and None, when not asked for; see
    `iterate_fixed_function` and `left_fixed_functional`.
    """
    op = _operator_matrix(shift, v, depth)
    kept = _kept_classes(op)
    result = nu = None
    if function:
        h = absorption(op, kept, np.ones((len(kept), 1)))[:, 0]
        residual = float(np.abs(op @ h - h).max())
        status = "converged" if kept else "degenerate"
        result = FixedFunctionResult(CylinderFunction(shift, depth, h), 1, status, residual)
    if functional and kept:
        from .measures import RawMeasure

        masses = np.zeros(op.shape[0])
        masses[kept[0]] = _stationary_vector(op, kept[0])
        nu = RawMeasure(shift, depth, masses)
    return result, nu


def iterate_fixed_function(shift, v):
    """The fixed function h = lim T^n 1 of a sub-normalized transfer operator T.

    The iterates T^n 1 decrease pointwise when T1 <= 1.  Their limit,
    the probability that the chain of the operator matrix never loses
    its mass, is the absorption value of that chain
    (`invariant.absorption`): 1 on the closed classes whose rows sum to
    1 (`_kept_classes`), exactly 0 on the words with no path into one,
    and in between iterated from below and from above until the two
    bounds meet, or solved by one LU when they cannot meet within the
    iteration budget.  The status is "degenerate" when no closed class
    keeps its mass, so h is zero.  n_used is 1, the step T1 that the
    checks take.

    Raises
    ------
    NotSubNormalized
        If the averaged weight exceeds 1 + NORMALIZED_SLACK somewhere.
    """
    return _fixed_objects(shift, v, max(v.depth - 1, 1), functional=False)[0]


def left_fixed_functional(shift, v, depth=None):
    """Dual fixed vector of the transfer operator, as cylinder masses.

    Requires a sub-normalized weight (averaged weight at most 1), so the
    depth-d operator matrix is sub-stochastic and its fixed vectors live
    on the closed classes of its graph whose rows sum to 1
    (`_kept_classes`).  Returns the stationary masses of the first such
    class, by lowest word index, or None when every closed class loses
    mass.  They are iterated on the class's lazy chain, and solved by
    one LU only when the iteration's contraction rate says that its
    budget will not do (`invariant._stationary_vector`).
    """
    if depth is None:
        depth = max(v.depth - 1, 1)
    return _fixed_objects(shift, v, depth, function=False)[1]


def check_weight_pushforward(shift, v, f, rho, n):
    """Defect of the n-step pushforward identity against a reference measure.

    Compares the integral of (running weight product) * f with the
    integral of the n-fold transferred f, both against rho.  For a
    strongly invariant rho the two agree exactly.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lhs = rho.integrate(weight_product(v, n) * f)
    g = f
    for _ in range(n):
        g = apply_transfer(shift, v, g)
    rhs = rho.integrate(g)
    return abs(lhs - rhs)
