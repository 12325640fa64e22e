"""The weighted transfer operator and its fixed objects.

Applying the operator with weight v averages v-weighted values over the
inverse branches of the shift:

    (averaged v*f)(x) = (1/#branches(x1)) * sum over symbols a with
                        matrix[a, x1] == 1 of v(a x) f(a x).

On cylinder tables this is exact: if v has depth m and f depth d, the
result depends on the first max(m - 1, d - 1, 1) coordinates.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import (
    DepthTooShallow,
    MonotonicityViolation,
    NoConvergence,
    NotSubNormalized,
)
from .invariant import _stationary_vector, closed_classes
from .subshift import CylinderFunction, branch_sum, weight_product

DEGENERATE_SUP = 1e-9


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
    counts = shift.column_sums[shift.symbols_array(depth)[:, 0] - 1]
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
    ve, suf, counts = _operator_pieces(shift, v, out_depth)
    out = branch_sum(suf, ve * f.promote(out_depth + 1).values, len(counts))
    return CylinderFunction(shift, out_depth, out / counts)


@dataclass(frozen=True)
class TransferMatrix:
    """Matrix of the transfer operator on depth-d tables.

    matrix[i, j] is the value of the transferred j-th indicator on the
    i-th depth-d word, so matrix @ f.values computes the operator.
    """

    shift: object
    v: CylinderFunction
    depth: int
    matrix: np.ndarray


def _operator_matrix(shift, v, depth):
    """The operator on depth-`depth` tables as a sparse matrix.

    Word u one level deeper gives the entry v(u)/c at (index of u[1:],
    index of u[:depth]); no two words share an entry.  Zero-weight
    branches stay as stored zeros, which `closed_classes` ignores.
    """
    ve, suf, counts = _operator_pieces(shift, v, depth)
    n = len(counts)
    pre = shift.prefix_indices(depth + 1, depth)
    return csr_matrix((ve * (1.0 / counts)[suf], (suf, pre)), shape=(n, n))


def transfer_matrix(shift, v, depth):
    """Assemble the operator as a dense matrix acting on depth-`depth` tables.

    Requires depth >= max(depth(v) - 1, 1) so that depth-d tables map
    into depth-d tables.
    """
    return TransferMatrix(shift, v, depth, _operator_matrix(shift, v, depth).toarray())


@dataclass(frozen=True)
class FixedFunctionResult:
    h: CylinderFunction
    n_used: int
    status: str  # "converged" or "degenerate"
    residual: float


def iterate_fixed_function(shift, v, tol=1e-13, max_iter=10000):
    """Monotone iteration of the transfer operator started at the constant 1.

    Requires the averaged weight (the operator applied to the constant
    1) to stay below 1 + tol everywhere; under that sub-normalization
    the iterates decrease pointwise and their limit h is itself fixed by
    the operator.  Iteration stops when consecutive iterates agree
    within tol.  The status is "degenerate" when the limit is
    identically zero (sup below 1e-9), which happens exactly when the
    averaged weight loses mass.

    Raises
    ------
    NotSubNormalized
        If the averaged weight exceeds 1 + tol somewhere.
    MonotonicityViolation
        If an iterate increases somewhere by more than 1e-12.
    NoConvergence
        If max_iter steps do not reach the tolerance.
    """
    one = CylinderFunction.constant(shift, 1.0, depth=1)
    first = apply_transfer(shift, v, one)
    sup1 = first.max()
    if sup1 > 1.0 + tol:
        raise NotSubNormalized(f"sup of transferred constant is {sup1:.6g} > 1")
    depth = max(v.depth - 1, 1)
    h = one.promote(depth)
    for n in range(1, max_iter + 1):
        nxt = apply_transfer(shift, v, h)
        rise = float((nxt.values - h.values).max())
        if rise > 1e-12:
            raise MonotonicityViolation(
                f"iterate increased by {rise:.3e} at step {n}"
            )
        delta = float(np.abs(nxt.values - h.values).max())
        h = nxt
        if delta <= tol:
            residual = float(
                np.abs(apply_transfer(shift, v, h).values - h.values).max()
            )
            status = "degenerate" if h.sup_norm() < DEGENERATE_SUP else "converged"
            return FixedFunctionResult(h, n, status, residual)
    raise NoConvergence(max_iter)


def left_fixed_functional(shift, v, depth=None):
    """Dual fixed vector of the transfer operator, as cylinder masses.

    Requires a sub-normalized weight (averaged weight at most 1), so the
    depth-d operator matrix is sub-stochastic and its fixed vectors live
    on the closed classes of its graph whose rows sum to 1 (within
    1e-10).  Returns the stationary masses of the first such class, by
    lowest word index, or None when every closed class loses mass.
    """
    if depth is None:
        depth = max(v.depth - 1, 1)
    op = _operator_matrix(shift, v, depth)
    row_sums = np.asarray(op.sum(axis=1)).ravel()
    from .measures import RawMeasure

    for members in closed_classes(op):
        if np.abs(row_sums[members] - 1.0).max() <= 1e-10:
            masses = np.zeros(len(row_sums))
            masses[members] = _stationary_vector(op[members][:, members].T.toarray())
            return RawMeasure(shift, depth, masses)
    return None


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


def product_weight(v, w):
    """Pointwise product of two nonnegative weights at their common depth."""
    v.require_nonnegative()
    w.require_nonnegative()
    return v * w
