"""Extremality certificates and constructive decompositions of fixed points.

A fixed point mu0 of the v-weighted transformer is extremal among fixed
points exactly when the only bounded functions f with

    (conditional average of v * (f at the prepended word) given w) = f(w)

mu0-almost surely are the constants.  At a fixed cylinder depth this is
a finite homogeneous linear system; its solution space always contains
the constants, and extra dimensions produce genuine decompositions
mu0 = lam * mu1 + (1 - lam) * mu2 into distinct fixed points.  The
converse is depth-limited: a one-dimensional solution space at depth d
rules out depth-d witnesses only, so the certificate is reported
per depth rather than as an absolute verdict.

The system says that f is harmonic for a walk on words that prepends a
symbol with weight v * mu0.  On a finite chain the harmonic functions
are spanned by the absorption probabilities into the closed classes of
the walk, the strongly connected classes that no positive-weight step
leaves (`invariant.closed_classes`).  So the solve is one walk in CSR
form (`subshift.step_walk`, the walk the trajectory sampler steps
along), one LU solve for the transient words (`invariant.absorption`),
and a dense step with one column per closed class, whose null space
below the conditioning depth comes from numpy's QR and SVD.  Inside
`invariant` the walk's closed classes come from one numpy colour
search at every size, and its transient block is solved dense, with
numpy, up to 1024 words (`invariant.DENSE_STATES`), and sparse, with
scipy, above.  No dense matrix of all words by all words is formed.
Base masses are read as given: every positive mass is a step of the walk
and part of the support, however small, so scaling a base changes
neither the solution space, its split, nor the fixed-point gate
(`measures.require_fixed_point`, the sampler's), whose tol is relative
to the base's total mass.  ESSENTIAL_FLOOR gates only the split score,
never a mass.
"""

import numpy as np

from .invariant import Record, absorption, closed_classes
from .measures import require_fixed_point
from .subshift import CylinderFunction, step_walk

NULL_SPACE_RTOL = 1e-10
ESSENTIAL_FLOOR = 1e-12


class ErgodicityReport(Record):
    __slots__ = (
        "depth",
        "solution_dim",
        "basis",  # (word_count(depth), solution_dim), orthonormal columns
        "extremal_certificate",
        "class_sizes",  # word count of each closed class of the walk, by lowest word
        "base_residual",
    )


def _null_space(matrix):
    """Null-space basis of a matrix of probability differences, from numpy's QR and SVD.

    The SVD runs on the R factor, at most (columns x columns), whose
    right singular vectors are the matrix's.  The rank counts the
    singular values above NULL_SPACE_RTOL times the largest one, or
    times 1 when all are smaller: the entries are differences of
    probabilities, so a matrix of rounding residue has rank 0 and its
    null space is the identity.  The basis is the trailing rows of V^T.
    """
    _, s, vt = np.linalg.svd(np.linalg.qr(matrix, mode="r"))
    rank = int((s > NULL_SPACE_RTOL * max(s.max(initial=0.0), 1.0)).sum())
    return vt[rank:].T if rank else np.eye(matrix.shape[1])


def relative_ergodicity_dimension(shift, mu0, v, depth, tol=1e-10):
    """Dimension of the depth-d invariant-function space of a fixed point.

    Solves, for unknown values f on the depth-d words, the homogeneous
    system

        sum_a v(aw) mu0([aw]) * (f((aw) truncated) - f(w truncated)) = 0

    with one equation per word w of the conditioning depth dw, the
    depth fine enough to resolve v and the base density.  Each equation
    says that f, read at depth dw, is harmonic for the walk that steps
    from w to the depth-dw prefix of aw with weight v(aw) mu0([aw]).  On
    a finite chain the harmonic functions are exactly the combinations
    of the absorption probabilities into the walk's closed classes; a
    word with no positive branch is a closed class of its own, so its
    value is free.  Every positive base mass is a branch.  Below
    depth dw the combinations must also be constant on every depth-d
    fibre, and depth-d words with no depth-dw extension stay free.

    The constants always solve the system, so solution_dim >= 1; the
    certificate field is True when nothing else does.  class_sizes
    lists the word count of each closed class.  mu0 first passes
    `measures.require_fixed_point`, the gate of `build_path_measure`, at
    any depth; base_residual is the gate's residual.
    """
    v.require_nonnegative()
    residual = require_fixed_point(shift, v, mu0, tol)
    dw = max(v.depth - 1, depth, mu0.depth - 1, 1)
    # a word with no positive branch keeps a zero row, a closed class of its own
    walk = step_walk(shift, dw, mu0.masses_at(dw + 1) * v.promote(dw + 1).values)
    classes = closed_classes(walk)
    absorbed = absorption(walk, classes, np.eye(len(classes)))

    # combinations of the absorption probabilities constant on every fibre
    extended, first, fibre = np.unique(
        shift.prefix_indices(dw, depth), return_index=True, return_inverse=True
    )
    harmonic = absorbed[first]
    if depth < dw:  # at depth dw every fibre is one word
        harmonic = harmonic @ _null_space(absorbed - absorbed[first[fibre]])

    n_unknowns = shift.word_count(depth)
    free = np.ones(n_unknowns, dtype=bool)
    free[extended] = False
    free = np.flatnonzero(free)
    k = harmonic.shape[1]
    basis = np.zeros((n_unknowns, k + len(free)))
    basis[extended, :k] = harmonic
    basis[free, k + np.arange(len(free))] = 1.0
    basis, _ = np.linalg.qr(basis)
    dim = basis.shape[1]
    return ErgodicityReport(
        depth=depth,
        solution_dim=dim,
        basis=basis,
        extremal_certificate=(dim == 1),
        class_sizes=[len(members) for members in classes],
        base_residual=residual,
    )


class Decomposition(Record):
    __slots__ = ("lam", "f1", "f2", "mu1", "mu2", "report")


def decompose(shift, mu0, v, depth, tol=1e-10):
    """Split a non-extremal fixed point into two distinct fixed components.

    Solves for the depth-d invariant-function space; see decompose_report.
    """
    report = relative_ergodicity_dimension(shift, mu0, v, depth, tol=tol)
    return decompose_report(shift, mu0, report)


def decompose_report(shift, mu0, report):
    """Decomposition of mu0 along an already solved invariant-function space.

    Picks, from the invariant-function space at the report's depth, the
    first direction whose deviation from its mu0-mean on the support of
    mu0, the words of positive mass, is largest to within ESSENTIAL_FLOOR
    (rounding in an orthonormal column), so ties pick alike at any scale.
    Directions invisible to mu0 separate nothing: with no deviation above
    the floor, one dimension or no mass, it returns None.  The chosen b
    gives f1 = (b - min b) / integral, f2 = (1 - lam f1) / (1 - lam) with
    lam = 1 / (2 sup f1), and the components mu_i = f_i d(mu0) satisfy

        mu0 = lam mu1 + (1 - lam) mu2

    exactly, with both components again fixed under the transformer.
    """
    if report.solution_dim <= 1:
        return None
    depth = report.depth

    masses = mu0.masses_at(depth)
    support = masses > 0
    if not support.any():
        return None
    total = masses.sum()
    best = None
    best_score = 0.0
    for j in range(report.basis.shape[1]):
        b = report.basis[:, j]
        centered = b - np.sum(b * masses) / total
        score = np.abs(centered[support]).max()
        if score > best_score + ESSENTIAL_FLOOR:
            best_score = score
            best = centered
    if best_score <= ESSENTIAL_FLOOR:
        return None

    first = int(np.argmax(support))
    if best[first] < 0:
        best = -best

    g = best - best.min()
    g_mean = np.sum(g * masses) / total
    f1_vals = g / g_mean
    f1 = CylinderFunction(shift, depth, f1_vals)
    lam = 1.0 / (2.0 * f1_vals.max())
    f2 = (CylinderFunction.constant(shift, 1.0, depth) - lam * f1) * (
        1.0 / (1.0 - lam)
    )
    mu1, mu2 = mu0.reweighted(f1), mu0.reweighted(f2)
    return Decomposition(lam=lam, f1=f1, f2=f2, mu1=mu1, mu2=mu2, report=report)
