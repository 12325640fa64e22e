"""Extremality certificates and the ergodic decomposition of fixed points.

A fixed point mu0 of the v-weighted transformer is extremal among fixed
points exactly when the only bounded functions f with

    (conditional average of v * (f at the prepended word) given w) = f(w)

mu0-almost surely are the constants.  At a fixed cylinder depth this is
a finite homogeneous linear system, and only the words mu0 charges
enter it: a word of no base mass is mu0-null, so f is free there and
counts for nothing.  Each extra dimension of its solution space gives a
genuine decomposition of mu0 into distinct fixed points.  The converse
is depth-limited: a one-dimensional solution space at depth d rules out
depth-d witnesses only, so the certificate is reported per depth rather
than as an absolute verdict.

The system says that f is harmonic for a walk on the charged words that
prepends a symbol with weight v * mu0.  A charged word steps only to
charged words, since a step's weight v(aw) mu0([aw]) is part of its
target's mass.  On a finite chain the harmonic functions are spanned by
the absorption probabilities a_c into the closed classes c of the walk,
the strongly connected classes that no positive-weight step leaves
(`invariant.closed_classes`; Kemeny and Snell, Finite Markov Chains,
ch. III).  So the solve is one walk in CSR form (`subshift.step_walk`,
the walk the trajectory sampler steps along), restricted to the charged
words, and one LU solve for its transient words (`invariant.absorption`).
Inside `invariant` the walk's closed classes come from one numpy colour
search at every size, and its transient block is solved dense, with
numpy, up to 1024 words (`invariant.DENSE_STATES`), and sparse, with
scipy, above.  No dense matrix of all words by all words is formed, and
at the conditioning depth no QR or SVD runs.

At the conditioning depth the decomposition is exact and complete: with
lam_c = (integral of a_c d(mu0)) / mu0(1) and mu_c = (a_c / lam_c) mu0,

    mu0 = sum_c lam_c mu_c,

each mu_c a fixed point whose own walk has the one closed class c.
Below it, a solution must also be constant on every depth-d fibre, the
charged words of one depth-d prefix.  The class weights g that make
sum_c g_c a_c so are the null space of the fibre differences, one
column per class, from numpy's QR and SVD; its dimension is the
solution dimension, and the components are nonnegative combinations
that sum to 1 and span it (`_fibre_components`).  Where classes fall
into groups that fibres tie together, each spanning one dimension, the
components are the groups' summed columns.  Base masses are read as given:
every positive mass is a step of the walk and part of the support,
however small, so scaling a base changes neither the components nor
their weights, nor the fixed-point gate (`measures.require_fixed_point`,
the sampler's), whose tol is relative to the base's total mass and
which refuses a base of no mass, so there is always a component.
"""

import numpy as np

from .invariant import Record, absorption, closed_classes
from .measures import require_fixed_point
from .subshift import CylinderFunction, step_walk

NULL_SPACE_RTOL = 1e-10
# a row within this share of the largest residual norm ties with it, and the lowest class wins
PIVOT_TIE = 1e-8


class ErgodicityReport(Record):
    """The components of a fixed point's depth-d invariant functions, from the charged walk.

    basis holds one column per component, its absorption probability read
    at depth d and 0 on null words; the columns are not orthonormalised.
    At the conditioning depth none of them needs a QR or an SVD.
    """

    __slots__ = (
        "depth",
        "solution_dim",  # the number of components, at least 1
        "basis",  # (word_count(depth), solution_dim): each component's absorption column, 0 off mu0
        "extremal_certificate",
        "class_sizes",  # word count of each closed class of the charged walk, by lowest word
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


def _fibre_components(absorbed, first):
    """Nonnegative combinations of absorption columns, constant on every fibre, that span them all.

    absorbed holds one row per charged word, in ascending order, and the
    fibre of the charged words first[i]:first[i + 1] is the i-th.  The
    class weights g whose combination absorbed @ g is constant on every
    fibre are the null space N of the fibre differences, k columns wide
    for k classes; its dimension m is the solution dimension.  From N
    come m pivot classes, each the row of largest residual norm after
    the rows already picked, and the Lagrange columns N inv(N[pivots]),
    1 at one pivot and 0 at the others.  They sum to the constant 1, and
    where each group of classes that fibres tie together spans one
    dimension, they are the groups' summed columns.  Where some entry is
    negative, every column is mixed with the constant 1/m just enough
    that none is.  Returns the combinations, one row per fibre.
    """
    null = _null_space(absorbed - absorbed[np.repeat(first, np.diff(np.r_[first, len(absorbed)]))])
    rest, pivots = null.copy(), []
    for _ in range(null.shape[1]):
        norms = np.linalg.norm(rest, axis=1)
        p = int(np.argmax(norms >= (1 - PIVOT_TIE) * norms.max()))
        pivots.append(p)
        rest -= np.outer(rest @ rest[p], rest[p]) / norms[p] ** 2  # the residuals off row p
    pivots.sort()
    lagrange = np.linalg.solve(null[pivots].T, null.T).T
    low = lagrange.min(initial=0.0)
    if low < 0:
        share = 1 / lagrange.shape[1]
        mix = -low / (share - low)
        lagrange = np.maximum((1 - mix) * lagrange + mix * share, 0.0)
    return absorbed[first] @ lagrange


def relative_ergodicity_dimension(shift, mu0, v, depth, tol=1e-10):
    """Components of the depth-d invariant functions of a fixed point, and their number.

    Solves, for unknown values f on the depth-d words, the homogeneous
    system

        sum_a v(aw) mu0([aw]) * (f((aw) truncated) - f(w truncated)) = 0

    with one equation per charged word w of the conditioning depth dw,
    the depth fine enough to resolve v and the base density; a word is
    charged when some one-symbol extension has positive base mass.  Each
    equation says that f, read at depth dw, is harmonic for the walk on
    the charged words that steps from w to the depth-dw prefix of aw with
    weight v(aw) mu0([aw]).  Its solutions are the combinations of the
    absorption probabilities into the walk's closed classes; a charged
    word with no positive branch, which only a base that is not exactly
    fixed can have, is a closed class of its own.  Uncharged words are
    mu0-null and leave the walk, whatever row the fixed-point gate lets
    through for them.  Below depth dw the combinations must also be
    constant on every depth-d fibre, and a depth-d word with no charged
    extension is null.

    solution_dim counts the components; basis holds each component's
    column read at depth d, 0 on null words: an absorption column, or
    below depth dw a combination of them, and the columns are
    nonnegative and sum to 1 on the rest.  The certificate field is True when there is
    one component.  class_sizes lists the word count of each closed
    class.  mu0 first passes `measures.require_fixed_point`, the gate of
    `build_path_measure`, at any depth; base_residual is the gate's
    residual; it refuses a signed weight and a base of no mass.
    """
    residual = require_fixed_point(shift, v, mu0, tol)
    dw = max(v.depth - 1, depth, mu0.depth - 1, 1)
    walk = step_walk(shift, dw, mu0.masses_at(dw + 1) * v.promote(dw + 1).values)
    # the masses are read again, after the walk is built, and the charged words found by a
    # mask, not np.unique: every other order or way tried raised the command's peak RSS
    charged = np.zeros(shift.word_count(dw), dtype=bool)
    charged[shift.prefix_indices(dw + 1, dw)[mu0.masses_at(dw + 1) > 0]] = True
    if not charged.all():  # a copy of the walk on every word would only cost memory
        walk = walk.restricted(np.flatnonzero(charged))
    classes = closed_classes(walk)
    absorbed = absorption(walk, classes, np.eye(len(classes)))
    extended = charged  # at depth dw every fibre is one word
    if depth < dw:
        extended, first = np.unique(shift.prefix_indices(dw, depth)[charged], return_index=True)
        absorbed = _fibre_components(absorbed, first)
    basis = np.zeros((shift.word_count(depth), absorbed.shape[1]))
    basis[extended] = absorbed
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
    __slots__ = ("weights", "densities", "components", "report")


def decompose(shift, mu0, v, depth, tol=1e-10):
    """The components of a non-extremal fixed point and their weights.

    Solves for the depth-d invariant functions; see decompose_report.
    """
    report = relative_ergodicity_dimension(shift, mu0, v, depth, tol=tol)
    return decompose_report(shift, mu0, report)


def decompose_report(shift, mu0, report):
    """Decomposition of mu0 along an already solved invariant-function space.

    Each basis column a_c, a component's absorption column at the
    report's depth, gives the weight lam_c = (integral of a_c d(mu0)) /
    mu0(1), the density f_c = a_c / lam_c and the component
    mu_c = f_c d(mu0), a fixed point of the same total mass as mu0; then

        mu0 = sum_c lam_c mu_c

    to rounding, and the weights sum to 1.  With one component there is
    nothing to split, and it returns None.
    """
    if report.solution_dim == 1:
        return None
    masses = mu0.masses_at(report.depth)
    weights = np.array([np.sum(column * masses) for column in report.basis.T]) / masses.sum()
    densities = [CylinderFunction(shift, report.depth, column / lam)
                 for column, lam in zip(report.basis.T, weights)]
    return Decomposition(weights=weights, densities=densities,
                         components=[mu0.reweighted(f) for f in densities], report=report)
