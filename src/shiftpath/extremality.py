"""Extremality certificates and the ergodic decomposition of fixed points.

A fixed point mu0 of the v-weighted transformer is extremal among fixed
points exactly when the only bounded functions f with

    (conditional average of v * (f at the prepended word) given w) = f(w)

mu0-almost surely are the constants.  That is a property of mu0, and it
is decided once, at the conditioning depth m = max(depth(v) - 1,
depth(mu0) - 1, 1), the depth that resolves v and the base density.
There it is a finite homogeneous linear system, and only the words mu0
charges enter it: a word of no base mass is mu0-null, so f is free there
and counts for nothing.  Each extra dimension of its solution space
gives a genuine decomposition of mu0 into distinct fixed points.  At a
depth D >= m a step's weight still depends on the depth-(m + 1) prefix
alone, so the depth-D walk is the (D - m)-block lift of the depth-m walk
(Lind and Marcus, Symbolic Dynamics and Coding, sect. 2.3): its closed
classes and harmonic functions are lifts of those at m, and the
certificate at m holds at every finite depth >= m.

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
no QR or SVD runs.

The decomposition is exact and complete: with
lam_c = (integral of a_c d(mu0)) / mu0(1) and mu_c = (a_c / lam_c) mu0,

    mu0 = sum_c lam_c mu_c,

each mu_c a fixed point whose own walk has the one closed class c.  Base
masses are read as given: every positive mass is a step of the walk and
part of the support, however small, so scaling a base changes neither
the components nor their weights, nor the fixed-point gate
(`measures.require_fixed_point`, the sampler's), whose tol is relative
to the base's total mass and which refuses a base of no mass, so there
is always a component.
"""

import numpy as np

from .invariant import Record, absorption, closed_classes
from .measures import require_fixed_point
from .subshift import CylinderFunction, step_walk


class ErgodicityReport(Record):
    """The components of a fixed point's invariant functions, from the charged walk at depth m.

    basis holds one column per component, its absorption probability read
    on the words of the conditioning depth m and 0 on null words; the
    columns are not orthonormalised, and none of them needs a QR or an SVD.
    """

    __slots__ = (
        "depth",  # the conditioning depth m
        "solution_dim",  # the number of components, at least 1
        "basis",  # (word_count(m), solution_dim): each component's absorption column, 0 off mu0
        "extremal_certificate",
        "class_sizes",  # word count of each closed class of the charged walk, by lowest word
        "base_residual",
    )


def relative_ergodicity_dimension(shift, mu0, v, tol=1e-10):
    """Components of the invariant functions of a fixed point, and their number.

    Solves, for unknown values f on the words of the conditioning depth
    m = max(depth(v) - 1, depth(mu0) - 1, 1), the homogeneous system

        sum_a v(aw) mu0([aw]) * (f((aw) truncated) - f(w)) = 0

    with one equation per charged depth-m word w; a word is charged when
    some one-symbol extension has positive base mass.  Each equation says
    that f is harmonic for the walk on the charged words that steps from
    w to the depth-m prefix of aw with weight v(aw) mu0([aw]).  Its
    solutions are the combinations of the absorption probabilities into
    the walk's closed classes; a charged word with no positive branch,
    which only a base that is not exactly fixed can have, is a closed
    class of its own.  Uncharged words are mu0-null and leave the walk,
    whatever row the fixed-point gate lets through for them.  The answer
    holds at every finite depth >= m, whose walks are lifts of this one.

    solution_dim counts the components; basis holds each component's
    absorption column at depth m, 0 on null words, and the columns are
    nonnegative and sum to 1 on the rest.  The certificate field is True
    when there is one component.  class_sizes lists the word count of
    each closed class.  mu0 first passes `measures.require_fixed_point`,
    the gate of `build_path_measure`; base_residual is the gate's
    residual; it refuses a signed weight and a base of no mass.
    """
    residual = require_fixed_point(shift, v, mu0, tol)
    dw = max(v.depth - 1, mu0.depth - 1, 1)
    walk = step_walk(shift, dw, mu0.masses_at(dw + 1) * v.promote(dw + 1).values)
    # the masses are read again, after the walk is built, and the charged words found by a
    # mask, not np.unique: every other order or way tried raised the command's peak RSS
    charged = np.zeros(shift.word_count(dw), dtype=bool)
    charged[shift.prefix_indices(dw + 1, dw)[mu0.masses_at(dw + 1) > 0]] = True
    if not charged.all():  # a copy of the walk on every word would only cost memory
        walk = walk.restricted(np.flatnonzero(charged))
    classes = closed_classes(walk)
    basis = np.zeros((shift.word_count(dw), len(classes)))
    basis[charged] = absorption(walk, classes, np.eye(len(classes)))
    dim = basis.shape[1]
    return ErgodicityReport(
        depth=dw,
        solution_dim=dim,
        basis=basis,
        extremal_certificate=(dim == 1),
        class_sizes=[len(members) for members in classes],
        base_residual=residual,
    )


class Decomposition(Record):
    __slots__ = ("weights", "densities", "components", "report")


def decompose(shift, mu0, v, tol=1e-10):
    """The components of a non-extremal fixed point and their weights.

    Solves for the invariant functions at the conditioning depth; see decompose_report.
    """
    report = relative_ergodicity_dimension(shift, mu0, v, tol=tol)
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
