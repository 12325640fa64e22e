"""Markov cylinder measures and the preimage-averaging invariance property.

The distinguished reference measure on a subshift gives every cylinder
the mass

    mass([w1 ... wd]) = q[wd] * prod_{i<d} kernel[wi, w(i+1)]

with kernel[i, j] = matrix[i, j] / column_sum[j] and q a fixed vector of
that kernel.  Front extension then costs exactly one kernel factor,
mass([a w]) = kernel[a, w1] * mass([w]), which is the cylinder form of
averaging a function over the inverse branches of the shift.  The same
product rule with a different column-stochastic kernel realises the
natural measures attached to normalized weights; see
`markov_measure_for_weight`.
"""

import warnings

import numpy as np
from scipy.sparse import csgraph, csr_matrix


class NonUniqueFixedVector(UserWarning):
    pass


class MarkovMeasure:
    """Cylinder measure defined by a product rule along transitions.

    Parameters
    ----------
    shift : Subshift
    q : array_like
        Nonnegative depth-1 masses, summing to 1.
    kernel : array_like, optional
        Column-stochastic matrix supported on the transitions of the
        shift.  Defaults to matrix[i, j] / column_sum[j], which makes the
        measure strongly invariant under preimage averaging.
    non_unique : bool
        Set when the defining fixed vector was not unique.
    """

    def __init__(self, shift, q, kernel=None, non_unique=False):
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (shift.k,):
            raise ValueError(f"q must have one entry per symbol, got {q.shape}")
        if q.min() < -1e-12:
            raise ValueError("q must be nonnegative")
        q = np.clip(q, 0.0, None)
        if abs(q.sum() - 1.0) > 1e-9:
            raise ValueError("q must sum to 1")
        default_kernel = shift.matrix / shift.column_sums
        if kernel is None:
            kernel = default_kernel
        else:
            kernel = np.asarray(kernel, dtype=np.float64)
            if kernel.shape != (shift.k, shift.k):
                raise ValueError("kernel shape mismatch")
            if ((kernel > 0) & (shift.matrix == 0)).any():
                raise ValueError("kernel puts weight on a forbidden transition")
        self.shift = shift
        self.q = q
        self.q.setflags(write=False)
        self.kernel = kernel
        self.kernel.setflags(write=False)
        self.non_unique = bool(non_unique)
        self.strongly_invariant = bool(np.allclose(kernel, default_kernel, atol=1e-14))
        self._mass_cache = {}

    def __repr__(self):
        return f"MarkovMeasure(q={self.q.tolist()}, non_unique={self.non_unique})"

    def total_mass(self):
        return float(self.q.sum())

    def masses_at(self, depth):
        """Vector of cylinder masses over shift.words(depth)."""
        if depth not in self._mass_cache:
            sym = self.shift.symbols_array(depth)
            out = self.q[sym[:, -1] - 1].copy()
            for t in range(depth - 1):
                out *= self.kernel[sym[:, t] - 1, sym[:, t + 1] - 1]
            out.setflags(write=False)
            self._mass_cache[depth] = out
        return self._mass_cache[depth]

    def mass(self, word):
        word = tuple(word)
        self.shift.require_admissible(word)
        p = self.q[word[-1] - 1]
        for i in range(len(word) - 1):
            p *= self.kernel[word[i] - 1, word[i + 1] - 1]
        return float(p)

    def integrate(self, f):
        """Exact integral of a cylinder function."""
        vals = f.values
        masses = self.masses_at(f.depth)
        return complex(vals @ masses) if np.iscomplexobj(vals) else float(vals @ masses)


def cylinder_mass(rho, word):
    return rho.mass(word)


def _stationary_vector(kernel):
    """Solve q = kernel q, sum q = 1, by a direct least-squares solve."""
    k = kernel.shape[0]
    block = np.vstack([kernel - np.eye(k), np.ones((1, k))])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    q, *_ = np.linalg.lstsq(block, rhs, rcond=None)
    q = np.clip(q, 0.0, None)
    s = q.sum()
    if s <= 0:
        raise ValueError("stationary solve produced a zero vector")
    return q / s


def closed_classes(graph):
    """Strongly connected classes of a digraph that no edge leaves.

    graph[i, j] != 0 is an edge from state i to state j; a dense array
    or a sparse matrix, whose stored zeros count as no edge.  Returns
    one index array per closed class, ordered by its lowest state.  For
    a finite chain the fixed vectors at eigenvalue 1 are exactly the
    mixtures of the stationary vectors of these classes.
    """
    graph = csr_matrix(graph != 0)
    n_comp, labels = csgraph.connected_components(graph, directed=True, connection="strong")
    rows, cols = graph.nonzero()
    leaving = np.bincount(labels[rows], weights=labels[rows] != labels[cols], minlength=n_comp)
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    # component labels follow no order; each class's first state fixes its place
    _, first = np.unique(labels, return_index=True)
    return [members[c] for c in labels[np.sort(first)] if not leaving[c]]


def strongly_invariant_measure(shift):
    """The Markov measure fixed under averaging over inverse branches.

    Solves q = M q for the column-stochastic kernel M[i, j] =
    matrix[i, j] / column_sum[j], which moves mass from j to i.  With one
    closed class the fixed vector is unique and the result is the
    canonical reference measure of the subshift.  With several
    (reducible matrices) q is the uniform mixture of the per-class
    stationary vectors, `non_unique` is set, and a warning is emitted.

    Returns
    -------
    MarkovMeasure
    """
    kernel = shift.matrix / shift.column_sums
    classes = closed_classes(kernel.T)
    if len(classes) == 1:
        q = _stationary_vector(kernel)
        return MarkovMeasure(shift, q, non_unique=False)
    parts = np.zeros((len(classes), shift.k))
    for part, members in zip(parts, classes):
        part[members] = _stationary_vector(kernel[np.ix_(members, members)])
    q = np.mean(parts, axis=0)
    warnings.warn(
        f"fixed vector is not unique ({len(classes)} closed classes); "
        "returning the uniform mixture over the closed classes",
        NonUniqueFixedVector,
    )
    return MarkovMeasure(shift, q, non_unique=True)


def markov_measure_for_weight(shift, w):
    """Natural Markov measure for a normalized weight of depth <= 2.

    If w has depth at most 2 and averaging it over inverse branches
    yields the constant 1, then p[a, j] = w(a, j) / column_sum[j] is
    column-stochastic on the allowed transitions and the product-rule
    measure with kernel p is fixed under the w-weighted transfer
    operator.  Raises ValueError when the normalization fails.
    """
    if w.depth > 2:
        raise ValueError("normalized-weight construction needs depth(w) <= 2")
    w.require_nonnegative()
    w2 = w.promote(2)
    a, j = shift.symbols_array(2).T - 1
    p = np.zeros((shift.k, shift.k))
    p[a, j] = w2.values / shift.column_sums[j]
    col = p.sum(axis=0)
    if not np.allclose(col, 1.0, atol=1e-12):
        raise ValueError(
            f"weight is not normalized: branch averages {col.tolist()} differ from 1"
        )
    q = _stationary_vector(p)
    return MarkovMeasure(shift, q, kernel=p)


def verify_strong_invariance(rho, depth):
    """Worst-case defect of the preimage-averaging identity up to one depth.

    For every cylinder indicator f of depth at most d the identity
    requires

        integral of f  ==  integral of (1/#branches) * sum of f over branches.

    Expanding the right side against the product rule of a Markov
    measure leaves one averaging-kernel factor per front extension at
    depths >= 2, and the fixed-vector equation at depth 1.  Both parts
    carry content (a wrong symbol vector only shows up at depth 1), so
    the defect returned is the max over every depth from 1 to d.
    """
    shift = rho.shift
    avg_kernel = shift.matrix / shift.column_sums
    worst = float(np.abs(rho.masses_at(1) - avg_kernel @ rho.masses_at(1)).max())
    for d in range(2, depth + 1):
        masses = rho.masses_at(d)
        sym = shift.symbols_array(d)
        suffix_mass = rho.masses_at(d - 1)[shift.suffix_indices(d)]
        rhs = avg_kernel[sym[:, 0] - 1, sym[:, 1] - 1] * suffix_mass
        worst = max(worst, float(np.abs(masses - rhs).max()))
    return worst
