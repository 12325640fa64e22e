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
`markov_measure_for_weight`.  The finite-chain solver behind every fixed
object of the package lives here too: `closed_classes`, `absorption`,
the reachability mask `_reaching` (one breadth-first search back along
the steps) and the stationary vector of a closed class, each one body
at every size.  The closed classes come from one numpy colour search
(`_components`); only a search past SEARCH_ROUNDS rounds, as on a long
path or cycle, falls back to scipy's strong components.  Every fixed
vector is iterated by one kernel, `_iterate`, x <- A x + c with A a
`Chain` (Stewart, Introduction to the Numerical Solution of Markov
Chains, 1994, ch. 3): `absorption` runs two monotone bounds of its
transient values until they meet, and the stationary vector runs the
lazy chain (I + P)/2, whose fixed vector is P's and which settles on a
periodic class too.  Each product is a `Chain` product, a bincount in
stored order, so no fixed vector calls BLAS or LAPACK and every one has
the same bits at any BLAS thread count.  An iteration stops on an
error estimate of its iterate, never on the bare change of one step;
when its contraction rate says that ITERATION_BUDGET steps will not
reach ITERATION_TOL, as across a weak join or along a slow leak, it
gives up early and the same fixed vector is one LU solve of I - Q, or
of its transpose, for Q a chain on the states that are not yet fixed:
`_lu_solve`, scipy's sparse LU at every size, whose bits do not depend
on the BLAS thread count either.  Only the two fallbacks, the LU and
the strong components, import scipy, and no module calls numpy's
`linalg`.  SOLVE_COUNTS counts the solves by the path that ran.
`Record`, the immutable field record of the package's result types,
lives here too, since every command loads this module.
"""

import math
from collections import Counter

import numpy as np

# steps an iterated fixed vector may take before the LU solves it instead
ITERATION_BUDGET = 1000

# the error, relative to each entry, at which an iterated fixed vector is taken
ITERATION_TOL = 1e-14

# steps over which an iteration reads its contraction rate
RATE_WINDOW = 8

# a relative change of one step this small is rounding: it no longer shows the rate
ROUNDING = 4 * np.finfo(np.float64).eps

# the stationary iteration starts from 1 + frac(i * GOLDEN) on state i: no two in a simple ratio
GOLDEN = (5**0.5 - 1) / 2

# fixed-vector solves by the path that ran: "iterated" (and their "steps") or "lu"
SOLVE_COUNTS = Counter()

# rounds the colour search for closed classes may take before scipy's strong components run
SEARCH_ROUNDS = 64

# how far a branch average may stray from 1 and still count as normalized
NORMALIZED_SLACK = 1e-12


class Record:
    """An immutable record of the fields named in `__slots__`, in that order.

    Built from one positional or keyword argument per field; setting or
    deleting a field raises AttributeError.  Two records of one type are
    equal, and hash alike, when their fields are equal; the fields named
    in `_hidden` neither compare nor appear in the repr.  Copies and
    pickles keep every field.  A plain class, so that no code is
    generated when a module defining one is imported.
    """

    __slots__ = ()
    _hidden = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__} got an unknown or repeated field {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{type(self).__name__} is missing the fields {missing}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copies and pickles are rebuilt through __init__, since no field can be set
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def _compared(self):
        return tuple(getattr(self, name) for name in self.__slots__ if name not in self._hidden)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        shown = [f"{name}={getattr(self, name)!r}"
                 for name in self.__slots__ if name not in self._hidden]
        return f"{type(self).__name__}({', '.join(shown)})"


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
        if not q.min() >= -1e-12:
            raise ValueError("q must be nonnegative")
        q = np.clip(q, 0.0, None)
        if not abs(q.sum() - 1.0) <= 1e-9:
            raise ValueError("q must sum to 1")
        default_kernel = shift.matrix / shift.column_sums
        if kernel is None:
            kernel = default_kernel
        else:
            # a copy: the frozen kernel must not be the caller's array
            kernel = np.array(kernel, dtype=np.float64)
            if kernel.shape != (shift.k, shift.k):
                raise ValueError("kernel shape mismatch")
            if ((kernel > 0) & (shift.matrix == 0)).any():
                raise ValueError("kernel puts weight on a forbidden transition")
            if not (np.abs(kernel.sum(axis=0) - 1.0) <= NORMALIZED_SLACK).all():
                raise ValueError("kernel columns must sum to 1")
        self.shift = shift
        self.q = q
        self.q.setflags(write=False)
        self.kernel = kernel
        self.kernel.setflags(write=False)
        self.non_unique = bool(non_unique)
        self.strongly_invariant = bool(np.abs(kernel - default_kernel).max() <= 1e-14)
        self._mass_cache = {}

    def __repr__(self):
        return f"MarkovMeasure(q={self.q.tolist()}, non_unique={self.non_unique})"

    def total_mass(self):
        return float(self.q.sum())

    def masses_at(self, depth):
        """Masses over shift.words(depth): the product rule, walked from the root down.

        One walk fills the cache at every depth up to `depth`.  It carries
        each word's product of kernel factors down one level at a time, in
        row blocks, first factor first, and applies q last; only the
        current level's product is kept.
        """
        if depth not in self._mass_cache:
            from .subshift import _levels, _row_blocks  # subshift imports this module

            # padded for symbol 0, the root's, whose step into every first symbol has factor 1
            q, kernel = np.r_[0.0, self.q], np.pad(self.kernel, ((1, 0), (1, 0)), constant_values=1.0)
            product, above = np.ones(1), np.zeros(1, dtype=np.intp)
            for d, (parent, last) in enumerate(_levels(self.shift, depth), 1):
                longer = np.empty(len(last))
                for rows in _row_blocks(len(last)):
                    up = parent[rows]
                    np.multiply(product[up], kernel[above[up], last[rows]], out=longer[rows])
                product, above = longer, last
                if d not in self._mass_cache:
                    mass = q[last]
                    mass *= product
                    mass.setflags(write=False)
                    self._mass_cache[d] = mass
        return self._mass_cache[depth]

    def mass(self, word):
        word = tuple(word)
        self.shift.require_admissible(word)
        p = 1.0
        for a, b in zip(word, word[1:]):
            p *= self.kernel[a - 1, b - 1]
        return float(p * self.q[word[-1] - 1])

    def integrate(self, f):
        """Exact integral of a cylinder function."""
        vals = f.values
        out = np.sum(vals * self.masses_at(f.depth))  # not a BLAS dot: thread-count free
        return complex(out) if np.iscomplexobj(vals) else float(out)


class _Derived(Record):
    """A `Record` with one slot more, not a field, that keeps a value derived from the fields."""

    __slots__ = ("_derived",)


class Chain(_Derived):
    """The steps of a finite chain in CSR form, held in numpy arrays.

    Row i steps to the states indices[indptr[i]:indptr[i + 1]] with the
    weights data[indptr[i]:indptr[i + 1]]; zero weights may be stored.
    """

    __slots__ = ("indptr", "indices", "data")

    @property
    def shape(self):
        n = len(self.indptr) - 1
        return n, n

    def rows(self):
        """The row of each stored step, read-only; built on the first call and kept."""
        try:
            return self._derived
        except AttributeError:
            rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
            rows.setflags(write=False)
            object.__setattr__(self, "_derived", rows)
            return rows

    def __matmul__(self, x):
        """The chain applied to a vector, each row summed in stored order."""
        return np.bincount(self.rows(), self.data * x[self.indices], minlength=self.shape[0])

    def toarray(self):
        out = np.zeros(self.shape)
        out[self.rows(), self.indices] = self.data
        return out

    def restricted(self, states):
        """The chain on the ascending `states` alone; steps leaving them are dropped."""
        index = np.full(self.shape[0], -1)
        index[states] = np.arange(len(states))
        rows, cols = index[self.rows()], index[self.indices]
        keep = (rows >= 0) & (cols >= 0)
        indptr = np.r_[0, np.cumsum(np.bincount(rows[keep], minlength=len(states)))]
        return Chain(indptr, cols[keep], self.data[keep])


def _from_steps(n, rows, cols, data):
    """The `Chain` on n states with a step of weight data[e] from rows[e] to cols[e].

    A stable sort by row keeps each row's steps in the order given.
    """
    order = np.argsort(rows, kind="stable")
    return Chain(np.r_[0, np.cumsum(np.bincount(rows, minlength=n))], cols[order], data[order])


def _as_chain(graph):
    """A dense array or a `Chain`, as a `Chain`; a dense zero is no step."""
    if isinstance(graph, Chain):
        return graph
    graph = np.asarray(graph)
    rows, cols = np.nonzero(graph)
    return _from_steps(len(graph), rows, cols, graph[rows, cols])


def _components(chain):
    """Each state's label, and whether a step leaves each label's states.

    The states of each closed class share one label, not flagged leaving;
    a label flagged leaving holds no closed class.  A colour search finds
    them: colour(v), the largest state v reaches, is raised to the largest
    colour among v's steps until nothing changes.  From each root r, where
    colour(r) = r, the states r reaches along steps inside its colour all
    reach r; they are a closed class when none of them steps to another
    colour, and every closed class's largest state is such a root.  Each
    closed class is labelled by its root, every other state by n.  When
    the two loops take more than SEARCH_ROUNDS rounds together, as on a
    long path or cycle, scipy's strong components give the labels.
    """
    n = chain.shape[0]
    nonzero = chain.data != 0
    rows, cols = chain.rows()[nonzero], chain.indices[nonzero]
    # the first step of each row that has steps; the steps are in row order
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    busy = rows[first]
    colour = np.arange(n)
    rounds = iter(range(SEARCH_ROUNDS))
    for _ in rounds:
        raised = np.maximum.reduceat(colour[cols], first)
        up = raised > colour[busy]
        if not up.any():
            break
        colour[busy[up]] = raised[up]
    root = colour == np.arange(n)
    inside = colour[rows] == colour[cols]
    reached = root.copy()
    for _ in rounds:  # none are left if the colours did not settle
        new = reached[rows] & inside & ~reached[cols]
        if not new.any():
            leaks = np.zeros(n, dtype=bool)
            leaks[colour[rows[reached[rows] & ~inside]]] = True
            return np.where(reached & ~leaks[colour], colour, n), np.r_[leaks | ~root, True]
        reached[cols[new]] = True
    from scipy.sparse import csgraph, csr_matrix

    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
    graph = csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n, n))
    n_comp, labels = csgraph.connected_components(graph, directed=True, connection="strong")
    leaving = np.bincount(labels[rows], weights=labels[rows] != labels[cols], minlength=n_comp) > 0
    return labels, leaving


def _lu_solve(q, rhs, trans="N"):
    """Solve (I - Q) x = rhs for the `Chain` Q, or (I - Q)^T x = rhs when trans is "T".

    One scipy sparse LU of I - Q at its default ordering, at every size;
    a duplicate step adds to its entry and a stored zero is dropped.
    The transpose is solved with the same factors.
    """
    SOLVE_COUNTS["lu"] += 1
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    n = q.shape[0]
    diagonal = np.arange(n)
    entries = np.r_[np.ones(n), -q.data], (np.r_[diagonal, q.rows()], np.r_[diagonal, q.indices])
    system = csc_matrix(entries, shape=(n, n))
    system.eliminate_zeros()
    return splu(system).solve(rhs, trans=trans)


def _iterate(step, source, x, spread, bracket):
    """x <- step @ x + source until an error estimate reaches ITERATION_TOL: (x, steps), or None.

    spread(old, new) sizes one step, relative to the iterate entry by
    entry.  In a `bracket` it is the width between two bounds of the
    fixed vector, itself a bound on the error, or inf while the bounds
    are not yet comparable.  Otherwise it is the change of the step,
    and the error estimate is change * rate / (1 - rate), the rest of a
    geometric series, and a change of exactly 0 is a fixed point.  The
    rate is read over the last RATE_WINDOW steps, from a window that
    starts above ROUNDING: below it a change is rounding, which shows
    no rate, and the last rate read stands.  Once the estimate is
    within the tolerance, up to RATE_WINDOW more steps, which cost
    little, settle the last bits, unless a size of 0 comes first.  None
    when ITERATION_BUDGET steps run out, or as soon as a rate read over
    a whole window says that they will: a rate of 1 or more, or more
    steps still needed at that rate than are left.
    """
    sizes, rate, settled = [], None, None
    for steps in range(1, ITERATION_BUDGET + 1):
        new = step @ x + source
        sizes.append(spread(x, new))
        x, size = new, sizes[-1]
        back = sizes[max(0, steps - 1 - RATE_WINDOW)]
        if steps > 1 and size > 0 and ROUNDING < back < math.inf:
            rate = (size / back) ** (1.0 / min(steps - 1, RATE_WINDOW))
        shows = rate is not None and size > ROUNDING
        if bracket or size == 0:
            error = size
        else:
            error = size * rate / (1.0 - rate) if rate is not None and rate < 1.0 else math.inf
        if settled is None and error <= ITERATION_TOL:
            settled = steps
        if settled is not None:
            if size == 0 or steps - settled == RATE_WINDOW:
                SOLVE_COUNTS["iterated"] += 1
                SOLVE_COUNTS["steps"] += steps
                return x, steps
        elif shows and steps > RATE_WINDOW:
            needed = math.log(ITERATION_TOL / error) / math.log(rate) if rate < 1.0 else math.inf
            if steps + needed > ITERATION_BUDGET:
                return None
    return None


def _relative_change(old, new):
    """The largest change of one step, relative to the entry it ends at."""
    change = new - old
    np.abs(change, out=change)
    change /= new
    return float(change.max())


def _stationary_vector(chain, states):
    """Solve q = q P, sum q = 1, for a chain P on `states`, a closed class of one chain.

    Iterated on the lazy chain (I + P)/2, whose fixed vector is the
    same and which settles on a periodic class too: q <- q (I + P)/2,
    each product one `Chain` product of the reversed steps.  Each
    entry's relative change does not grow from one step to the next,
    and the iteration stops on its error estimate (`_iterate`).  When
    the contraction rate says that the budget will not do, as across two
    blocks joined by weak steps, the renewal form solves it (Kemeny and
    Snell 1960, ch. III): the class's first state j is pinned to
    q_j = 1, and the rest solve (I - Q)^T x = P(j, rest), with Q the
    class without j, the transpose of an M-matrix system of the form of
    `absorption`'s, by the same sparse LU of I - Q (`_lu_solve`); (1, x)
    is scaled to sum 1.

    The iteration starts from 1 + frac(i * GOLDEN) on state i, scaled:
    no two of its entries stand in a simple ratio, so it is almost never
    a fixed vector, or one up to rounding alone, as the uniform vector
    is for many chains, whose first change would then show no rate.
    """
    p = _as_chain(chain).restricted(states)
    k = p.shape[0]
    rows, cols = p.rows(), p.indices
    diagonal = np.arange(k)
    lazy = _from_steps(k, np.r_[cols, diagonal], np.r_[rows, diagonal],
                       np.r_[p.data, np.ones(k)] / 2)
    start = 1.0 + np.arange(k) * GOLDEN % 1.0
    iterated = _iterate(lazy, 0.0, start / start.sum(), _relative_change, bracket=False)
    if iterated is not None:
        q = iterated[0]
    else:
        # state 0 is j: its steps into the rest are the right-hand side
        from_j = rows == 0
        entering = np.bincount(cols[from_j], p.data[from_j], minlength=k)[1:]
        q = np.clip(np.r_[1.0, _lu_solve(p.restricted(np.arange(1, k)), entering, "T")], 0.0, None)
    return q / q.sum()


def closed_classes(graph):
    """Strongly connected classes of a digraph that no edge leaves.

    graph[i, j] != 0 is an edge from state i to state j; a dense array
    or a `Chain`, whose stored zeros count as no edge.
    Returns one index array per closed class, ordered by its lowest
    state.  For a finite chain the fixed vectors at eigenvalue 1 are
    exactly the mixtures of the stationary vectors of these classes.
    """
    chain = _as_chain(graph)
    labels, leaving = _components(chain)
    states = np.flatnonzero(~leaving[labels])
    # a stable sort by label keeps each class ascending
    grouped = states[np.argsort(labels[states], kind="stable")]
    starts = np.flatnonzero(np.diff(labels[grouped], prepend=-1))
    classes = np.split(grouped, starts[1:])
    # labels follow no order; each class's lowest state fixes its place
    return [classes[c] for c in np.argsort(grouped[starts])]


def _reaching(graph, targets):
    """Mask of the states from which a path of nonzero entries of graph enters targets.

    A breadth-first search back along the steps, sorted by head once, so
    each round reads only the steps into its level, deduped by a sort.
    """
    chain = _as_chain(graph)
    nonzero = chain.data != 0
    heads = chain.indices[nonzero]
    tails = chain.rows()[nonzero][np.argsort(heads, kind="stable")]
    # the steps into state j are tails[start[j]:start[j + 1]]
    start = np.r_[0, np.cumsum(np.bincount(heads, minlength=chain.shape[0]))]
    reach = np.array(targets, dtype=bool)
    level = np.flatnonzero(reach)
    while len(level):
        counts = start[level + 1] - start[level]
        ends = np.cumsum(counts)
        found = tails[np.arange(ends[-1]) + np.repeat(start[level + 1] - ends, counts)]
        found = np.sort(found[~reach[found]])
        level = found[np.diff(found, prepend=-1) != 0]
        reach[level] = True
    return reach


def _columns(chain, m):
    """The chain acting on m columns at once: state i of column c is state i * m + c."""
    rows, cols = chain.rows()[:, None] * m, chain.indices[:, None] * m
    column = np.arange(m)
    data = np.broadcast_to(chain.data[:, None], (len(cols), m))
    return _from_steps(chain.shape[0] * m, (rows + column).ravel(), (cols + column).ravel(),
                       data.ravel())


def absorption(chain, classes, values):
    """Expected value held on entering a closed class of a sub-stochastic chain.

    chain[i, j] is the probability of a step from i to j; what a row
    lacks of 1 is lost, and a lost walk holds 0.  The states of the
    closed class classes[c] hold values[c].  Elsewhere X = chain X:
    exactly 0 with no path into a class of nonzero values (graph
    reachability), else the fixed point of X_T <- P_TT X_T + P_TC X_C on
    the transient states T that reach one.  For nonnegative values it
    is iterated between two monotone bounds (`_iterate`): from below
    from 0, the value held within n steps, and from above from each
    column's largest value M, that plus M times the chance w of not
    being absorbed or lost within n steps, w <- P_TT w from 1.  The two
    ends run as one product on the columns and w, and they stop when
    they meet within ITERATION_TOL of the lower one on every entry it
    has made positive, once those entries stop growing in number: the
    others are exactly 0.  The midpoint is returned.  Signed values, or
    bounds the budget cannot close, as on a slowly leaking state, take
    one sparse LU (`_lu_solve`) of (I - P_TT) X_T = P_TC X_C.
    """
    chain = _as_chain(chain)
    out = np.zeros((chain.shape[0], values.shape[1]))
    closed = np.zeros(chain.shape[0], dtype=bool)
    for members, row in zip(classes, values):
        out[members] = row
        closed[members] = True
    live = np.flatnonzero(_reaching(chain, out.any(axis=1)) & ~closed)
    if not len(live):
        return out
    # out is 0 off the closed states, so chain @ out is P_TC X_C on the live rows
    entering = np.column_stack([chain @ column for column in out.T])[live]
    block = chain.restricted(live)
    if values.min() >= 0:
        m, top = values.shape[1], values.max(axis=0)
        source = np.c_[entering, np.zeros(len(live))].ravel()
        start = np.c_[np.zeros(entering.shape), np.ones(len(live))].ravel()
        shown, settled = None, False  # the lower bound's positive entries at the step before

        def width(_, new):
            nonlocal shown, settled
            held = new.reshape(-1, m + 1)
            if not settled:  # once two steps agree, no entry turns positive any more
                positive = held[:, :m] > 0
                settled = shown is not None and (positive == shown).all()
                shown = positive
                if not settled:
                    return math.inf
            gap = held[:, m:] * top
            np.divide(gap, held[:, :m], out=gap, where=shown)
            return float(gap.max(initial=0.0, where=shown))

        iterated = _iterate(_columns(block, m + 1), source, start, width, bracket=True)
        if iterated is not None:
            held = iterated[0].reshape(-1, m + 1)
            out[live] = np.where(held[:, :m] > 0, held[:, :m] + held[:, m:] * (top / 2), 0.0)
            return out
    out[live] = _lu_solve(block, entering)
    return out


def _fixed_vector(kernel):
    """Uniform mixture of the stationary vectors of its closed classes, and their count."""
    classes = closed_classes(kernel.T)
    q = np.zeros(kernel.shape[0])
    for members in classes:
        q[members] += _stationary_vector(kernel.T, members) / len(classes)
    return q, len(classes)


def strongly_invariant_measure(shift):
    """The Markov measure fixed under averaging over inverse branches.

    Solves q = M q for the column-stochastic kernel M[i, j] =
    matrix[i, j] / column_sum[j], which moves mass from j to i.  With one
    closed class the fixed vector is unique and the result is the
    canonical reference measure of the subshift.  With several
    (reducible matrices) q is the uniform mixture of the per-class
    stationary vectors and `non_unique` is set.

    Returns
    -------
    MarkovMeasure
    """
    q, n_classes = _fixed_vector(shift.matrix / shift.column_sums)
    return MarkovMeasure(shift, q, non_unique=n_classes > 1)


def markov_measure_for_weight(shift, w):
    """Natural Markov measure for a normalized weight of depth <= 2.

    If w has depth at most 2 and averaging it over inverse branches
    yields the constant 1, then p[a, j] = w(a, j) / column_sum[j] is
    column-stochastic on the allowed transitions and the product-rule
    measure with kernel p is fixed under the w-weighted transfer
    operator.  When p has several closed classes, q is the uniform
    mixture of their stationary vectors and `non_unique` is set.  Raises
    ValueError when the normalization fails.
    """
    if w.depth > 2:
        raise ValueError("normalized-weight construction needs depth(w) <= 2")
    w.require_nonnegative()
    w2 = w.promote(2)
    a, j = shift.words_at(2, np.arange(shift.word_count(2))).T - 1
    p = np.zeros((shift.k, shift.k))
    p[a, j] = w2.values / shift.column_sums[j]
    col = p.sum(axis=0)
    if not (np.abs(col - 1.0) <= NORMALIZED_SLACK).all():
        raise ValueError(
            f"weight is not normalized: branch averages {col.tolist()} differ from 1"
        )
    q, n_classes = _fixed_vector(p)
    return MarkovMeasure(shift, q, kernel=p, non_unique=n_classes > 1)


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
    return float(_strong_invariance_defects(rho, depth).max())


def _strong_invariance_defects(rho, depth):
    """The defect of `verify_strong_invariance` at each depth 1, ..., depth alone, in one pass.

    Each word's first symbol is carried down the parent tree; its second
    is the first symbol of its suffix, read through the suffix map.  Each
    level is compared in row blocks, whose maxima combine with np.max, so
    a NaN still shows.
    """
    from .subshift import _levels, _row_blocks  # subshift imports this module

    shift = rho.shift
    rho.masses_at(depth)  # one walk caches every depth
    avg_kernel = shift.matrix / shift.column_sums
    # each row summed by np.sum, not a BLAS product: thread-count free
    defects = [np.abs(rho.masses_at(1) - np.sum(avg_kernel * rho.masses_at(1), axis=1)).max()]
    # padded for symbol 0, so that symbols index it directly
    front = np.pad(avg_kernel, ((1, 0), (1, 0)))
    levels = _levels(shift, depth)
    _, first = next(levels)
    for d, (parent, _) in enumerate(levels, 2):
        first, above = first[parent], first
        suffix, masses, shorter = shift.suffix_indices(d), rho.masses_at(d), rho.masses_at(d - 1)
        worst = []
        for rows in _row_blocks(len(first)):
            tail = suffix[rows]
            rhs = front[first[rows], above[tail]] * shorter[tail]
            worst.append(np.abs(masses[rows] - rhs).max())
        defects.append(np.max(worst))
    return np.array(defects)
