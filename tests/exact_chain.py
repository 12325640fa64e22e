"""Exact solves, in Fractions, of the systems behind h, nu, rho and the extremality space.

The oracle for the chain solver and the extremality solve.  Words come
from itertools, closed classes from a boolean closure, and every solve
and null space from one elimination, Bareiss's fraction-free one
(Math. Comp. 22, 1968).  Only fractions, itertools and numpy are
imported: no code is shared with the package.
"""

import itertools
from fractions import Fraction

import numpy as np

# how far the row sums of a closed class may stray from 1 while it keeps its mass (as in the package)
NORMALIZED_SLACK = 1e-12


def brute_words(matrix, depth):
    """All admissible words by direct product enumeration, lexicographic."""
    k = len(matrix)
    out = []
    for w in itertools.product(range(1, k + 1), repeat=depth):
        if all(matrix[w[i] - 1][w[i + 1] - 1] == 1 for i in range(depth - 1)):
            out.append(w)
    return out


def brute_column_sums(matrix):
    k = len(matrix)
    return [sum(matrix[i][j] for i in range(k)) for j in range(k)]


def table_value(table, word):
    """Value of a cylinder-function dict on a (possibly longer) word."""
    depth = len(next(iter(table)))
    assert len(word) >= depth
    return table[tuple(word[:depth])]


def boolean_closure(graph):
    """reach[i, j] when a path of nonzero entries of a dense graph, maybe empty, leads from i to j.

    Boolean squaring until nothing changes, O(n^3 log n).
    """
    reach = (graph != 0) | np.eye(graph.shape[0], dtype=bool)
    while True:
        step = reach.astype(np.float64)
        wider = step @ step > 0
        if (wider == reach).all():
            return reach
        reach = wider


def closure_closed_classes(graph):
    """The closed classes of a dense graph from its closure, ordered by lowest state."""
    reach = boolean_closure(graph)
    mutual = reach & reach.T
    # a class reaches nothing outside itself; its lowest state stands for it
    closed = (reach == mutual).all(axis=1) & (mutual.argmax(axis=1) == np.arange(len(reach)))
    return [np.flatnonzero(mutual[i]) for i in np.flatnonzero(closed)]


def closure_reaching(graph, targets):
    """Mask of the states of a dense graph with a path, maybe empty, into targets."""
    return boolean_closure(graph)[:, targets].any(axis=1)


def null_space(rows, width):
    """A basis of the x with rows @ x = 0, in Fractions: one vector per column with no pivot.

    Bareiss's elimination brings the rows, each scaled to integers, to echelon
    form, skipping the columns with no pivot; every division is exact.  A free
    column set to the last pivot D and the other free columns to 0 make every
    pivot value an integer (Cramer's rule), found by exact back substitution.
    """
    a = []
    for row in ([Fraction(x) for x in row] for row in rows):
        scale = 1
        for x in row:  # lcm(scale, d) = scale * (d / gcd(scale, d))
            scale *= Fraction(scale, x.denominator).denominator
        a.append([int(x * scale) for x in row])
    pivots, prev = [], 1
    for col in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, len(a)):
            for j in range(col + 1, width):
                a[i][j] = (a[r][col] * a[i][j] - a[i][col] * a[r][j]) // prev
            a[i][col] = 0
        prev = a[r][col]
        pivots.append(col)
    basis = []
    for free in sorted(set(range(width)) - set(pivots)):
        x = [0] * width
        x[free] = prev
        for r in reversed(range(len(pivots))):
            col = pivots[r]
            x[col] = -sum(a[r][j] * x[j] for j in range(col + 1, width)) // a[r][col]
        basis.append([Fraction(xi, prev) for xi in x])
    return basis


def bareiss_solve(system, rhs):
    """x with system @ x = rhs, for a nonsingular square system: the null vector of [system | -rhs]."""
    (x,) = null_space([list(row) + [-Fraction(b)] for row, b in zip(system, rhs)], len(system) + 1)
    return x[:-1]


def closed_classes(chain):
    """The closed classes of a chain of Fractions (rows step from, columns to), by lowest state."""
    return closure_closed_classes(np.array(chain, dtype=object))


def absorption(chain, classes):
    """The chance that a sub-stochastic chain's walk enters the closed `classes`: 1 on them, 0
    with no path into them, else the solve of (I - P_TT) x = P_TC 1 on the states T that reach them."""
    target = np.zeros(len(chain), dtype=bool)
    target[[i for members in classes for i in members]] = True
    live = np.flatnonzero(closure_reaching(np.array(chain, dtype=object), target) & ~target).tolist()
    system = [[Fraction(int(i == j)) - chain[i][j] for j in live] for i in live]
    entering = [sum(chain[i][j] for j in np.flatnonzero(target)) for i in live]
    solved = dict(zip(live, bareiss_solve(system, entering)))
    return [solved.get(i, Fraction(int(t))) for i, t in enumerate(target)]


def stationary_vector(chain, members):
    """q = q P, sum q = 1, on the closed class `members`: (I - P)^T q = 0 with row 0 set to ones."""
    system = [[Fraction(int(i == j)) - chain[j][i] for j in members] for i in members]
    system[0] = [Fraction(1)] * len(members)
    return bareiss_solve(system, [1] + [0] * (len(members) - 1))


def fixed_vectors(matrix, weight, depth):
    """h = lim T^n 1 and nu of the transfer operator on the depth-`depth` words, nu None if degenerate.

    Word w steps to (aw)[:depth] with v(aw) / #branches(w).  h is the chance of entering a closed
    class whose rows sum to 1 within NORMALIZED_SLACK; nu is the stationary vector of the first.
    """
    words = brute_words(matrix, depth)
    where, cols = {w: i for i, w in enumerate(words)}, brute_column_sums(matrix)
    chain = [[Fraction(0)] * len(words) for _ in words]
    for i, w in enumerate(words):
        for a in range(1, len(matrix) + 1):
            if matrix[a - 1][w[0] - 1]:
                aw = (a,) + w
                chain[i][where[aw[:depth]]] += Fraction(table_value(weight, aw)) / cols[w[0] - 1]
    sums = [sum(row) for row in chain]
    if any(s - 1 > NORMALIZED_SLACK for s in sums):
        raise ValueError("the chain is not sub-stochastic")
    kept = [c for c in closed_classes(chain) if all(abs(sums[i] - 1) <= NORMALIZED_SLACK for i in c)]
    if not kept:
        return absorption(chain, kept), None
    nu = dict(zip(kept[0], stationary_vector(chain, kept[0])))
    return absorption(chain, kept), [nu.get(i, Fraction(0)) for i in range(len(words))]


def invariant_measure(matrix):
    """q of rho (mass moves from j to i with matrix[i][j] / column_sum[j]) and its count of classes."""
    k, cols = len(matrix), brute_column_sums(matrix)
    chain = [[Fraction(matrix[i][j], cols[j]) for i in range(k)] for j in range(k)]
    classes = closed_classes(chain)
    q = [Fraction(0)] * k
    for members in classes:
        for i, x in zip(members, stationary_vector(chain, members)):
            q[i] += x / len(classes)
    return q, len(classes)


def invariant_functions(matrix, weight, masses, depth):
    """The f on the depth-`depth` words that solve the extremality system, as orthogonal Fractions.

    One equation per charged depth-`depth` word w: sum_a v(aw) mu0([aw]) (f((aw)[:depth]) - f(w))
    = 0, with the base `masses` given on the depth-(depth + 1) words.  A word is charged when some
    depth-(depth + 1) extension has positive mass; an uncharged word is mu0-null, so it has no
    equation, and every basis vector is 0 on it.  The exact null space on the charged words is
    orthogonalised by Gram-Schmidt with no normalising, so every step stays exact.
    """
    positive = [aw for aw, mass in zip(brute_words(matrix, depth + 1), masses) if mass > 0]
    charged = {w: i for i, w in enumerate(sorted({aw[:depth] for aw in positive}))}
    system = [[Fraction(0)] * len(charged) for _ in charged]
    for aw, mass in zip(brute_words(matrix, depth + 1), masses):
        coef = Fraction(table_value(weight, aw)) * Fraction(mass)
        if coef and aw[1:] in charged:  # the row of an uncharged word is dropped, whatever it holds
            system[charged[aw[1:]]][charged[aw[:depth]]] += coef
            system[charged[aw[1:]]][charged[aw[1:]]] -= coef
    basis = []
    for x in null_space(system, len(charged)):
        for u in basis:
            c = sum(a * b for a, b in zip(x, u)) / sum(b * b for b in u)
            x = [a - c * b for a, b in zip(x, u)]
        basis.append(x)
    return [[x[charged[w]] if w in charged else Fraction(0) for w in brute_words(matrix, depth)]
            for x in basis]
