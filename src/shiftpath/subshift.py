"""Subshifts of finite type and functions of finitely many coordinates.

The state space is the set of one-sided symbol sequences (s1, s2, ...)
over the alphabet {1, ..., k} in which every consecutive pair (a, b)
satisfies matrix[a, b] == 1.  The dynamics drop the first symbol, so a
point has one preimage per admissible leading symbol.  Everything the
library computes lives on finite cylinder resolutions: a depth-d
function is a table with one value per admissible word of length d,
kept in lexicographic word order.
"""

import numpy as np

from .errors import (
    DepthDowngrade,
    InadmissibleWord,
    NegativeWeight,
    NonBinaryEntry,
    TableTooLarge,
    ZeroColumn,
)
from .invariant import Chain, closed_classes

# Largest word table built at any depth; 3**13 words fit, 2**22 do not.
MAX_TABLE_WORDS = 2**21
# Largest sampled batch in symbols, samples x (base depth + steps): 128 MiB of uint8.
MAX_SAMPLE_SYMBOLS = 2**27


def word_string(word):
    """Render a word tuple as a digit string, e.g. (1, 2, 1) -> "121"."""
    return "".join(str(s) for s in word)


class _Alias:
    """An array's memory offered through the array interface, without its read-only flag."""

    def __init__(self, arr):
        self.base = arr
        interface = arr.__array_interface__
        self.__array_interface__ = dict(interface, data=(interface["data"][0], False))


def _bincount(index, weights=None, minlength=0):
    """np.bincount, without the whole copy it makes of each read-only input.

    bincount asks numpy for writeable arrays, though it only reads them,
    so a frozen index map or table would be copied whole (12 MiB for
    the suffix map of 3**13 words).  Each read-only input goes in as an
    alias of its own memory instead.
    """
    index, weights = (a if a is None or a.flags.writeable else np.asarray(_Alias(a))
                      for a in (index, weights))
    return np.bincount(index, weights, minlength)


def branch_sum(index, values, size):
    """Sum over inverse branches: out[i] is the sum of values[j] over index[j] == i.

    values are real or complex and the result has their kind.  Each bin
    is summed in index order, as numpy's unbuffered add.at does, so the
    two agree bit for bit.
    """
    if np.iscomplexobj(values):
        out = np.empty(size, dtype=np.complex128)
        out.real = _bincount(index, values.real, size)
        out.imag = _bincount(index, values.imag, size)
        return out
    # bincount returns ints when there are no values at all
    return _bincount(index, values, size).astype(np.float64, copy=False)


def prepend_walk(shift, depth, masses):
    """The walk that prepends a symbol, as an `invariant.Chain` on depth-`depth` words.

    Row w has one entry per admissible aw, in the order of a (prefix
    indices sort by a first): column the index of (aw)[:depth], entry
    masses[aw] from the depth-(depth + 1) table, zero masses stored.
    """
    suf = shift.suffix_indices(depth + 1)
    order = np.argsort(suf, kind="stable")
    indptr = np.r_[0, np.cumsum(_bincount(suf, minlength=shift.word_count(depth)))]
    return Chain(indptr, shift.prefix_indices(depth + 1, depth)[order], masses[order])


def step_walk(shift, depth, masses):
    """`prepend_walk` with each row divided by its sum, added in the order of a.

    A row of no mass stays zero.  The sampler and the extremality solve step along it.
    """
    suf = shift.suffix_indices(depth + 1)
    total = branch_sum(suf, masses, shift.word_count(depth))
    return prepend_walk(shift, depth, masses / np.where(total > 0, total, 1.0)[suf])


def _levels(shift, depth):
    """The parent tree's levels 1, ..., depth from the root down, as (parent, last) array pairs.

    Level d's parent array indexes the words of level d - 1; level 0 is
    the root, the empty word, with symbol 0.  A pass that keeps one
    array per word carries it down with one gather per level.
    """
    shift._grow(depth)
    for d in range(1, depth + 1):
        yield shift._parent[d], shift._last[d]


# rows per block of a level pass that only gathers, multiplies and takes maxima,
# so that its temporaries stay small however many words the level holds; sums
# are not blocked, since a blocked sum would add in another order
LEVEL_BLOCK_ROWS = 1 << 13


def _row_blocks(n):
    """Slices that cover rows 0..n in order, LEVEL_BLOCK_ROWS rows each (the last may be short)."""
    return (slice(start, start + LEVEL_BLOCK_ROWS) for start in range(0, n, LEVEL_BLOCK_ROWS))


def _frozen(arr):
    arr.setflags(write=False)
    return arr


class Subshift:
    """Transition-matrix model of the symbol space and its shift map.

    Parameters
    ----------
    matrix : array_like
        Square 0/1 matrix.  matrix[a-1, b-1] == 1 means symbol b may
        follow symbol a.  Every column must contain a 1 so that every
        point has at least one preimage under the shift.

    Notes
    -----
    Each depth's words are two arrays, the parent index (the word minus
    its last symbol, intp) and the last symbol (`symbol_dtype`, one byte
    for k <= 255), built lazily and cached read-only.  Every index array
    is intp, which numpy indexes with no cast, and every cached array
    owns its contiguous buffer, so it holds only its own bytes.
    Instances are immutable after construction and safe for concurrent
    reads.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("transition matrix must be square and non-empty")
        # np.unique would load numpy.ma on every run; it only names the bad entries
        if not ((m == 0) | (m == 1)).all():
            raise NonBinaryEntry(f"matrix entries must be 0 or 1, got {np.unique(m).tolist()}")
        a = m.astype(np.int64)
        cols = a.sum(axis=0)
        for j, cj in enumerate(cols):
            if cj == 0:
                raise ZeroColumn(j + 1)
        self.k = int(a.shape[0])
        # the narrowest unsigned type that holds the symbols 0..k
        self.symbol_dtype = np.min_scalar_type(self.k)
        self.matrix = _frozen(a)
        self.column_sums = _frozen(cols)
        # the word tables form a tree rooted at the empty word (depth 0, symbol
        # 0), which any symbol may follow; rank[a, b] is b's place among the
        # symbols that may follow a, -1 if b may not
        self._allowed = np.pad(a, ((1, 0), (1, 0))).astype(bool)
        self._allowed[0, 1:] = True
        self._rank = np.where(self._allowed, np.cumsum(self._allowed, axis=1) - 1, -1)
        # keyed by depth, so that concurrent growth only rewrites equal arrays;
        # _first[d][i] is the first child of depth-d word i
        self._last, self._parent, self._first = {0: np.zeros(1, dtype=self.symbol_dtype)}, {}, {}
        self._suffix = {1: np.zeros(self.k, dtype=np.intp)}

    def __repr__(self):
        return f"Subshift(k={self.k})"

    @property
    def irreducible(self):
        """True when the transition digraph is strongly connected."""
        classes = closed_classes(self.matrix)
        return len(classes) == 1 and len(classes[0]) == self.k

    def _grow(self, depth):
        """Build the tables down to `depth`, refusing any above MAX_TABLE_WORDS."""
        self.word_count(depth)
        while len(self._last) <= depth:
            d = len(self._last)
            prev = self._last[d - 1]
            # row-major order lists each parent's successors in symbol order; np.nonzero
            # would give strided views into one (n, 2) buffer, twice the bytes kept
            parent, last = np.divmod(np.flatnonzero(self._allowed[prev]), self.k + 1)
            self._first[d - 1] = _frozen(np.searchsorted(parent, np.arange(len(prev))))
            self._parent[d] = _frozen(parent)
            self._last[d] = _frozen(last.astype(self.symbol_dtype))

    def words(self, depth):
        """Admissible words of the given length as tuples, lexicographically ordered."""
        return list(zip(*self.symbols_array(depth).T.tolist()))

    def word_count(self, depth):
        """The number of admissible words of length `depth`, counted without building their table.

        Raises TableTooLarge when it is above MAX_TABLE_WORDS.
        """
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth < len(self._last):
            return len(self._last[depth])
        # 1^T A^(depth-1) 1 in Python ints; counts never shrink with depth
        rows, ends = self.matrix.tolist(), [1] * self.k
        for _ in range(depth - 1):
            if sum(ends) > MAX_TABLE_WORDS:
                break
            ends = [sum(e for e, r in zip(ends, rows) if r[b]) for b in range(self.k)]
        if sum(ends) > MAX_TABLE_WORDS:
            raise TableTooLarge(f"depth {depth} has over {MAX_TABLE_WORDS} words")
        return sum(ends)

    def word_index(self, words):
        """Table positions of one word (an int) or an (n, depth) array of words.

        Descends the table symbol by symbol through the contiguous
        children.  An integer array keeps its dtype, and one column at a
        time is widened to intp.  The symbol range is checked by one min
        and one max.  Raises InadmissibleWord naming the first word with
        a symbol outside 1..k, or else the first word to leave the table
        at the shallowest depth.
        """
        arr = np.asarray(words)
        if arr.dtype.kind not in "iu":
            arr = arr.astype(np.int64)
        if arr.ndim == 1:
            return int(self.word_index(arr[None, :])[0])
        if arr.size and not (arr.min() >= 1 and arr.max() <= self.k):
            # the per-row mask is built only to name the first bad row
            bad = ((arr < 1) | (arr > self.k)).any(axis=1)
        elif not arr.shape[1]:
            bad = np.ones(len(arr), dtype=bool)  # no table holds a word of no symbols
        else:
            self._grow(arr.shape[1])
            # rank[a, b] sits at a * (k + 1) + b of the flat table
            ranks, cur = self._rank.ravel(), arr[:, 0].astype(np.intp)
            pos = cur - 1
            for d in range(1, arr.shape[1]):
                prev, cur = cur, arr[:, d].astype(np.intp)
                prev *= self.k + 1
                prev += cur
                rank = ranks[prev]
                bad = rank < 0
                if bad.any():
                    break
                rank += self._first[d][pos]
                pos = rank
            else:
                return pos
        word = word_string(arr[np.argmax(bad)].tolist())
        raise InadmissibleWord(f"word {word} is not admissible")

    def symbols_array(self, depth):
        """Admissible words as a `symbol_dtype` array of shape (count, depth)."""
        return self.words_at(depth, np.arange(self.word_count(depth)))

    def words_at(self, depth, index):
        """Depth-`depth` words at the table positions `index`, shape index.shape + (depth,).

        The symbols are `symbol_dtype`; widen them before any arithmetic
        that could leave 0..k.
        """
        self._grow(depth)
        sym = np.empty(np.shape(index) + (depth,), dtype=self.symbol_dtype)
        # one column at a time, last first, up the parent tree
        for d in range(depth, 0, -1):
            sym[..., d - 1] = self._last[d][index]
            index = self._parent[d][index]
        return sym

    def is_admissible(self, word):
        ok = len(word) > 0 and all(1 <= s <= self.k for s in word)
        return ok and all(self.matrix[a - 1, b - 1] for a, b in zip(word, word[1:]))

    def require_admissible(self, word):
        if not self.is_admissible(tuple(word)):
            raise InadmissibleWord(f"word {word_string(word)} is not admissible")

    def prefix_indices(self, depth, prefix_depth):
        """For each depth-`depth` word, the index of its length-`prefix_depth` prefix.

        Walked from the prefix depth down, one gather per deeper level
        over that level's words, so the cost is about the size of the
        deepest table, not (depth - prefix_depth) times it.  Prefix depth
        0 is the empty word, index 0 of every word.  One level up, the
        map is the cached, read-only parent array itself.
        """
        if not 0 <= prefix_depth <= depth:
            raise ValueError(f"prefix depth {prefix_depth} is outside 0..{depth}")
        self._grow(depth)
        if prefix_depth == depth:
            return np.arange(len(self._last[depth]))
        idx = self._parent[prefix_depth + 1]
        for d in range(prefix_depth + 2, depth + 1):
            idx = idx[self._parent[d]]
        return idx

    def suffix_indices(self, depth):
        """For each depth-`depth` word w, the index of w[1:] among depth-(depth-1) words."""
        if depth < 2:
            raise ValueError("need depth >= 2 to drop the first symbol")
        self._grow(depth)
        # the tail of u b is child b of the tail of u; children are contiguous
        while len(self._suffix) < depth:
            d = len(self._suffix) + 1
            parent, last, above = self._parent[d], self._last[d], self._suffix[d - 1]
            suffix = np.empty(len(last), dtype=np.intp)
            for rows in _row_blocks(len(last)):
                tail = above[parent[rows]]
                rank = self._rank[self._last[d - 2][tail], last[rows]]
                np.add(self._first[d - 2][tail], rank, out=suffix[rows])
            self._suffix[d] = _frozen(suffix)
        return self._suffix[depth]

    def window_sums(self, values, depth, start, width):
        """Sum a depth-`depth` table onto the windows w[start:start + width], by `branch_sum`.

        Out entry i sums values over the words w whose window is the i-th
        depth-`width` word.  The first `start` symbols go through the
        cached suffix maps, and a prefix map is built only when the window
        stops short of the end of the word; a whole-word window returns
        `values` itself.
        """
        if not (0 <= start and 1 <= width and start + width <= depth):
            raise ValueError(f"no window {start}:{start + width} in a depth-{depth} word")
        index = None
        for d in range(depth, depth - start, -1):
            suf = self.suffix_indices(d)
            index = suf if index is None else suf[index]
        if start + width < depth:
            pre = self.prefix_indices(depth - start, width)
            index = pre if index is None else pre[index]
        if index is None:
            return values
        return branch_sum(index, values, self.word_count(width))


class CylinderFunction:
    """A function of the first `depth` coordinates: one value per admissible word.

    Values are stored in the lexicographic order of `shift.words(depth)`.
    Instances are immutable; arithmetic returns new objects and promotes
    both operands to the deeper of the two resolutions first.
    """

    __slots__ = ("shift", "depth", "values")

    def __init__(self, shift, depth, values):
        vals = np.asarray(values)
        expected = shift.word_count(depth)
        if vals.shape != (expected,):
            raise ValueError(
                f"expected {expected} values for depth {depth}, got shape {vals.shape}"
            )
        # a copy, so that freezing the values leaves the caller's array writeable
        self._hold(shift, depth, vals.astype(np.complex128 if np.iscomplexobj(vals) else np.float64))

    @classmethod
    def _owning(cls, shift, depth, vals):
        """A function of a new array of the right length that nothing else holds, kept uncopied."""
        out = cls.__new__(cls)
        out._hold(shift, depth, vals.astype(np.complex128 if np.iscomplexobj(vals) else np.float64,
                                            copy=False))
        return out

    def _hold(self, shift, depth, vals):
        vals.setflags(write=False)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("CylinderFunction is immutable")

    def __repr__(self):
        return f"CylinderFunction(depth={self.depth}, n={len(self.values)})"

    @classmethod
    def constant(cls, shift, value, depth=1):
        n = shift.word_count(depth)
        return cls(shift, depth, np.full(n, value))

    @classmethod
    def indicator(cls, shift, word):
        """Indicator of the cylinder [word], at depth len(word)."""
        i = shift.word_index(word)
        vals = np.zeros(shift.word_count(len(word)))
        vals[i] = 1.0
        return cls(shift, len(word), vals)

    @classmethod
    def from_table(cls, shift, depth, table):
        """Build from a {word: value} dict covering exactly the admissible words.

        Raises InadmissibleWord naming the first key whose length is not depth.
        """
        wrong = next((key for key in table if np.size(key) != depth), None)
        if wrong is not None:
            raise InadmissibleWord(f"table key {word_string(np.ravel(wrong).tolist())} "
                                   f"is not a word of length {depth}")
        words = np.array(list(table), dtype=np.int64).reshape(len(table), depth)
        return cls.from_words(shift, depth, words, list(table.values()))

    @classmethod
    def from_words(cls, shift, depth, words, values):
        """Build from an (n, depth) array of distinct words and one value per word.

        Raises InadmissibleWord naming an inadmissible or a missing word.
        """
        index = shift.word_index(words)
        seen = np.bincount(index, minlength=shift.word_count(depth))
        if not seen.all():
            missing = word_string(shift.words_at(depth, np.argmin(seen)))
            raise InadmissibleWord(f"table is missing admissible words, e.g. {missing}")
        return cls(shift, depth, np.asarray(values)[np.argsort(index)])

    def value(self, word):
        """Value on the cylinder [word]; needs len(word) >= depth to be well defined."""
        word = tuple(word)
        if len(word) < self.depth:
            raise DepthDowngrade(
                f"function of depth {self.depth} is not constant on [{word_string(word)}]"
            )
        self.shift.require_admissible(word)
        return self.values[self.shift.word_index(word[: self.depth])]

    def promote(self, depth):
        """Represent the same function on X at a finer cylinder resolution."""
        if depth < self.depth:
            raise DepthDowngrade(f"cannot lower depth {self.depth} to {depth}")
        if depth == self.depth:
            return self
        idx = self.shift.prefix_indices(depth, self.depth)
        return CylinderFunction._owning(self.shift, depth, self.values[idx])

    def compose_with_shift(self):
        """The function x -> f(shift(x)), one level deeper than f."""
        d = self.depth + 1
        suf = self.shift.suffix_indices(d)
        return CylinderFunction._owning(self.shift, d, self.values[suf])

    def _pair(self, other):
        if not isinstance(other, CylinderFunction):
            raise TypeError("expected a CylinderFunction")
        if other.shift is not self.shift:
            raise ValueError("operands live on different subshifts")
        d = max(self.depth, other.depth)
        return self.promote(d), other.promote(d)

    def __add__(self, other):
        if np.isscalar(other):
            return CylinderFunction._owning(self.shift, self.depth, self.values + other)
        a, b = self._pair(other)
        return CylinderFunction._owning(a.shift, a.depth, a.values + b.values)

    __radd__ = __add__

    def __sub__(self, other):
        if np.isscalar(other):
            return CylinderFunction._owning(self.shift, self.depth, self.values - other)
        a, b = self._pair(other)
        return CylinderFunction._owning(a.shift, a.depth, a.values - b.values)

    def __rsub__(self, other):
        if np.isscalar(other):
            return CylinderFunction._owning(self.shift, self.depth, other - self.values)
        return NotImplemented

    def __mul__(self, other):
        if np.isscalar(other):
            return CylinderFunction._owning(self.shift, self.depth, self.values * other)
        a, b = self._pair(other)
        return CylinderFunction._owning(a.shift, a.depth, a.values * b.values)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if np.isscalar(other):
            return CylinderFunction._owning(self.shift, self.depth, self.values / other)
        return NotImplemented

    def __neg__(self):
        return CylinderFunction._owning(self.shift, self.depth, -self.values)

    def abs_squared(self):
        """Pointwise |f|^2 as a real cylinder function."""
        return CylinderFunction(
            self.shift, self.depth, (self.values.conj() * self.values).real
        )

    def max(self):
        return float(self.values.max().real)

    def min(self):
        return float(self.values.min().real)

    def require_nonnegative(self, name="weight"):
        if np.iscomplexobj(self.values) or self.values.min() < 0:
            raise NegativeWeight(f"{name} must be real and nonnegative")


def build_subshift(matrix):
    """Validate a 0/1 transition matrix and wrap it as a Subshift."""
    return Subshift(matrix)


def weight_product(v, n):
    """The running product v(x) v(shift x) ... v(shift^(n-1) x).

    The result depends on the first depth(v) + n - 1 coordinates.  It is
    built by the recursion product(n+1) = v * (product(n) o shift), which
    is exact on cylinder tables.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    v.require_nonnegative()
    out = v
    for _ in range(n - 1):
        out = v * out.compose_with_shift()
    return out
