"""Property tests over random subshifts of finite type.

Hypothesis draws transition matrices with k <= 4 symbols and no zero
column, and depths up to 6.  The word tables, index maps and word lookup
are compared with the tuple oracle in conftest; the branch-sum primitive
is compared bit for bit with numpy's unbuffered scatter-add.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_words
from shiftpath import InadmissibleWord, build_subshift
from shiftpath.subshift import branch_sum

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def matrices(draw):
    k = draw(st.integers(1, 4))
    bits = draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k))
    matrix = [bits[i * k : (i + 1) * k] for i in range(k)]
    assume(all(any(row[j] for row in matrix) for j in range(k)))
    return matrix


def int_array(data, n, high):
    return np.asarray(data.draw(st.lists(st.integers(0, high), min_size=n, max_size=n)),
                      dtype=np.int64)


def float_array(data, n):
    floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    return np.asarray(data.draw(st.lists(floats, min_size=n, max_size=n)), dtype=np.float64)


depths = st.integers(1, 6)


@PROPERTY_SETTINGS
@given(matrices(), depths)
def test_tables_match_tuple_oracle(matrix, depth):
    shift = build_subshift(matrix)
    words = brute_words(matrix, depth)
    assert shift.words(depth) == words
    assert shift.word_count(depth) == len(words)
    assert shift.symbols_array(depth).tolist() == [list(w) for w in words]
    for short in range(1, depth + 1):
        where = {w: i for i, w in enumerate(brute_words(matrix, short))}
        expected = [where[w[:short]] for w in words]
        assert shift.prefix_indices(depth, short).tolist() == expected
    if depth >= 2:
        where = {w: i for i, w in enumerate(brute_words(matrix, depth - 1))}
        assert shift.suffix_indices(depth).tolist() == [where[w[1:]] for w in words]


@PROPERTY_SETTINGS
@given(matrices(), depths, st.data())
def test_word_lookup_round_trips_and_rejects(matrix, depth, data):
    shift = build_subshift(matrix)
    words = brute_words(matrix, depth)
    table = shift.symbols_array(depth)
    assert shift.word_index(table).tolist() == list(range(len(words)))
    i = data.draw(st.integers(0, len(words) - 1))
    assert shift.word_index(words[i]) == i
    k = len(matrix)
    probe = tuple(int_array(data, depth, k - 1) + 1)
    outside = list(words[i])
    outside[data.draw(st.integers(0, depth - 1))] = data.draw(st.sampled_from([-1, 0, k + 1]))
    for word in (probe, tuple(outside)):
        if word in words:
            assert shift.word_index(word) == words.index(word)
            continue
        with pytest.raises(InadmissibleWord):
            shift.word_index(word)
        with pytest.raises(InadmissibleWord):
            shift.word_index(np.vstack([table, word]))


@PROPERTY_SETTINGS
@given(st.integers(1, 30), st.data())
def test_branch_sum_matches_add_at(size, data):
    n = data.draw(st.integers(0, 200))
    index = int_array(data, n, size - 1)
    re, im = float_array(data, n), float_array(data, n)
    for values in (re, re + 1j * im):
        expected = np.zeros(size, dtype=values.dtype)
        np.add.at(expected, index, values)
        got = branch_sum(index, values, size)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    cols = data.draw(st.integers(1, 5))
    col_index = int_array(data, n, cols - 1)
    expected = np.zeros((size, cols))
    np.add.at(expected, (index, col_index), re)
    got = branch_sum((index, col_index), re, (size, cols))
    assert got.tobytes() == expected.tobytes()
