"""Word enumeration, cylinder functions, and weight products."""

import re

import numpy as np
import pytest

from conftest import (
    BLOCK4,
    FULL2,
    GOLDEN,
    PERM2,
    brute_weight_product,
    function_dict,
    random_subshift,
    random_weight,
)
from exact_chain import brute_words
from shiftpath import (
    CylinderFunction,
    DensityMeasure,
    DepthDowngrade,
    InadmissibleWord,
    NegativeWeight,
    NonBinaryEntry,
    TableTooLarge,
    ZeroColumn,
    build_path_measure,
    build_subshift,
    sample_paths,
    strongly_invariant_measure,
    verify_strong_invariance,
    weight_product,
)
from shiftpath.subshift import word_string


def test_word_enumeration_matches_brute_force():
    for matrix in (FULL2, GOLDEN, BLOCK4, PERM2):
        shift = build_subshift(matrix)
        for depth in range(1, 6):
            assert shift.words(depth) == brute_words(matrix, depth)


def test_golden_depth3_words_frozen():
    shift = build_subshift(GOLDEN)
    assert shift.words(3) == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
        (2, 1, 2),
    ]


def test_column_sums_and_preimages():
    golden = build_subshift(GOLDEN)
    assert golden.column_sums.tolist() == [2, 1]


def test_matrix_validation():
    with pytest.raises(ZeroColumn):
        build_subshift([[1, 0], [1, 0]])
    with pytest.raises(NonBinaryEntry):
        build_subshift([[2, 0], [1, 1]])
    with pytest.raises(ValueError):
        build_subshift([[1, 1, 1], [1, 1, 1]])


def test_irreducibility_flags():
    assert build_subshift(FULL2).irreducible
    assert build_subshift(GOLDEN).irreducible
    assert build_subshift(PERM2).irreducible
    assert not build_subshift(BLOCK4).irreducible
    assert not build_subshift([[1, 0], [0, 1]]).irreducible
    # full shifts on which (I + A)^k overflows int64
    for k in (16, 17, 18, 20, 25):
        assert build_subshift(np.ones((k, k), dtype=int)).irreducible


def test_oversized_tables_are_refused():
    full = build_subshift(FULL2)
    for build in (full.word_count, full.words, full.symbols_array, full.suffix_indices):
        with pytest.raises(TableTooLarge):
            build(40)
    with pytest.raises(TableTooLarge):
        CylinderFunction.constant(full, 1.0, depth=40)
    assert full.word_count(3) == 8


def test_admissibility_checks():
    golden = build_subshift(GOLDEN)
    assert golden.is_admissible((1, 2, 1))
    assert not golden.is_admissible((1, 2, 2))
    assert not golden.is_admissible((0, 1))
    assert not golden.is_admissible((1, 3))
    with pytest.raises(InadmissibleWord):
        golden.require_admissible((2, 2))


@pytest.mark.parametrize("bad, dtype", [(0, np.int64), (3, np.int64), (-5, np.int64),
                                        (255, np.uint8), ((2, 2), np.int64)])
def test_word_index_names_the_first_bad_row(bad, dtype):
    """Symbols outside 1..k, in any integer dtype, and an inadmissible pair name the first bad row."""
    golden = build_subshift(GOLDEN)  # k = 2, and 22 is inadmissible
    words = golden.symbols_array(3).astype(dtype)
    broken = words.copy()
    broken[[2, 4], :2] = bad
    named = re.escape(word_string(broken[2].tolist()))
    with pytest.raises(InadmissibleWord, match=f"^word {named} is not admissible$"):
        golden.word_index(broken)
    assert golden.word_index(words[:0]).shape == (0,)
    assert golden.word_index(words).tolist() == list(range(len(words)))


def test_prefix_and_suffix_index_maps():
    """Index maps must agree with literal slicing of the word lists."""
    for matrix in (GOLDEN, BLOCK4):
        shift = build_subshift(matrix)
        for depth in range(2, 6):
            words = shift.words(depth)
            for short in range(1, depth):
                idx = shift.prefix_indices(depth, short)
                shorter = shift.words(short)
                for i, w in enumerate(words):
                    assert shorter[idx[i]] == w[:short]
            suf = shift.suffix_indices(depth)
            tails = shift.words(depth - 1)
            for i, w in enumerate(words):
                assert tails[suf[i]] == w[1:]


def test_prefix_depth_zero_is_the_empty_word_and_outside_depths_are_refused():
    """Every word's empty prefix is the root, index 0, as the former leaf-up walk gave."""
    golden = build_subshift(GOLDEN)
    for depth in (1, 4):
        assert golden.prefix_indices(depth, 0).tolist() == [0] * golden.word_count(depth)
        for prefix in (-1, depth + 1):
            with pytest.raises(ValueError, match=f"prefix depth {prefix} is outside 0..{depth}"):
                golden.prefix_indices(depth, prefix)


def test_window_sums_match_a_dict_oracle():
    """Every window w[start:start + width] of every word up to depth 5 sums as a dict does."""
    rng = np.random.default_rng(18)
    for matrix in (FULL2, GOLDEN, PERM2, BLOCK4):
        shift = build_subshift(matrix)
        for depth in range(1, 6):
            words = brute_words(matrix, depth)
            values = rng.random(len(words))
            for start in range(depth):
                for width in range(1, depth - start + 1):
                    sums = {}
                    for w, x in zip(words, values):
                        key = w[start:start + width]
                        sums[key] = sums.get(key, 0.0) + x
                    expect = [sums.get(w, 0.0) for w in brute_words(matrix, width)]
                    got = shift.window_sums(values, depth, start, width)
                    assert got.tolist() == expect, (matrix, depth, start, width)


def test_window_sums_refuse_empty_and_outside_windows():
    golden = build_subshift(GOLDEN)
    values = np.ones(golden.word_count(3))
    for start, width in ((0, 0), (-1, 2), (2, 2), (0, 4)):
        with pytest.raises(ValueError, match="in a depth-3 word"):
            golden.window_sums(values, 3, start, width)


def _uniform_path_measure(shift):
    one = CylinderFunction.constant(shift, 1.0)
    return build_path_measure(shift, one, DensityMeasure(one, strongly_invariant_measure(shift)))


@pytest.mark.parametrize("k, depth", [(3, 6), (25, 3)])
def test_symbols_are_one_byte_and_indices_intp(k, depth):
    """Every cached table and every returned word or map has its intended dtype.

    Symbols are uint8, which wraps past 255, so any arithmetic on them
    must widen first.  Index arrays are intp, which numpy gathers with
    no cast; a narrower one would be cast on every use.
    """
    shift = build_subshift(np.ones((k, k), dtype=int))
    assert shift.symbol_dtype == np.uint8
    pm = _uniform_path_measure(shift)
    batch = sample_paths(pm, n_steps=2, n_samples=50, base_depth=depth - 1, seed=1)
    kernel = pm._kernel(depth - 1)
    symbols = {
        "words_at": shift.words_at(depth, np.arange(5)),
        "symbols_array": shift.symbols_array(depth),
        "base_words": batch.base_words,
        "prepends": batch.prepends,
        "kernel.syms": kernel.syms,
    }
    symbols.update({f"_last[{d}]": arr for d, arr in shift._last.items()})
    for name, arr in symbols.items():
        assert arr.dtype == np.uint8, name
    indices = {"kernel.nxt": kernel.nxt, "kernel.start": kernel.start}
    indices.update({f"prefix_indices({p})": shift.prefix_indices(depth, p) for p in range(depth + 1)})
    indices.update({f"suffix_indices({d})": shift.suffix_indices(d) for d in range(2, depth + 1)})
    for table in ("_parent", "_first", "_suffix"):
        indices.update({f"{table}[{d}]": arr for d, arr in getattr(shift, table).items()})
    for name, arr in indices.items():
        assert arr.dtype == np.intp, name
    # every depth's tables were built and checked above
    assert sorted(shift._parent) == sorted(shift._suffix) == list(range(1, depth + 1))


@pytest.mark.parametrize("matrix", [
    np.ones((3, 3), dtype=int),
    [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
    BLOCK4,
])
def test_tree_arrays_own_contiguous_memory(matrix):
    """Every cached tree array holds only its own bytes: no strided view keeps a larger buffer alive.

    Parents read from np.nonzero were a stride-16 view of its (n, 2)
    buffer, so the tree kept 16 bytes per word where it read 8.
    """
    shift = build_subshift(matrix)
    depth = 7
    shift.suffix_indices(depth)
    tables = {name: getattr(shift, name) for name in ("_parent", "_last", "_first", "_suffix")}
    assert [len(tables[name]) for name in tables] == [depth, depth + 1, depth, depth]
    for name, table in tables.items():
        for d, arr in table.items():
            assert arr.flags.c_contiguous and arr.base is None, f"{name}[{d}]"


def test_the_largest_one_byte_alphabet_does_not_wrap():
    """On the full 255-shift, symbol 255 comes through every table, map, mass and batch intact."""
    k = 255
    shift = build_subshift(np.ones((k, k), dtype=int))
    assert shift.symbol_dtype == np.uint8
    assert build_subshift(np.ones((k + 1, k + 1), dtype=int)).symbol_dtype == np.uint16
    first, second = np.divmod(np.arange(k * k), k)
    assert shift.symbols_array(2).tolist() == np.column_stack([first + 1, second + 1]).tolist()
    assert shift.prefix_indices(2, 1).tolist() == first.tolist()
    assert shift.suffix_indices(2).tolist() == second.tolist()
    pm = _uniform_path_measure(shift)
    np.testing.assert_allclose(pm.mu0.masses_at(2), 1.0 / k**2, rtol=1e-12)
    assert verify_strong_invariance(strongly_invariant_measure(shift), 2) <= 1e-12
    assert sorted(set(pm._kernel(1).syms.tolist())) == list(range(1, k + 1))
    batch = sample_paths(pm, n_steps=3, n_samples=2000, base_depth=1, seed=2)
    assert batch.prepends.max() == k and batch.prepends.min() >= 1
    words = batch.theta_words(2, 2)
    assert shift.words_at(2, shift.word_index(words)).tolist() == words.tolist()


def test_random_matrices_stay_coherent():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        shift = random_subshift(rng, k, require_irreducible=False)
        matrix = shift.matrix.tolist()
        for depth in (1, 2, 3):
            assert shift.words(depth) == brute_words(matrix, depth)


def test_cylinder_function_constructors(golden):
    one = CylinderFunction.constant(golden, 1.0)
    assert one.depth == 1 and one.values.tolist() == [1.0, 1.0]
    ind = CylinderFunction.indicator(golden, (1, 2))
    assert ind.values.tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(InadmissibleWord):
        CylinderFunction.indicator(golden, (2, 2))
    with pytest.raises(InadmissibleWord):
        CylinderFunction.from_table(golden, 1, {(1,): 1.0})
    with pytest.raises(InadmissibleWord):
        CylinderFunction.from_table(golden, 2, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1})


@pytest.mark.parametrize(
    "table, named",
    [
        ({(1, 1): 1.0, (1, 2): 2.0, (2,): 3.0}, "table key 2 "),
        ({(1,): 1.0, (1, 2, 1): 2.0, (2, 1): 3.0}, "table key 1 "),
        ({(1, 1, 1): 1.0, (1, 1, 2): 2.0, (1, 2, 1): 3.0}, "table key 111 "),
        ({(1,): 1.0, (2,): 2.0}, "table key 1 "),
    ],
)
def test_table_keys_of_the_wrong_length_are_named(golden, table, named):
    """Mixed lengths and one uniform wrong length both name the first wrong key."""
    with pytest.raises(InadmissibleWord, match=named):
        CylinderFunction.from_table(golden, 2, table)


def test_cylinder_function_value_and_promote(golden):
    f = CylinderFunction.from_table(golden, 2, {(1, 1): 3.0, (1, 2): -1.0, (2, 1): 5.0})
    assert f.value((1, 2, 1)) == -1.0
    assert f.value((2, 1, 1, 2)) == 5.0
    with pytest.raises(DepthDowngrade):
        f.value((1,))
    with pytest.raises(InadmissibleWord):
        f.value((2, 2))
    g = f.promote(3)
    for w in golden.words(3):
        assert g.value(w) == f.value(w)
    with pytest.raises(DepthDowngrade):
        g.promote(2)


def test_compose_with_shift(golden):
    f = CylinderFunction.from_table(golden, 2, {(1, 1): 3.0, (1, 2): -1.0, (2, 1): 5.0})
    g = f.compose_with_shift()
    assert g.depth == 3
    for w in golden.words(3):
        assert g.value(w) == f.value(w[1:])


def test_arithmetic_and_depth_promotion(golden):
    f = CylinderFunction.from_table(golden, 1, {(1,): 2.0, (2,): -1.0})
    g = CylinderFunction.from_table(golden, 2, {(1, 1): 1.0, (1, 2): 2.0, (2, 1): 3.0})
    h = f * g + 1 - 2 * f
    assert h.depth == 2
    for w in golden.words(2):
        assert h.value(w) == f.value(w) * g.value(w) + 1 - 2 * f.value(w)
    assert (-f).values.tolist() == [-2.0, 1.0]
    assert (f / 2).values.tolist() == [1.0, -0.5]
    other = build_subshift(GOLDEN)
    f_other = CylinderFunction.constant(other, 1.0)
    with pytest.raises(ValueError):
        f + f_other


def test_immutability_and_norms(golden):
    f = CylinderFunction.from_table(golden, 1, {(1,): 2.0, (2,): -1.0})
    with pytest.raises(AttributeError):
        f.depth = 3
    with pytest.raises(ValueError):
        f.values[0] = 9.0
    z = CylinderFunction(golden, 1, np.array([1 + 1j, 2.0]))
    assert np.allclose(z.abs_squared().values, [2.0, 4.0])
    with pytest.raises(NegativeWeight):
        f.require_nonnegative()
    with pytest.raises(NegativeWeight):
        z.require_nonnegative()


def test_weight_product_against_brute_force():
    rng = np.random.default_rng(7)
    for matrix in (FULL2, GOLDEN):
        shift = build_subshift(matrix)
        for v_depth in (1, 2):
            v = random_weight(shift, rng, v_depth)
            v_dict = function_dict(v)
            for n in range(1, 5):
                w = weight_product(v, n)
                assert w.depth == v_depth + n - 1
                expected = brute_weight_product(matrix, v_dict, n, w.depth)
                for word, got in zip(shift.words(w.depth), w.values):
                    assert got == pytest.approx(expected[word], abs=1e-14)


def test_weight_product_recursion_identity(golden):
    """v^(n+1) must equal v * (v^(n) after the shift), the defining recursion."""
    rng = np.random.default_rng(11)
    v = random_weight(golden, rng, 2)
    for n in range(1, 4):
        lhs = weight_product(v, n + 1)
        rhs = v * weight_product(v, n).compose_with_shift()
        assert np.allclose(lhs.values, rhs.promote(lhs.depth).values, atol=1e-14)


def test_weight_product_rejects_negative(golden):
    v = CylinderFunction.from_table(golden, 1, {(1,): 1.0, (2,): -0.5})
    with pytest.raises(NegativeWeight):
        weight_product(v, 2)
