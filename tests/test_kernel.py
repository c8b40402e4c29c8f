"""The parity kernel: block decomposition, hit counts, and locality.

The oracle here enumerates every cut pattern of a set and filters by the
block shape rules directly, independent of the greedy splitter.  Uniqueness
and membership coherence are then statements about that enumeration.
"""

import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreier_kit import averaging, family, kernel
from schreier_kit.compacta import matrix_from_sets
from schreier_kit.finset import EMPTY, FinSet
from schreier_kit.kernel import (
    Decomposition,
    NotInS2Error,
    block_sets,
    decompose,
    dependency_radius,
    inner,
    parity,
    parity_matrix,
)


def brute_splits(elems):
    """Every cut of ``elems`` into consecutive blocks that satisfies the
    shape rules: non-final blocks have size equal to their minimum, the
    final block has size at most its minimum, and the minima themselves
    obey the same size bound."""
    n = len(elems)
    found = []
    for mask in range(1 << (n - 1)):
        cuts = [i + 1 for i in range(n - 1) if mask >> i & 1]
        parts, prev = [], 0
        for c in cuts + [n]:
            parts.append(elems[prev:c])
            prev = c
        ok = all(len(b) == b[0] for b in parts[:-1])
        ok = ok and len(parts[-1]) <= parts[-1][0]
        ok = ok and len(parts) <= parts[0][0]
        if ok:
            found.append(tuple(parts))
    return found


def all_subsets(top):
    for r in range(1, top + 1):
        yield from (FinSet(c) for c in itertools.combinations(range(1, top + 1), r))


class TestDecomposition:
    def test_golden_splits(self):
        assert str(decompose(FinSet((2, 3, 5, 8, 9)))) == "{2,3} | {5,8,9}"
        assert str(decompose(FinSet((2, 3, 4)))) == "{2,3} | {4}"
        assert str(decompose(FinSet((1,)))) == "{1}"
        assert str(decompose(FinSet((3, 4, 5)))) == "{3,4,5}"

    def test_support_and_minima(self):
        d = decompose(FinSet((2, 3, 5, 8, 9)))
        assert d.support == FinSet((2, 3, 5, 8, 9))
        assert d.minima == FinSet((2, 5))

    def test_rejections(self):
        with pytest.raises(NotInS2Error, match="exceed the schreier bound"):
            decompose(FinSet((1, 2)))
        with pytest.raises(ValueError, match="cannot decompose the empty set"):
            decompose(EMPTY)

    def test_greedy_split_is_the_unique_valid_one(self):
        # exhaustive over [1..9]: 511 nonempty sets
        for s in all_subsets(9):
            splits = brute_splits(s.elems)
            try:
                d = decompose(s)
            except NotInS2Error:
                assert splits == [], f"{s} has a split the splitter missed"
                continue
            assert len(splits) == 1, f"{s} splits {len(splits)} ways"
            assert splits[0] == tuple(b.elems for b in d.blocks)

    def test_membership_matches_decomposability(self):
        for s in all_subsets(8):
            try:
                decompose(s)
                decomposes = True
            except NotInS2Error:
                decomposes = False
            assert decomposes == family.member(family.SCHREIER_SQUARE, s), str(s)

    def test_decompose_is_memoized_and_never_caches_an_error(self):
        t = FinSet((2, 3, 5, 8, 9))
        first = decompose(t)
        again = decompose(FinSet((2, 3, 5, 8, 9)))
        assert again == first and again is first
        size = kernel._decompose_elems.cache_info().currsize
        for _ in range(3):
            with pytest.raises(NotInS2Error):
                decompose(FinSet((1, 2)))
            with pytest.raises(ValueError, match="empty set"):
                decompose(EMPTY)
        assert kernel._decompose_elems.cache_info().currsize == size

    def test_invalid_block_tuples_are_rejected(self):
        with pytest.raises(ValueError, match="at least one block"):
            Decomposition(())
        with pytest.raises(ValueError, match="not maximal schreier"):
            Decomposition((FinSet((3, 4)), FinSet((9,))))
        with pytest.raises(ValueError, match="not schreier"):
            Decomposition((FinSet((2, 3)), FinSet((4, 5, 6, 7, 8))))
        with pytest.raises(ValueError, match="strictly increasing"):
            Decomposition((FinSet((3, 4, 5)), FinSet((4, 6))))
        with pytest.raises(ValueError, match="minima"):
            Decomposition((FinSet((2, 3)), FinSet((4, 5, 6, 7)),
                           FinSet((8, 9, 10, 11, 12, 13, 14, 15)),))

    def test_constructor_accepts_exactly_the_greedy_split(self):
        # every composition of every nonempty subset of [1..10]; the
        # constructor must refuse all but the splitter's
        walked = 0
        for elems in family._powerset(range(1, 11)):
            if not elems:
                continue
            try:
                want = tuple(b.elems for b in decompose(FinSet(elems)).blocks)
            except NotInS2Error:
                want = None
            for blocks in family._compositions(elems, lambda b: True):
                walked += 1
                try:
                    Decomposition(tuple(FinSet(b) for b in blocks))
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == (blocks == want), blocks
        assert walked == (3**10 - 1) // 2


class TestKernelValues:
    def test_golden_pair(self):
        s, t = FinSet((2, 5, 8)), FinSet((2, 3, 5, 8, 9))
        assert inner(s, t) == 2
        assert parity(s, t) == 1

    def test_positions_past_the_shorter_side_are_ignored(self):
        t = FinSet((2, 3, 4))  # blocks {2,3} | {4}
        assert inner(FinSet((2, 4, 9, 11)), t) == 2  # only two block slots
        assert inner(FinSet((2,)), t) == 1           # only one s slot
        assert parity(FinSet((2,)), t) == 0

    def test_hits_are_positional_not_global(self):
        t = FinSet((2, 3, 4))
        # 4 sits in the second block but appears in s's first slot: no hit
        assert inner(FinSet((4, 9)), t) == 0
        assert inner(FinSet((3, 4)), t) == 2

    def test_empty_conventions(self):
        assert parity(EMPTY, FinSet((2, 3))) == 1
        assert parity(FinSet((2, 3)), EMPTY) == 1
        assert parity(EMPTY, EMPTY) == 1
        assert inner(EMPTY, FinSet((2, 3))) == 0

    def test_decomposition_argument_is_accepted(self):
        t = FinSet((2, 3, 5, 8, 9))
        d = decompose(t)
        s = FinSet((2, 5, 8))
        assert inner(s, d) == inner(s, t)
        assert parity(s, d) == parity(s, t)
        with pytest.raises(TypeError, match="expected FinSet or Decomposition"):
            inner(s, (2, 3))

    def test_values_are_bits(self):
        for s in all_subsets(6):
            for t in all_subsets(6):
                try:
                    d = decompose(t)
                except NotInS2Error:
                    continue
                assert parity(s, d) in (0, 1)
                assert parity(s, d) == (inner(s, d) + 1) % 2


class TestLocality:
    def test_radius_is_the_max_of_the_fixed_side(self):
        assert dependency_radius(FinSet((2, 5, 8))) == 8
        with pytest.raises(ValueError, match="undefined"):
            dependency_radius(EMPTY)

    def test_second_coordinate_is_read_only_inside_the_radius(self):
        s = FinSet((2, 5, 8))
        t = FinSet((2, 3, 5, 8, 9))
        # same trace on [1..8], different tails
        t_pad = FinSet((2, 3)) | FinSet((5, 8, 9, 10, 11))
        assert t_pad.restrict_to(s.max) == t.restrict_to(s.max)
        assert parity(s, t_pad) == parity(s, t)

    def test_first_coordinate_is_read_only_inside_the_radius(self):
        t = FinSet((2, 3, 5, 8, 9))
        r = dependency_radius(t)
        s = FinSet((2, 5))
        for tail in (FinSet((r + 1,)), FinSet((r + 3, r + 7))):
            padded = s | tail
            assert parity(padded, t) == parity(s, t)


class TestBlockSets:
    def test_views_agree(self):
        t = FinSet((2, 3, 5, 8, 9))
        assert block_sets(t) == tuple(frozenset(b.elems)
                                      for b in decompose(t).blocks)
        assert block_sets(decompose(t)) == block_sets(t)
        assert block_sets(EMPTY) == ()


@st.composite
def block_decompositions(draw):
    """Random valid block tuples: minima double at each step, so there is
    always room for a full block before the next minimum."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(max(k, 2), 6))
    blocks = []
    for i in range(k):
        final = i == k - 1
        size = draw(st.integers(1, m)) if final else m
        room = list(range(m + 1, 2 * m))
        extra = draw(st.permutations(room))[:size - 1]
        blocks.append(FinSet.of([m] + list(extra)))
        m = 2 * m + draw(st.integers(0, 3))
    return tuple(blocks)


@given(block_decompositions())
def test_union_decomposes_back_to_its_blocks(blocks):
    union = EMPTY
    for b in blocks:
        union = union | b
    assert decompose(union).blocks == blocks


@st.composite
def kernel_grids(draw):
    """Random S2 second coordinates plus the empty set, and first
    coordinates drawn from their elements, their block minima, the empty
    set and values above every max t."""
    ts = [FinSet.of(itertools.chain.from_iterable(bs))
          for bs in draw(st.lists(block_decompositions(), max_size=6))]
    ts.append(EMPTY)
    top = max(t.max_or_0 for t in ts)
    pool = sorted({m for t in ts for m in t} | {top + 1, top + 9})
    ss = [FinSet.of(els) for els in
          draw(st.lists(st.sets(st.sampled_from(pool), max_size=6), max_size=8))]
    ss += [decompose(t).minima for t in ts if t]
    ss += [EMPTY, FinSet((top + 1,))]
    return ss, ts


@settings(derandomize=True, max_examples=150)
@given(kernel_grids())
def test_parity_matrix_matches_the_scalar_oracle(grid):
    ss, ts = grid
    want = np.array([[parity(s, t) for t in ts] for s in ss], dtype=np.uint8)
    got = parity_matrix(ss, ts)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
    assert np.array_equal(matrix_from_sets("K", ss, ts).entries, want)
    assert np.array_equal(matrix_from_sets("L", ts, ss).entries, want.T)


@settings(derandomize=True, max_examples=100)
@given(kernel_grids())
def test_parity_matrix_takes_element_tuples_as_first_coordinates(grid):
    ss, ts = grid
    want = parity_matrix(ss, ts)
    assert np.array_equal(parity_matrix([s.elems for s in ss], ts), want)
    mixed = [s.elems if k % 2 else s for k, s in enumerate(ss)]
    assert np.array_equal(parity_matrix(mixed, ts), want)
    assert np.array_equal(parity_matrix([s.elems for s in ss], ts,
                                        transposed=True), want.T)


def test_parity_matrix_does_not_grow_with_the_elements():
    # the label table has one row per distinct element of the ts, so
    # elements far beyond any array length are fine on both sides
    big, huge = 10 ** 12, 10 ** 30
    ts = [FinSet((2, huge)), FinSet((3, big, huge)), FinSet((2, 5, huge)),
          FinSet((big,)), EMPTY]
    ss = [FinSet((huge,)), FinSet((2, huge)), FinSet((5, huge)),
          FinSet((big,)), FinSet((3, big)), FinSet((huge + 1,)), EMPTY]
    want = np.array([[parity(s, t) for t in ts] for s in ss], dtype=np.uint8)
    assert np.array_equal(parity_matrix(ss, ts), want)
    assert np.array_equal(parity_matrix([s.elems for s in ss], ts,
                                        transposed=True), want.T)


def assert_grid_is_the_oracle(ss, ts):
    # both layouts, packed and unpacked, against the scalar ``parity``
    want = np.array([[parity(s if isinstance(s, FinSet) else FinSet(s), t)
                      for t in ts] for s in ss], dtype=np.uint8)
    want = want.reshape(len(ss), len(ts))
    assert np.array_equal(parity_matrix(ss, ts), want)
    assert np.array_equal(parity_matrix(ss, ts, packed=True),
                          np.packbits(want, axis=1))
    assert np.array_equal(parity_matrix(ss, ts, transposed=True), want.T)
    assert np.array_equal(parity_matrix(ss, ts, transposed=True, packed=True),
                          np.packbits(want.T, axis=1))


# Second coordinates past every fixed-width integer: the whole-array split
# clips each element at the longest column, and 2^63 - 1, 2^63, 2^64 + 1 and
# 10^30 open blocks, close them and sit in final blocks
HUGE_TS = [FinSet((2 ** 63 - 1,)), FinSet((2, 2 ** 63)),
           FinSet((2, 3, 2 ** 64 + 1)),
           FinSet((2, 3, 2 ** 64 + 1, 2 ** 64 + 2, 10 ** 30)),
           FinSet((3, 4, 5, 2 ** 63 - 1, 2 ** 63, 10 ** 30)),
           FinSet((2, 3, 2 ** 63 - 1, 2 ** 63)),
           FinSet(tuple(range(2 ** 63 - 1, 2 ** 63 + 6)))]  # the longest
# three blocks each: {3,4,5} | six elements from 6 | from 12 on
DEEP_TS = [FinSet((3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
           FinSet((3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 19, 20)),
           FinSet((3, 5, 7, 9, 10, 11, 12, 13, 14, 15, 16))]


@pytest.mark.parametrize("ss, ts", [
    pytest.param([FinSet((2 ** 63 - 1,)), (2, 2 ** 63), (3, 2 ** 64 + 1),
                  FinSet((2, 3, 2 ** 64 + 2)), (2, 2 ** 64 + 1, 10 ** 30),
                  (3, 4, 2 ** 63), (2 ** 63 - 1, 2 ** 63 + 5),
                  FinSet((2 ** 64,)), ()],
                 HUGE_TS, id="huge elements"),
    pytest.param([(2,), FinSet((2, 3)), (3, 5), EMPTY],
                 [EMPTY, EMPTY, FinSet((2, 3)), EMPTY, FinSet((3,)),
                  FinSet((2, 5, 6)), EMPTY], id="empty columns"),
    pytest.param([FinSet((3,)), (3, 6), (4, 8), FinSet((5, 12)), (9,), ()],
                 DEEP_TS, id="every s shorter than the deepest t"),
    pytest.param([(3, 6, 12), FinSet((3, 8, 14, 15, 16)), (3, 9, 19, 20),
                  (4, 10, 13, 14, 15, 16, 17), FinSet((5,))],
                 DEEP_TS + [FinSet((2, 3))], id="some s longer"),
])
def test_parity_matrix_splits_every_column_as_the_oracle(ss, ts):
    assert_grid_is_the_oracle(ss, ts)
    assert_grid_is_the_oracle(ss[::-1], ts[::-1])
    assert_grid_is_the_oracle(ss, HUGE_TS + ts)


@pytest.mark.parametrize("nrows", [0, 5])
@pytest.mark.parametrize("transposed", [False, True])
def test_parity_matrix_refuses_the_first_refused_column(nrows, transposed):
    # {1,2} and {1,2,3} both have more blocks than their minimum; the
    # refusal is that of the first, as ``decompose`` words it, rows or not
    ts = [EMPTY, FinSet((2, 3)), FinSet((1, 2)), FinSet((1, 2, 3))]
    with pytest.raises(NotInS2Error) as want:
        decompose(FinSet((1, 2)))
    assert "(1, 2)" in str(want.value)
    ss = [FinSet((2, 3))] * nrows
    with pytest.raises(NotInS2Error) as got:
        parity_matrix(ss, ts, transposed=transposed)
    assert str(got.value) == str(want.value)


def shrink(mp, rows, ncols):
    """Make a fill block ``rows`` packed rows of ``ncols`` bits."""
    nbytes = (ncols + 7) // 8
    mp.setattr(kernel, "_BLOCK_BYTES", rows * max(nbytes, 1))
    assert kernel.rows_per_block(nbytes) == rows


@settings(derandomize=True, max_examples=100)
@given(kernel_grids())
def test_parity_matrix_in_blocks_of_one_and_seven_rows(grid):
    ss, ts = grid
    want = np.array([[parity(s, t) for t in ts] for s in ss], dtype=np.uint8)
    for rows in (1, 7):
        with pytest.MonkeyPatch.context() as mp:
            # a block is ``rows`` whole packed rows of the result
            shrink(mp, rows, len(ts))
            assert np.array_equal(parity_matrix(ss, ts), want)
            assert np.array_equal(parity_matrix(ss, ts, packed=True),
                                  np.packbits(want, axis=1))
            shrink(mp, rows, len(ss))
            got = parity_matrix(ss, ts, transposed=True)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want.T)
            got = parity_matrix(ss, ts, transposed=True, packed=True)
            assert got.flags.c_contiguous
            assert np.array_equal(got, np.packbits(want.T, axis=1))


@pytest.fixture(scope="module")
def s2_upto_14():
    sets = family.enumerate_members(family.SCHREIER_SQUARE, 14)
    assert len(sets) == 6718
    return sets


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 6718])
def test_packed_parity_matrix_is_the_packed_grid(s2_upto_14, n):
    # ``n`` columns of the result, in both layouts: ``n`` second
    # coordinates, then ``n`` first coordinates of the transpose
    few = s2_upto_14[::700]
    for ss, ts, transposed in ((few, s2_upto_14[:n], False),
                               (s2_upto_14[:n], few, True)):
        grid = parity_matrix(ss, ts, transposed=transposed)
        got = parity_matrix(ss, ts, transposed=transposed, packed=True)
        assert got.dtype == np.uint8
        assert got.shape == (len(grid), (n + 7) // 8)
        assert np.array_equal(got, np.packbits(grid, axis=1))
        assert not np.unpackbits(got, axis=1)[:, n:].any()  # zero padding


@pytest.mark.parametrize("transposed", [False, True])
def test_packed_fill_holds_no_second_grid(s2_upto_14, transposed):
    # the result is the only full-size array of a fill: besides it, the
    # traced peak holds the incidence table, its index array, one block of
    # result rows and the column split, plus small objects such as the
    # packed all-ones row.  The split keeps one intp element number and one
    # int32 block position per column element, which the key and table-row
    # arrays then reuse or replace; the bound allows it as much as a tuple
    # of block lengths per column, the split it once held.  The table is
    # first set as a 0/1 array, about 8 times its packed size, and freed
    # before the result is made, so it shares the bound's room for the
    # result: K peaks at 1,461,002 bytes of 1,583,952 and L at 1,746,274
    # of 2,188,436 (numpy 2.4.6)
    kernel._decompose_elems.cache_clear()
    ss = family.enumerate_members(family.SCHREIER, 14)
    table, index, _ = kernel._incidence(ss, s2_upto_14, transposed)
    nbytes = table.shape[1]
    block = min(kernel.rows_per_block(nbytes), index.shape[1]) * nbytes
    splits = [kernel._block_lengths(t.elems) if t else () for t in s2_upto_14]
    held = sys.getsizeof(splits) + sum(map(sys.getsizeof, splits))
    tracemalloc.start()
    try:
        got = parity_matrix(ss, s2_upto_14, transposed=transposed,
                            packed=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = table.nbytes + index.nbytes + block + held + (16 << 10)
    assert peak <= got.nbytes + bound
    # a fill splits its columns without the memo of ``decompose``
    assert kernel._decompose_elems.cache_info().currsize == 0


def test_blocks_past_every_first_coordinate(s2_upto_14):
    # the fill keys every block of every column; the blocks past the
    # longest s are table rows that no K row picks and that L XORs in empty
    ss = family.enumerate_members(family.SCHREIER, 4)
    ts = [t for t in s2_upto_14 if t and len(decompose(t).blocks) >= 3]
    assert max(map(len, ss)) == 2 and len(ts) == 40
    assert_grid_is_the_oracle(ss, ts)
    assert_grid_is_the_oracle(ss, ts + HUGE_TS)


@pytest.mark.parametrize("n", [2, 3])
def test_block_averages_against_a_union_one_block_deeper(n):
    # the grids of the averaging.parity_table suite: the picks of a depth-k
    # block average against the chain's union t0 and its extension's t1
    for s in family.enumerate_members(family.Cube(1, n - 1), 6):
        chain = averaging.build_chain(n, s, averaging.CanonicalBlocks())
        k = chain.depth
        t0, t1 = chain.union(), chain.extend(s.max_or_0 + 1).union()
        picks = list(averaging.block_average(chain).picks())
        assert {len(v) for v in picks} == {k}
        assert len(decompose(t1).blocks) == k + 1
        assert_grid_is_the_oracle(picks, [t0, t1])
