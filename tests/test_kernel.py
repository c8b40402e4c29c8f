"""The parity kernel: block decomposition, hit counts, and locality.

The oracle here enumerates every cut pattern of a set and filters by the
block shape rules directly, independent of the greedy splitter.  Uniqueness
and membership coherence are then statements about that enumeration.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreier_kit import family, kernel
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
        size = decompose.cache_info().currsize
        for _ in range(3):
            with pytest.raises(NotInS2Error):
                decompose(FinSet((1, 2)))
            with pytest.raises(ValueError, match="empty set"):
                decompose(EMPTY)
        assert decompose.cache_info().currsize == size

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


@settings(derandomize=True, max_examples=100)
@given(kernel_grids())
def test_parity_matrix_in_blocks_of_one_and_seven_rows(grid):
    ss, ts = grid
    want = np.array([[parity(s, t) for t in ts] for s in ss], dtype=np.uint8)
    for rows in (1, 7):
        with pytest.MonkeyPatch.context() as mp:
            # a block is ``rows`` whole rows of the result
            mp.setattr(kernel, "_BLOCK_ENTRIES", rows * len(ts))
            assert np.array_equal(parity_matrix(ss, ts), want)
            mp.setattr(kernel, "_BLOCK_ENTRIES", rows * len(ss))
            got = parity_matrix(ss, ts, transposed=True)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want.T)
