"""The two-valued parity kernel on pairs (s, t) of finite sets.

Every t in S2 (= prod(schreier, schreier)) splits uniquely into consecutive
blocks t[0] < t[1] < ... < t[l] where every block before the last is a
*maximal* schreier set (#block = min block), the last block is schreier, and
the block minima again form a schreier set.  The kernel counts positional
hits of s against those blocks and keeps only the parity:

    inner(s, t) = #{ i <= min(k, l) : s's i-th element lies in t[i] }
    parity(s, t) = (inner(s, t) + 1) mod 2

with s = {m_0 < ... < m_k}.  Conventions: inner(empty, t) = 0 and
inner(s, empty) = 0, so parity(empty, t) = parity(s, empty) = 1.

``inner``/``parity`` are the scalar oracle.  ``parity_matrix`` is the one
fast path: it evaluates many pairs at once, one bit per pair.  s hits t
at position i exactly when the pair (i, s_i) is a pair (i, m) with m in
t's block i, and only positions below the deepest decomposition can hit.
So one packed incidence table has a row per such pair of the second
coordinates, whose bits run over the second coordinates in one layout
and over the first in the other, and each row of the result is the
packed all-ones row XOR-ed with the table rows its set picks.
``np.packbits`` packs the table from a transient 0/1 array, about 8
times its size, which is freed before the fill.  Elements are numbered
in order of first appearance, so the table's size depends on how many
distinct elements there are, not on how large they are.
First coordinates may be FinSets or bare increasing element tuples (the
picks of a block average, the candidate rows of a separator search), so
a caller need not build a FinSet per row.  The grid is filled packed, in
blocks of a fixed number of bytes, so it is the only array whose size
grows with the number of pairs; unpacked, it is unpacked at the end.

``decompose`` is memoized in one place, ``_decompose_elems``, keyed by
the element tuple: a ``Decomposition`` is frozen, so equal second
coordinates share one, and a refused set raises again on every call.
Its scalar split, ``_block_lengths``, is the oracle of the grid fill's,
which splits every column at once by whole-array passes and keeps none.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count, repeat

import numpy as np

from .finset import FinSet


class NotInS2Error(ValueError):
    """The set admits no block decomposition of the required shape."""


@dataclass(frozen=True)
class Decomposition:
    blocks: tuple[FinSet, ...]

    def __post_init__(self):
        bs = self.blocks
        if not bs:
            raise ValueError("a decomposition has at least one block")
        for i, b in enumerate(bs):
            if not b:
                raise ValueError("blocks are nonempty")
            final = i == len(bs) - 1
            if not final and len(b) != b.min:
                raise ValueError(f"non-final block {b} is not maximal schreier")
            if final and len(b) > b.min:
                raise ValueError(f"final block {b} is not schreier")
            if i and not bs[i - 1].precedes(b):
                raise ValueError("blocks must be strictly increasing")
        mins = [b.min for b in bs]
        if len(mins) > mins[0]:
            raise ValueError("block minima do not form a schreier set")

    @property
    def support(self) -> FinSet:
        out: tuple[int, ...] = ()
        for b in self.blocks:
            out += b.elems
        return FinSet(out)

    @property
    def minima(self) -> FinSet:
        return FinSet(tuple(b.min for b in self.blocks))

    def __str__(self) -> str:
        return " | ".join(str(b) for b in self.blocks)


def _block_lengths(elems: tuple[int, ...]) -> tuple[int, ...]:
    """The lengths of the blocks of ``elems``, in order: the scalar split
    of a set into its decomposition, which ``_decompose_elems`` keeps for
    ``decompose`` and whose refusal a grid fill raises."""
    if not elems:
        raise ValueError("cannot decompose the empty set")
    lengths = []
    i = 0
    n = len(elems)
    while i < n:
        # forced cut: a non-final block must be maximal schreier and
        # consecutive, so it is exactly the next min-many elements; the
        # short final block is schreier by # < min
        c = min(elems[i], n - i)
        lengths.append(c)
        i += c
    if len(lengths) > elems[0]:
        raise NotInS2Error(f"block minima of {elems} exceed the schreier bound")
    return tuple(lengths)


# Decompositions kept for ``decompose``, keyed by the element tuple; a
# refusal raises and is not kept.  Grid fills split their columns by
# whole-array passes and keep nothing here, so the bench's matrix workload
# (`compacta matrix` and `inject`) and `tree sweep` never call it.
# `verify --max 8` calls it 660 times: 265 hits and 395 misses, 128 of
# them refusals, keeping 267 entries; uncapped `verify` 3,678 hits and
# 4,937 misses, keeping 2,666 (``compacta.powers_witness`` keeps the
# decompositions of its witnesses itself).  A hit costs about 0.3 us; a
# miss splits, builds and validates the frozen ``Decomposition`` and its
# block FinSets, about 10 us for 41 elements in 4 blocks (2-core VM).
# 4,096 entries hold every set either workload asks for.
@lru_cache(maxsize=1 << 12)
def _decompose_elems(elems: tuple[int, ...]) -> Decomposition:
    blocks = []
    i = 0
    for c in _block_lengths(elems):
        blocks.append(FinSet(elems[i:i + c]))
        i += c
    return Decomposition(tuple(blocks))


def decompose(t: FinSet) -> Decomposition:
    """The unique block decomposition of a nonempty t in S2 (memoized by
    its elements; an error is raised afresh on every call, never cached)."""
    return _decompose_elems(t.elems)


def inner(s: FinSet, t) -> int:
    """Positional hit count of s against the blocks of t.

    ``t`` may be a FinSet (decomposed on the fly) or a ready Decomposition.
    """
    if isinstance(t, Decomposition):
        blocks = t.blocks
    elif isinstance(t, FinSet):
        if not t:
            return 0
        blocks = decompose(t).blocks
    else:
        raise TypeError(f"expected FinSet or Decomposition, got {t!r}")
    return sum(1 for i, m in enumerate(s.elems[:len(blocks)]) if m in blocks[i])


def parity(s: FinSet, t) -> int:
    """1 for an even hit count, 0 for odd."""
    c = inner(s, t)
    value = (c + 1) % 2
    # the sign form ((-1)^c + 1)/2 must agree term for term
    assert value == ((-1) ** c + 1) // 2
    return value


def dependency_radius(fixed: FinSet) -> int:
    """With one coordinate fixed to a nonempty ``fixed``, the kernel reads
    the other coordinate only inside [1..max fixed]."""
    if not fixed:
        raise ValueError("the radius of an empty coordinate is undefined")
    return fixed.max


# Bytes per block of a ``parity_matrix`` fill: the gather buffer holds one
# block of packed rows, however large the grid.
_BLOCK_BYTES = 1 << 18


def rows_per_block(width: int) -> int:
    """Rows of ``width`` bytes each that make one block (at least one)."""
    return max(1, _BLOCK_BYTES // max(1, width))


def parity_matrix(ss, ts, transposed: bool = False,
                  packed: bool = False) -> np.ndarray:
    """``out[i, j] == parity(ss[i], ts[j])`` as a uint8 array of shape
    (len(ss), len(ts)); with ``transposed``, its transpose in row-major
    order; with ``packed``, each row of that array ``np.packbits``-ed to
    one bit per entry, its padding bits zero.  Each ss[i] is a FinSet or
    the increasing tuple of its elements; every ts[j] must be empty or
    decompose.

    The result is filled packed, and each of its rows is the packed
    all-ones row XOR-ed with a few rows of one packed incidence table,
    picked by an index array (see ``_incidence``).  One loop serves both
    layouts: for each block of about ``_BLOCK_BYTES`` bytes of result
    rows, and each row of the index array that picks a nonzero table row
    there, it gathers the picked table rows into a reused block-sized
    buffer and XORs that into the block in place.  So the table, the
    index array and one block are all the fill holds besides the result,
    which is the only array whose size grows with the number of pairs.
    Unpacked, the result is unpacked once at the end.
    """
    table, index, ncols = _incidence(ss, ts, transposed)
    nrows, nbytes = index.shape[1], table.shape[1]
    out = np.empty((nrows, nbytes), dtype=np.uint8)
    ones = np.packbits(np.ones(ncols, dtype=np.uint8))
    step = rows_per_block(nbytes)
    buf = np.empty((min(step, nrows), nbytes), dtype=np.uint8)
    for r in range(0, nrows, step):
        dest = out[r:r + step]
        part = buf[:len(dest)]
        dest[...] = ones
        for picks in index[:, r:r + step]:
            if picks.sum():  # row 0 is zero: the XOR would change nothing
                # "clip" takes the indices as they are; "raise" buffers ``out``
                np.take(table, picks, axis=0, out=part, mode="clip")
                dest ^= part
    return out if packed else np.unpackbits(out, axis=1, count=ncols)


def _incidence(ss, ts, transposed: bool):
    """The packed incidence table, the index array (a column per result
    row) and the number of result columns of a ``parity_matrix`` fill.

    Only positions i below ``width``, the deepest decomposition, can hit:
    a longer s is cut there, and blocks past the longest s are keyed too,
    as rows that no s picks.  parity(s, t) is 1 XOR the XOR over those i
    of [s_i in t's block i].  So the table has a row for each pair (i, m)
    of an element m of a block i of some t, numbered from 1, and row 0 is
    all zero.  Untransposed, row (i, m) has bit j set when m lies in block
    i of ts[j], and the index column of s picks the row of (i, s_i) for
    each i, or row 0.  Transposed, row (i, m) has bit k set
    when the i-th element of ss[k] is m, and the index column of t picks
    the row of each of its pairs, padded with row 0.  Both layouts
    scatter their bits into a transient 0/1 array, about 8 times the
    packed table, freed before the fill once ``np.packbits`` packs it.

    The ts are split together, over their element numbers laid end to
    end.  A block opened at m takes min(m, elements left) elements, at
    most ``cap``, the longest t, so the elements clipped at ``cap`` give
    every cut, however large they are.  Each round moves every t's cursor
    past one block and marks the opening; the mark at each t's start is
    then reset by the previous t's block count, so one running sum numbers
    every element's block.  The fill builds no block tuples, calls
    ``_block_lengths`` only to raise a refusal, and leaves nothing in the
    memo of ``decompose``.
    """
    elems = [t.elems for t in ts]
    heads = [s if type(s) is tuple else s.elems for s in ss]
    counts = np.fromiter(map(len, elems), dtype=np.intp, count=len(ts))
    ends = counts.cumsum()
    starts = ends - counts
    number = defaultdict(count().__next__)
    ids = np.fromiter(map(number.__getitem__, chain.from_iterable(elems)),
                      dtype=np.intp, count=ends[-1] if len(ts) else 0)
    lens = np.fromiter(map(len, heads), dtype=np.intp, count=len(ss))
    longest = int(lens.max(initial=0))
    cap = int(counts.max(initial=0))
    clip = np.fromiter(map(min, number, repeat(cap)), dtype=np.intp,
                       count=len(number))
    # a finished t keeps its cursor at its end, which for the last ts is
    # past the last element: a spare slot takes their marks, and ``take``
    # clips their reads
    block = np.zeros(len(ids) + 1, dtype=np.intp)
    pos = starts.copy()
    rest = counts.copy()
    width = 0  # the deepest decomposition
    while np.count_nonzero(rest):
        block[pos] = 1
        step = clip.take(ids.take(pos, mode="clip"))
        np.minimum(step, rest, out=step)
        pos += step
        rest -= step
        width += 1
    block = block[:-1]
    first = starts[counts > 0]
    if first.size:
        nblocks = np.add.reduceat(block, first)
        bad = nblocks > clip[ids[first]]
        if np.count_nonzero(bad):
            _block_lengths(ts[np.flatnonzero(counts)[bad.argmax()]].elems)
        # the running sum restarts at each t: its start holds 1 minus the
        # previous t's block count
        nblocks[1:] = 1 - nblocks[:-1]
        nblocks[0] = 0
        block[first] = nblocks
        block.cumsum(out=block)
    # ``ids`` becomes the key number(m) * width + i of each pair (i, m)
    ids *= width
    ids += block
    del block
    # table rows numbered by key; an element of no t, and a position past
    # the end of a short s, read the key of number ``len(number)``, which
    # no t has
    hit = np.zeros((len(number) + 1) * width, dtype=bool)
    hit[ids] = True
    keys = np.flatnonzero(hit)
    row = np.zeros(len(hit), dtype=np.intp)
    row[keys] = np.arange(1, len(keys) + 1)
    trow = row[ids]
    del ids
    if longest > width:
        heads = [h[:width] for h in heads]
        np.minimum(lens, width, out=lens)
    at = np.arange(width)
    skey = np.full((len(ss), width), len(number), dtype=np.intp)
    skey[lens[:, None] > at] = np.fromiter(
        map(number.get, chain.from_iterable(heads), repeat(len(number))),
        dtype=np.intp, count=int(lens.sum()))
    srow = row.reshape(len(number) + 1, width)[skey, at]
    if transposed:
        index = np.zeros((counts.max(initial=0), len(ts)), dtype=np.intp)
        for c in range(len(index)):
            have = np.flatnonzero(counts > c)
            index[c, have] = trow[starts[have] + c]
        rows, cols, nbits = srow, np.arange(len(ss))[:, None], len(ss)
    else:
        # a C-order copy, so that each index row is contiguous
        index = srow.T.copy()
        rows, cols = trow, np.repeat(np.arange(len(ts)), counts)
        nbits = len(ts)
    table = np.zeros((len(keys) + 1, nbits), dtype=bool)
    table[rows, cols] = True
    table[0] = False  # the row that picks nothing
    return np.packbits(table, axis=1), index, nbits


# No caller in the package; kept while bench/tracer.py TARGETS name it.
def _parity_blocks(s_elems: tuple[int, ...], block_sets: tuple) -> int:
    """Hot-path kernel over pre-built block membership sets (frozensets)."""
    c = 0
    for i, m in enumerate(s_elems[:len(block_sets)]):
        if m in block_sets[i]:
            c += 1
    return (c + 1) & 1


# No caller in the package; kept while bench/tracer.py TARGETS name it.
def block_sets(t) -> tuple:
    """Frozenset view of the blocks of t, for sweep loops."""
    if not t:
        return ()
    d = t if isinstance(t, Decomposition) else decompose(t)
    return tuple(frozenset(b.elems) for b in d.blocks)
