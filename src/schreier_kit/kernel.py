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
fast path: it evaluates many pairs at once from a label table with a row
per distinct element m of the second coordinates, where ``label[m, j]`` is
the index of the block of the j-th second coordinate that holds m, or -1;
an element of no second coordinate reads a row of -1.  Position i of a
first coordinate s hits exactly when ``label[s_i, j] == i``, so one table
gather per position, XOR-accumulated into a uint8 array, gives the parity
of every pair.  The table's size depends on how many distinct elements
there are, not on how large they are.  First coordinates may be FinSets or
bare increasing element tuples (the picks of a block average, the
candidate rows of a separator search), so a caller need not build a
FinSet per row.  The grid is filled in blocks of a fixed number of
entries, so it is the only array whose size grows with the number of
pairs.

``decompose`` is memoized (``_DECOMPOSE_MEMO`` entries): a ``Decomposition``
is frozen, so a repeated second coordinate shares one, and a refused set
raises again on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat

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


@lru_cache(maxsize=1 << 16)
def _decompose_elems(elems: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    if not elems:
        raise ValueError("cannot decompose the empty set")
    blocks = []
    i = 0
    n = len(elems)
    while i < n:
        c = elems[i]
        if n - i >= c:
            # forced cut: a non-final block must be maximal schreier and
            # consecutive, so it is exactly the next c elements
            blocks.append(elems[i:i + c])
            i += c
        else:
            blocks.append(elems[i:])  # short final block, schreier by #<min
            i = n
    if len(blocks) > blocks[0][0]:
        raise NotInS2Error(f"block minima of {elems} exceed the schreier bound")
    return tuple(blocks)


# Decompositions kept by ``decompose``.  Its callers repeat a set within a
# few calls: ``compacta.powers_witness`` decomposes its witness to check
# it, and the ``compacta.witness_separates`` suite of ``verify`` decomposes
# the same witness again.  With 64 entries the suite's second builds all
# hit, and it ran in 0.099 s instead of 0.178 s (medians of eight
# ``verify --max 8`` runs each, alternating, 2-core VM): ``_decompose_elems``
# alone still leaves a frozen ``Decomposition`` and its block FinSets to
# build and validate per call.
_DECOMPOSE_MEMO = 64


@lru_cache(maxsize=_DECOMPOSE_MEMO)
def decompose(t: FinSet) -> Decomposition:
    """The unique block decomposition of a nonempty t in S2 (memoized; an
    error is raised afresh on every call, never cached)."""
    return Decomposition(tuple(FinSet(b) for b in _decompose_elems(t.elems)))


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


# Entries per block of a ``parity_matrix`` fill: the gather and compare
# temporaries hold one block, however large the grid.
_BLOCK_ENTRIES = 1 << 18


def rows_per_block(width: int) -> int:
    """Rows of ``width`` entries each that make one fill block (at least one)."""
    return max(1, _BLOCK_ENTRIES // max(1, width))


def parity_matrix(ss, ts, transposed: bool = False) -> np.ndarray:
    """``out[i, j] == parity(ss[i], ts[j])`` as a uint8 array of shape
    (len(ss), len(ts)); with ``transposed``, its transpose in row-major
    order.  Each ss[i] is a FinSet or the increasing tuple of its
    elements; every ts[j] must be empty or decompose.

    The label table has a row for each distinct element of the ts and one
    more row of -1, ``miss``: the padding of a short s, and every element
    of s that is in no t, read that row.  So its size does not depend on
    how large the elements are.  Only positions below the deepest
    decomposition can hit.  The grid is filled block by block, each block
    a run of whole rows of the result holding about ``_BLOCK_ENTRIES``
    entries: per-pair temporaries are block-sized and bool or the label
    dtype (one byte below 128 blocks), and the grid itself is the only
    full-size array.
    """
    decs = [_decompose_elems(t.elems) if t else () for t in ts]
    depth = max(map(len, decs), default=0)
    # every element of every t, in order: the blocks of each t in order
    values = list(chain.from_iterable(t.elems for t in ts))
    # label row of each distinct element, in order of first appearance
    row = {m: k for k, m in enumerate(dict.fromkeys(values))}
    miss = len(row)
    dtype = np.min_scalar_type(-depth - 1)
    label = np.full((miss + 1, len(ts)), -1, dtype=dtype)
    sizes = np.fromiter(map(len, chain.from_iterable(decs)), dtype=np.intp)
    block = np.fromiter(chain.from_iterable(map(range, map(len, decs))),
                        dtype=dtype, count=len(sizes))
    col = np.repeat(np.arange(len(ts)),
                    np.fromiter(map(len, ts), dtype=np.intp, count=len(ts)))
    label[np.fromiter(map(row.__getitem__, values), dtype=np.intp,
                      count=len(values)), col] = np.repeat(block, sizes)

    heads = [s if type(s) is tuple else s.elems for s in ss]
    width = min(depth, max(map(len, heads), default=0))
    # each head cut or padded to the width, mapped to label rows in one pass
    pad = (None,) * width
    flat = chain.from_iterable(h[:width] + pad[len(h):] for h in heads)
    pos = np.fromiter(map(row.get, flat, repeat(miss)),
                      dtype=np.intp, count=len(ss) * width)
    pos = pos.reshape(len(ss), width)

    if not transposed:
        out = np.empty((len(ss), len(ts)), dtype=np.uint8)
        step = rows_per_block(len(ts))
        for r in range(0, len(ss), step):
            _fill_block(out[r:r + step], label, pos[r:r + step])
        return out
    # a block of rows of the transpose is a block of columns of the grid:
    # the label table's columns for those second coordinates
    out = np.empty((len(ts), len(ss)), dtype=np.uint8)
    step = rows_per_block(len(ss))
    for r in range(0, len(ts), step):
        cols = label[:, r:r + step]
        part = np.empty((len(ss), cols.shape[1]), dtype=np.uint8)
        _fill_block(part, cols, pos)
        out[r:r + step] = part.T
    return out


def _fill_block(dest: np.ndarray, label: np.ndarray, pos: np.ndarray) -> None:
    """``dest[a, b]`` = the parity of position row ``pos[a]`` against
    label column ``label[:, b]``."""
    dest[...] = 1
    for i in range(pos.shape[1]):
        dest ^= label[pos[:, i]] == i


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
    if isinstance(t, Decomposition):
        return tuple(frozenset(b.elems) for b in t.blocks)
    if not t:
        return ()
    return tuple(frozenset(b) for b in _decompose_elems(t.elems))
