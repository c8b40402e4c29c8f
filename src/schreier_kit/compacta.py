"""Finite 0/1 snapshots of the kernel compacta, plus separation tools.

A K-mode matrix at level alpha rows out the base family (cube(n,n) or
schreier) against columns from the product family (prod(schreier,cube(n,n))
or S2), both optionally restricted to an index set and truncated to
[1..bound]; the entry is the parity kernel of the pair.  L-mode swaps the
roles, so each row is one kernel function of the second coordinate.

Both modes fill the grid, one byte per entry, with one
``kernel.parity_matrix`` call (L-mode asks for the transposed layout): a
label table of the second coordinates' block indices is gathered once per
position of the first coordinates, so no entry costs a Python call.  The
fill works in blocks of a fixed number of entries, and the CSV and PBM
writers render pieces of about a mebibyte, each block of rows from one
byte buffer with only the set labels formatted per row.  So the grid is
the only full-size array a matrix export holds: ``write`` sends the text
out piece by piece, and ``to_csv``/``to_pbm`` join the same pieces.

Separators are found on grids too, by one search path: ``first_separators``
takes schreier rows in length-then-lex order, a growing chunk at a time,
fills one ``parity_matrix`` grid per chunk against a shared column list,
and keeps for each pair of columns the first row where they differ.
``distinguishing_search`` is its one-pair call.  Its default bound,
max(max t0, max t1), is proved to hold the first separator whenever one
exists (see ``default_search_bound``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .family import (SCHREIER, All, IndexSet, base_family, enumerate_members,
                     member, product_family, restricted)
from .finset import FinSet
from .kernel import decompose, parity, parity_matrix, rows_per_block


@dataclass(frozen=True, eq=False)
class ThetaMatrix:
    mode: str                       # "K" (rows from the base family) or "L"
    alpha: object                   # level: int >= 1 or "w"
    index: IndexSet
    row_bound: int
    col_bound: int
    rows: tuple[FinSet, ...]
    cols: tuple[FinSet, ...]
    entries: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))


def build_matrix(mode: str, alpha, index: IndexSet = All(),
                 row_bound: int = 8, col_bound: int = 8) -> ThetaMatrix:
    if mode not in ("K", "L"):
        raise ValueError(f"mode must be 'K' or 'L', got {mode!r}")
    base = restricted(base_family(alpha), index)
    prod = restricted(product_family(alpha), index)
    if mode == "K":
        rows = enumerate_members(base, row_bound)
        cols = enumerate_members(prod, col_bound)
    else:
        rows = enumerate_members(prod, row_bound)
        cols = enumerate_members(base, col_bound)
    return _fill(mode, alpha, index, row_bound, col_bound, rows, cols)


def matrix_from_sets(mode: str, rows: list[FinSet],
                     cols: list[FinSet]) -> ThetaMatrix:
    """A kernel matrix over explicit row and column sets (the second
    coordinate side must decompose), labelled level w over all."""
    if mode not in ("K", "L"):
        raise ValueError(f"mode must be 'K' or 'L', got {mode!r}")
    row_bound = max((s.max_or_0 for s in rows), default=0)
    col_bound = max((t.max_or_0 for t in cols), default=0)
    return _fill(mode, "w", All(), row_bound, col_bound, list(rows), list(cols))


def _fill(mode, alpha, index, row_bound, col_bound, rows, cols) -> ThetaMatrix:
    if mode == "K":
        entries = parity_matrix(rows, cols)
    else:
        entries = parity_matrix(cols, rows, transposed=True)
    return ThetaMatrix(mode=mode, alpha=alpha, index=index,
                       row_bound=row_bound, col_bound=col_bound,
                       rows=tuple(rows), cols=tuple(cols), entries=entries)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


# Bytes of grid text per piece of ``_pieces``: one piece's buffer, its text
# and (for CSV) its labelled rows are this size, however large the grid.
_PIECE_BYTES = 1 << 20


def _pieces(m: ThetaMatrix, fmt: str) -> Iterator[str]:
    """The CSV or PBM text of ``m`` as a header and then blocks of rows.

    Each block is rendered in one uint8 buffer holding, per row, every
    digit followed by its separator, the last separator being the newline,
    and decoded once; CSV then puts each row's set label in front.
    """
    h, w = m.entries.shape
    if fmt == "csv":
        yield "," + ",".join(t.csv_cell() for t in m.cols) + "\n"
    else:
        yield f"P1\n{w} {h}\n"
    sep = ord("," if fmt == "csv" else " ")
    width = max(2 * w, 1)   # a row of no columns is its newline alone
    step = max(1, _PIECE_BYTES // width)
    for r in range(0, h, step):
        block = m.entries[r:r + step]
        buf = np.empty((len(block), width), dtype=np.uint8)
        np.add(block, ord("0"), out=buf[:, :2 * w:2])
        buf[:, 1:2 * w:2] = sep
        buf[:, -1] = ord("\n")
        text = str(buf.data, "ascii")
        if fmt == "csv":
            text = "".join(s.csv_cell() + "," + text[k * width:(k + 1) * width]
                           for k, s in enumerate(m.rows[r:r + step]))
        yield text


def to_csv(m: ThetaMatrix) -> str:
    """First row and first column carry the set labels as space-separated
    elements (empty cell for the empty set)."""
    return "".join(_pieces(m, "csv"))


def to_pbm(m: ThetaMatrix) -> str:
    """Plain PBM (P1) bitmap of the 0/1 entries."""
    return "".join(_pieces(m, "pbm"))


def write(m: ThetaMatrix, fmt: str, out) -> None:
    """Write the ``to_csv`` (``fmt`` "csv") or ``to_pbm`` ("pbm") text of
    ``m`` to ``out`` a piece at a time, never holding all of it."""
    for piece in _pieces(m, fmt):
        out.write(piece)


# ---------------------------------------------------------------------------
# row injectivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InjectivityReport:
    classes: tuple[tuple[int, ...], ...]   # row indices, grouped by equal rows
    truncation_artifact: tuple[bool, ...]  # per class with > 1 rows: any row
                                           # reads beyond the column truncation
    col_bound: int

    @property
    def collision_classes(self) -> list[tuple[int, ...]]:
        return [c for c in self.classes if len(c) > 1]

    @property
    def all_distinct(self) -> bool:
        return not self.collision_classes


def injectivity_report(m: ThetaMatrix) -> InjectivityReport:
    # rows grouped by a hash of their bytes, each match confirmed against
    # the first row of its class, so no copy of a row outlives its hashing;
    # classes open in row order, which is their sorted order
    by_hash: dict[int, list[list[int]]] = {}
    classes: list[list[int]] = []
    for i, row in enumerate(m.entries):
        bucket = by_hash.setdefault(hash(row.tobytes()), [])
        for cls in bucket:
            if np.array_equal(m.entries[cls[0]], row):
                cls.append(i)
                break
        else:
            bucket.append([i])
            classes.append(bucket[-1])
    flags = []
    for cls in classes:
        # a row whose label reaches past every column's view cannot be told
        # apart at this truncation; such duplicates are expected
        artifact = len(cls) > 1 and any(
            m.rows[i].max_or_0 > m.col_bound for i in cls)
        flags.append(artifact)
    return InjectivityReport(classes=tuple(tuple(c) for c in classes),
                             truncation_artifact=tuple(flags),
                             col_bound=m.col_bound)


# ---------------------------------------------------------------------------
# witnesses and separators
# ---------------------------------------------------------------------------


def powers_witness(s0: FinSet, s1: FinSet) -> FinSet:
    """For distinct schreier sets of powers of two, a second coordinate
    made of dyadic intervals [2^i, 2^(i+1)-1] on which the kernel differs.

    The intervals follow the exponents of the set holding the smaller (or
    only) element at the first divergence point.
    """
    if s0 == s1:
        raise ValueError("the two sets must differ")
    exps = []
    for s in (s0, s1):
        if not member(SCHREIER, s):
            raise ValueError(f"{s} is not schreier")
        es = []
        for m in s:
            e = m.bit_length() - 1
            if 1 << e != m:
                raise ValueError(f"{s} is not a set of powers of two")
            es.append(e)
        exps.append(es)
    e0, e1 = exps
    k = 0
    while k < len(e0) and k < len(e1) and e0[k] == e1[k]:
        k += 1
    if k == len(e0):
        chosen = e1          # s0 is a proper prefix: only s1 has a k-th element
    elif k == len(e1):
        chosen = e0
    else:
        chosen = e0 if e0[k] < e1[k] else e1
    # the exponents increase, so the intervals come in order and are disjoint
    t = FinSet(tuple(chain.from_iterable(range(1 << e, 1 << (e + 1))
                                         for e in chosen[:k + 1])))
    d = decompose(t)
    if parity(s0, d) == parity(s1, d):
        raise AssertionError(f"witness failed to separate {s0} and {s1}")
    return t


def _schreier_tuples(bound: int) -> Iterator[tuple[int, ...]]:
    """The element tuples of ``schreier_sets_upto``, in the same order."""
    yield ()
    # the singletons one at a time: ``combinations`` holds its whole pool,
    # so a size-k pool of bound-k+1 elements is built only after the
    # ``bound`` singletons have been yielded
    yield from zip(range(1, bound + 1))
    for k in range(2, bound + 1):
        # size-k schreier sets are exactly the k-subsets of [k..bound]
        yield from combinations(range(k, bound + 1), k)


def schreier_sets_upto(bound: int) -> Iterator[FinSet]:
    """All schreier sets inside [1..bound] in length-then-lex order."""
    return map(FinSet, _schreier_tuples(bound))


def default_search_bound(t0: FinSet, t1: FinSet) -> int:
    """M = max(max t0, max t1): if t0 and t1 have a separator at all, their
    first one (length-then-lex) has every element <= M.

    Proof.  An element of s above M lies in no block of t0 or t1, so it
    never hits and changes neither kernel value.  Those elements form a
    suffix of s (s is increasing); dropping it leaves a prefix s' with
    parity(s', t0) = parity(s, t0) and parity(s', t1) = parity(s, t1).  s'
    is not empty, since the empty set gives 1 on both sides and separates
    nothing, so s' is schreier: #s' <= #s <= min s = min s'.  So s' is a
    separator, and when s' != s it is shorter, hence earlier in
    length-then-lex order.  The first separator therefore has no element
    above M, and a search within M finds it or proves there is none.
    """
    return max(t0.max_or_0, t1.max_or_0)


# Candidate rows in the first grid of ``first_separators``; each later grid
# takes twice as many, up to one fill block (``kernel.rows_per_block``).
_FIRST_ROWS = 32


def first_separators(ts: Sequence[FinSet],
                     bound: int) -> list[Optional[tuple[int, ...]]]:
    """For each pair (ts[i], ts[j]), i < j, in ``itertools.combinations``
    order, the elements of the first schreier set s (length-then-lex,
    elements <= bound) with parity(s, ts[i]) != parity(s, ts[j]), or None
    when there is none.

    The candidates come in chunks of growing size, each one
    ``parity_matrix`` grid against every column of ``ts``.  A pair leaves
    the search at the first row where its two columns differ, and the
    search ends once no pair is pending.  The result shares the chunks'
    element tuples, so it holds no set per pair.  Every ts[j] must be
    empty or decompose, whatever the bound.
    """
    left, right = np.triu_indices(len(ts), 1)
    found: list[Optional[tuple[int, ...]]] = [None] * len(left)
    pending = np.arange(len(left))
    rows = _schreier_tuples(bound)
    next(rows)  # the empty first coordinate gives 1 on both sides
    size = _FIRST_ROWS
    most = max(size, rows_per_block(len(ts)))
    while pending.size:
        chunk = list(islice(rows, size))
        grid = parity_matrix(chunk, ts)  # decomposes every t, even for no rows
        if chunk:
            # pairs in slices, so the compare temporaries stay block-sized
            step = rows_per_block(len(chunk))
            rest = []
            for lo in range(0, len(pending), step):
                part = pending[lo:lo + step]
                diff = grid[:, left[part]] != grid[:, right[part]]
                hit = diff.any(axis=0)
                for p, r in zip(part[hit].tolist(),
                                diff.argmax(axis=0)[hit].tolist()):
                    found[p] = chunk[r]
                rest.append(part[~hit])
            pending = np.concatenate(rest)
        if len(chunk) < size:
            break
        size = min(2 * size, most)
    return found


def distinguishing_search(t0: FinSet, t1: FinSet,
                          bound: Optional[int] = None) -> Optional[FinSet]:
    """The first schreier set s (length-then-lex, elements <= bound) whose
    kernel values at t0 and t1 differ; None when there is none within the
    bound.  The bound defaults to ``default_search_bound``, within which
    None means no separator exists at all."""
    if t0 == t1:
        raise ValueError("the two sets must differ")
    if bound is None:
        bound = default_search_bound(t0, t1)
    (els,) = first_separators((t0, t1), bound)
    return None if els is None else FinSet(els)
