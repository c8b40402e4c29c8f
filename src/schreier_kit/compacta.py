"""Finite 0/1 snapshots of the kernel compacta, plus separation tools.

A K-mode matrix at level alpha rows out the base family (cube(n,n) or
schreier) against columns from the product family (prod(schreier,cube(n,n))
or S2), both optionally restricted to an index set and truncated to
[1..bound]; the entry is the parity kernel of the pair.  L-mode swaps the
roles, so each row is one kernel function of the second coordinate.

Both modes fill the grid, one bit per entry, with one packed
``kernel.parity_matrix`` call (L-mode asks for the transposed layout):
each packed row of the grid is XOR-ed together from a few rows of a packed
incidence table, in both layouts by the same loop, so no entry costs a
Python call or a byte of its own.  ``build_matrix`` refuses a grid of more
than ``_GRID_LIMIT`` entries after enumerating its rows and columns and
before filling it.  The fill works in blocks of a fixed number of bytes,
and the CSV, PBM and JSON writers render pieces of about 128 KiB,
each block of rows looked up byte by byte in a 256-row digit table of
the format and copied into the one byte buffer of the export, with only
the set labels formatted per row, from one table of element strings per
export (``ElementStrings``); the CSV header's labels go out in pieces
too (``comma_pieces``).  So the packed grid is the only
full-size array a matrix export holds, besides its sets, and one piece
is all it holds of the text: ``write`` sends the text out piece by
piece, and ``to_csv``/``to_pbm`` join the same pieces.  The equal-row
report compares packed rows: the padding bits are zero, so two rows are
equal exactly when their packed forms are.

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
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .family import (SCHREIER, All, IndexSet, Powers, base_family,
                     enumerate_members, member, product_family, restricted)
from .finset import FinSet
from .kernel import (Decomposition, decompose, parity, parity_matrix,
                     rows_per_block)


@dataclass(frozen=True, eq=False)
class ThetaMatrix:
    mode: str                       # "K" (rows from the base family) or "L"
    alpha: object                   # level: int >= 1 or "w"
    index: IndexSet
    row_bound: int
    col_bound: int
    rows: tuple[FinSet, ...]
    cols: tuple[FinSet, ...]
    bits: np.ndarray = field(repr=False)   # entries of each row, packed by
                                           # ``np.packbits``, padding zero

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    @property
    def entries(self) -> np.ndarray:
        """The 0/1 grid, a fresh uint8 array of shape ``shape``."""
        return np.unpackbits(self.bits, axis=1, count=len(self.cols))


# The most entries a ``build_matrix`` grid may have: one GB packed, with
# two bytes of CSV per entry.  The enumerations stop at 100,000 sets per
# side, so every level-w grid fits: in fresh ``compacta inject`` processes
# on a 2-core VM, the largest, K 23x18 and L 18x23 (75,025 x 90,897 =
# 6.8e9 entries), take 2.4 and 3.5 s and peak at 895 and 917 MB.  At
# level 2, K 447x18 (99,682 x 86,294 = 8.6e9) took 5.6 s and 1,132 MB.
_GRID_LIMIT = 8 * 10**9


def build_matrix(mode: str, alpha, index: IndexSet = All(),
                 row_bound: int = 8, col_bound: int = 8) -> ThetaMatrix:
    """The ``mode`` matrix at level ``alpha`` over ``index``; refused with
    a ValueError past ``_GRID_LIMIT`` entries, before any is filled."""
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
    if len(rows) * len(cols) > _GRID_LIMIT:
        raise ValueError(f"the matrix would have {len(rows)} x {len(cols)} "
                         f"entries, more than {_GRID_LIMIT}; lower --rows "
                         "or --cols")
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
        bits = parity_matrix(rows, cols, packed=True)
    else:
        bits = parity_matrix(cols, rows, transposed=True, packed=True)
    return ThetaMatrix(mode=mode, alpha=alpha, index=index,
                       row_bound=row_bound, col_bound=col_bound,
                       rows=tuple(rows), cols=tuple(cols), bits=bits)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


# Bytes of grid text per piece of ``_pieces``: one piece's buffer, its text
# and (for CSV) its labelled rows are about this size, however large the
# grid.  On the bench's matrix workload, pieces of 64 to 256 KiB read the
# same time and peak; pieces of a mebibyte raise its peak by 4.5 MB.
_PIECE_BYTES = 1 << 17

# Bytes per label in a piece of ``comma_pieces``: a label string of up to
# about 70 characters, with its object header and list slot, takes at most
# 128 bytes, so a piece of labels holds about ``_PIECE_BYTES`` too.
_LABEL_BYTES = 128

# Per format, the bytes before a row's digits, between two digits and after
# the last digit.  A JSON row ends in a comma, which the last row drops.
_ROW_LAYOUT = {"csv": (b"", b",", b"\n"), "pbm": (b"", b" ", b"\n"),
               "json": (b"[", b",", b"],")}


def _digit_table(sep: np.ndarray) -> np.ndarray:
    """The (256, 16) uint8 table whose row b holds the 8 digits of the
    packed byte b, in ``np.packbits`` order, each followed by ``sep``."""
    table = np.empty((256, 8, 2), dtype=np.uint8)
    table[:, :, 0] = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                                   axis=1) + ord("0")
    table[:, :, 1] = sep
    return table.reshape(256, 16)


class ElementStrings(dict):
    """The ``str`` of each element, made on first use.  One table serves
    one export, so an element that many set labels share is converted
    once."""

    def __missing__(self, m: int) -> str:
        text = self[m] = str(m)
        return text


def _pieces(m: ThetaMatrix, fmt: str) -> Iterator[str]:
    """The CSV, PBM or JSON text of ``m`` as a header, blocks of rows and
    (for JSON) a footer; JSON is the array of the rows' digit arrays.

    Each block of packed rows is rendered by one ``np.take`` from the
    format's digit table (``_digit_table``), each byte of the grid
    becoming its 8 digits and their separators; the first 2w - 1 of each
    row go into the leading rows of one uint8 buffer, allocated once per
    call with every row's lead and end, and the block is decoded once.
    CSV puts each row's set label in front, and its labels read one
    table of element strings (``ElementStrings``).
    """
    if fmt not in _ROW_LAYOUT:
        raise ValueError(f"format must be 'csv', 'pbm' or 'json', got {fmt!r}")
    h, w = m.shape
    if fmt == "csv":
        # each label is ``FinSet.csv_cell``, its elements' strings shared
        get = ElementStrings().__getitem__
        yield ","
        yield from comma_pieces(" ".join(map(get, t.elems)) for t in m.cols)
        yield "\n"
    elif fmt == "pbm":
        yield f"P1\n{w} {h}\n"
    else:
        yield "["
    lead, sep, end = (np.frombuffer(x, dtype=np.uint8)
                      for x in _ROW_LAYOUT[fmt])
    table = _digit_table(sep)
    text_len = max(2 * w - 1, 0)    # digits and the separators between
    digits = slice(len(lead), len(lead) + text_len)
    width = digits.stop + len(end)
    step = max(1, _PIECE_BYTES // width)
    # leads and ends are written once; each block overwrites the digits
    # of the buffer's leading rows with the first 2w - 1 bytes of each
    # gathered row, its digits and the separators between them
    buf = np.empty((min(step, h), width), dtype=np.uint8)
    buf[:, :len(lead)] = lead
    buf[:, width - len(end):] = end
    nbytes = m.bits.shape[1]
    gathered = np.empty((len(buf), nbytes, 16), dtype=np.uint8)
    flat = gathered.reshape(len(buf), nbytes * 16)
    for r in range(0, h, step):
        n = min(step, h - r)
        # mode "clip" writes straight into ``out``; "raise" buffers it
        np.take(table, m.bits[r:r + n], axis=0, out=gathered[:n], mode="clip")
        rows = buf[:n]
        rows[:, digits] = flat[:n, :text_len]
        text = str(rows.data, "ascii")
        if fmt == "csv":
            text = "".join(" ".join(map(get, s.elems)) + ","
                           + text[k * width:(k + 1) * width]
                           for k, s in enumerate(m.rows[r:r + n]))
        elif fmt == "json" and r + step >= h:
            text = text[:-1]
        yield text
    if fmt == "json":
        yield "]"


def comma_pieces(labels: Iterable[str]) -> Iterator[str]:
    """``",".join(labels)`` in pieces of ``_PIECE_BYTES // _LABEL_BYTES``
    labels, so that no string or list of them all is built."""
    labels = iter(labels)
    lead = ""
    while part := list(islice(labels, max(1, _PIECE_BYTES // _LABEL_BYTES))):
        yield lead + ",".join(part)
        lead = ","


def to_csv(m: ThetaMatrix) -> str:
    """First row and first column carry the set labels as space-separated
    elements (empty cell for the empty set)."""
    return "".join(_pieces(m, "csv"))


def to_pbm(m: ThetaMatrix) -> str:
    """Plain PBM (P1) bitmap of the 0/1 entries."""
    return "".join(_pieces(m, "pbm"))


def write(m: ThetaMatrix, fmt: str, out) -> None:
    """Write the ``to_csv`` (``fmt`` "csv") or ``to_pbm`` ("pbm") text of
    ``m``, or ("json") the compact JSON array of its rows of 0/1 entries,
    to ``out`` a piece at a time, never holding all of it."""
    for piece in _pieces(m, fmt):
        out.write(piece)
        del piece  # let go of it before the next one is made


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
    # packed rows grouped by a hash of their bytes, each match confirmed
    # against the first row of its class, so no copy of a row outlives its
    # hashing; classes open in row order, which is their sorted order
    by_hash: dict[int, list[list[int]]] = {}
    classes: list[list[int]] = []
    for i, row in enumerate(m.bits):
        bucket = by_hash.setdefault(hash(row.tobytes()), [])
        for cls in bucket:
            if np.array_equal(m.bits[cls[0]], row):
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
    only) element at the first divergence point.  Each set's exponents and
    each witness with its decomposition are built once (``_exponents``,
    ``_dyadic``); the refusals and the separation check run on every call.
    """
    if s0 == s1:
        raise ValueError("the two sets must differ")
    e0, e1 = _exponents(s0.elems), _exponents(s1.elems)
    k = 0
    while k < len(e0) and k < len(e1) and e0[k] == e1[k]:
        k += 1
    if k == len(e0):
        chosen = e1          # s0 is a proper prefix: only s1 has a k-th element
    elif k == len(e1):
        chosen = e0
    else:
        chosen = e0 if e0[k] < e1[k] else e1
    t, d = _dyadic(chosen[:k + 1])
    if parity(s0, d) == parity(s1, d):
        raise AssertionError(f"witness failed to separate {s0} and {s1}")
    return t


# Entries kept by each witness memo: ``_exponents`` keeps one per set of
# powers, ``_dyadic`` one witness and its decomposition per exponent
# prefix; a refusal raises and is not kept.  `verify --max 8` makes 6,481
# witness calls on 108 sets and 107 prefixes, uncapped `verify` 36,214 on
# 267 sets and 266 prefixes, so 1,024 entries hold either.
_WITNESS_MEMO = 1 << 10


@lru_cache(maxsize=_WITNESS_MEMO)
def _exponents(elems: tuple[int, ...]) -> tuple[int, ...]:
    """The exponents of a schreier set of powers of two, in order."""
    s = FinSet(elems)
    if not member(SCHREIER, s):
        raise ValueError(f"{s} is not schreier")
    if not all(map(Powers(2).contains, elems)):
        raise ValueError(f"{s} is not a set of powers of two")
    return tuple(m.bit_length() - 1 for m in elems)


@lru_cache(maxsize=_WITNESS_MEMO)
def _dyadic(exps: tuple[int, ...]) -> tuple[FinSet, Decomposition]:
    """The union of the intervals [2^e, 2^(e+1)-1] and its decomposition."""
    # the exponents increase, so the intervals come in order and are disjoint
    t = FinSet(tuple(chain.from_iterable(range(1 << e, 1 << (e + 1))
                                         for e in exps)))
    return t, decompose(t)


def _schreier_tuples(bound: int) -> Iterator[tuple[int, ...]]:
    """The element tuples of ``schreier_sets_upto``, in the same order and
    lazily: ``enumerate_members`` holds every set and refuses past 100,000,
    and `compacta search --t0 "{1000000}"` walks 10**6 singleton rows."""
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
# takes twice as many, up to one block of its unpacked rows
# (``kernel.rows_per_block``).
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
    empty or decompose, whatever the bound.  A negative bound is refused.
    """
    if bound < 0:
        raise ValueError(f"the search bound must be >= 0, got {bound}")
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
