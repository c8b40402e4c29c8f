"""Finite 0/1 snapshots of the kernel compacta, plus separation tools.

A K-mode matrix at level alpha rows out the base family (cube(n,n) or
schreier) against columns from the product family (prod(schreier,cube(n,n))
or S2), both optionally restricted to an index set and truncated to
[1..bound]; the entry is the parity kernel of the pair.  L-mode swaps the
roles, so each row is one kernel function of the second coordinate.

Both modes fill the whole grid with one ``kernel.parity_matrix`` call (the
L-mode grid is its transpose): a label table of the second coordinates'
block indices is gathered once per position of the first coordinates,
so no entry costs a Python call.  The CSV and PBM writers render the 0/1
grid from one byte buffer; only the set labels are formatted per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .family import (SCHREIER, All, IndexSet, base_family, enumerate_members,
                     member, product_family, restricted)
from .finset import FinSet, interval
from .kernel import (block_sets, _parity_blocks, decompose, parity,
                     parity_matrix)


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


def matrix_from_sets(mode: str, rows: list[FinSet], cols: list[FinSet],
                     alpha="w", index: IndexSet = All(),
                     col_bound: Optional[int] = None) -> ThetaMatrix:
    """A kernel matrix over explicit row and column sets (the second
    coordinate side must decompose)."""
    if mode not in ("K", "L"):
        raise ValueError(f"mode must be 'K' or 'L', got {mode!r}")
    row_bound = max((s.max_or_0 for s in rows), default=0)
    if col_bound is None:
        col_bound = max((t.max_or_0 for t in cols), default=0)
    return _fill(mode, alpha, index, row_bound, col_bound, list(rows), list(cols))


def _fill(mode, alpha, index, row_bound, col_bound, rows, cols) -> ThetaMatrix:
    if mode == "K":
        entries = parity_matrix(rows, cols)
    else:
        entries = np.ascontiguousarray(parity_matrix(cols, rows).T)
    return ThetaMatrix(mode=mode, alpha=alpha, index=index,
                       row_bound=row_bound, col_bound=col_bound,
                       rows=tuple(rows), cols=tuple(cols), entries=entries)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _grid_rows(entries: np.ndarray, sep: str) -> list[str]:
    """Each row of a 0/1 grid as its digits joined by ``sep`` ("" for a
    row of no columns), rendered from one byte buffer."""
    h, w = entries.shape
    cells = np.empty((h, w, 2), dtype=np.uint8)
    cells[:, :, 0] = entries + ord("0")
    cells[:, :, 1] = ord(sep)
    # drop the separator after each row's last digit
    grid = cells.reshape(h, 2 * w)[:, :-1]
    text, n = grid.tobytes().decode("ascii"), grid.shape[1]
    return [text[i * n:(i + 1) * n] for i in range(h)]


def to_csv(m: ThetaMatrix) -> str:
    """First row and first column carry the set labels as space-separated
    elements (empty cell for the empty set)."""
    lines = ["," + ",".join(t.csv_cell() for t in m.cols)]
    for s, row in zip(m.rows, _grid_rows(m.entries, ",")):
        lines.append(s.csv_cell() + "," + row)
    return "\n".join(lines) + "\n"


def to_pbm(m: ThetaMatrix) -> str:
    """Plain PBM (P1) bitmap of the 0/1 entries."""
    h, w = m.entries.shape
    return "\n".join(["P1", f"{w} {h}"] + _grid_rows(m.entries, " ")) + "\n"


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
    by_row: dict[bytes, list[int]] = {}
    for i in range(len(m.rows)):
        by_row.setdefault(m.entries[i].tobytes(), []).append(i)
    classes = sorted(by_row.values())
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
    t = FinSet()
    for e in chosen[:k + 1]:
        t = t | interval(1 << e, (1 << (e + 1)) - 1)
    d = decompose(t)
    if parity(s0, d) == parity(s1, d):
        raise AssertionError(f"witness failed to separate {s0} and {s1}")
    return t


def schreier_sets_upto(bound: int, max_size: Optional[int] = None):
    """All schreier sets inside [1..bound] in length-then-lex order."""
    from itertools import combinations

    top = bound if max_size is None else min(max_size, bound)
    yield FinSet()
    for k in range(1, top + 1):
        # size-k schreier sets are exactly the k-subsets of [k..bound]
        for els in combinations(range(k, bound + 1), k):
            yield FinSet(els)


def default_search_bound(t0: FinSet, t1: FinSet) -> int:
    """Heuristic ceiling 2*max+2 for separator elements; adequate in every
    sweep run here but carries no proof."""
    return 2 * max(t0.max_or_0, t1.max_or_0) + 2


def distinguishing_search(t0: FinSet, t1: FinSet,
                          bound: Optional[int] = None) -> Optional[FinSet]:
    """The first schreier set s (length-then-lex, elements <= bound) whose
    kernel values at t0 and t1 differ; None when the bound is too tight."""
    if t0 == t1:
        raise ValueError("the two sets must differ")
    b0 = block_sets(decompose(t0)) if t0 else ()
    b1 = block_sets(decompose(t1)) if t1 else ()
    if bound is None:
        bound = default_search_bound(t0, t1)
    for s in schreier_sets_upto(bound):
        if not s:
            continue  # the kernel is 1 at the empty first coordinate, always
        if _parity_blocks(s.elems, b0) != _parity_blocks(s.elems, b1):
            return s
    return None
