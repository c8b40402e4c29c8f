"""Finite subsets of {1, 2, 3, ...} kept as strictly increasing tuples."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class FinSet:
    """An immutable finite set of positive integers in increasing order."""

    elems: tuple[int, ...] = ()

    def __post_init__(self):
        prev = 0
        for m in self.elems:
            if type(m) is not int or m < 1:  # bool is an int subclass
                raise ValueError(f"elements must be integers >= 1, got {m!r}")
            if m <= prev:
                raise ValueError("elements must be strictly increasing")
            prev = m

    @classmethod
    def of(cls, items: Iterable[int]) -> "FinSet":
        return cls(tuple(sorted(set(items))))

    # -- container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elems)

    def __bool__(self) -> bool:
        return bool(self.elems)

    def __contains__(self, m: int) -> bool:
        i = bisect_left(self.elems, m)
        return i < len(self.elems) and self.elems[i] == m

    # -- accessors -------------------------------------------------------

    @property
    def min(self) -> int:
        if not self.elems:
            raise ValueError("empty set has no minimum")
        return self.elems[0]

    @property
    def max(self) -> int:
        if not self.elems:
            raise ValueError("empty set has no maximum")
        return self.elems[-1]

    @property
    def max_or_0(self) -> int:
        """max for nonempty sets, 0 for the empty set (never serialized)."""
        return self.elems[-1] if self.elems else 0

    # -- set algebra -------------------------------------------------------

    def union(self, other: "FinSet") -> "FinSet":
        return FinSet.of(self.elems + other.elems)

    def __or__(self, other: "FinSet") -> "FinSet":
        return self.union(other)

    def with_element(self, m: int) -> "FinSet":
        if m in self:
            return self
        return FinSet.of(self.elems + (m,))

    def issubset(self, other: "FinSet") -> bool:
        return all(m in other for m in self.elems)

    def restrict_to(self, bound: int) -> "FinSet":
        """Intersection with [1..bound]."""
        return FinSet(tuple(m for m in self.elems if m <= bound))

    def precedes(self, other: "FinSet") -> bool:
        """Every element of self lies strictly below every element of other.

        True when self is empty (for any other, including the empty set);
        false when self is nonempty and other is empty.
        """
        if not self.elems:
            return True
        return bool(other.elems) and self.elems[-1] < other.elems[0]

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.elems:
            return "∅"
        return "{" + ",".join(str(m) for m in self.elems) + "}"

    def __repr__(self) -> str:
        return f"FinSet({self.elems!r})"

    @classmethod
    def parse(cls, text: str) -> "FinSet":
        """Accepts "{2,5,8}", "{}" and the empty-set glyph."""
        t = text.strip()
        if t in ("∅", "{}"):
            return cls()
        if not (t.startswith("{") and t.endswith("}")):
            raise ValueError(f"not a set literal: {text!r}")
        body = t[1:-1].strip()
        if not body:
            return cls()
        try:
            items = [int(p.strip()) for p in body.split(",")]
        except ValueError:
            raise ValueError(f"not a set literal: {text!r}") from None
        return cls.of(items)

    def csv_cell(self) -> str:
        """Space-separated elements; empty string for the empty set."""
        return " ".join(str(m) for m in self.elems)

    @classmethod
    def from_csv_cell(cls, cell: str) -> "FinSet":
        parts = cell.split()
        return cls.of(int(p) for p in parts)


EMPTY = FinSet()


def interval(a: int, b: int) -> FinSet:
    """The set {a, a+1, ..., b}; empty when b < a.  Requires a >= 1."""
    if a < 1:
        raise ValueError("interval start must be >= 1")
    return FinSet(tuple(range(a, b + 1)))
