"""Finite subsets of {1, 2, 3, ...} kept as strictly increasing tuples."""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


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

    def appended(self, m: int) -> "FinSet":
        """self with ``m`` added above its maximum.  Only ``m`` is checked:
        it must be an integer greater than every element (and >= 1), so a
        set grown from a checked one, an element at a time, checks each
        element once."""
        if type(m) is not int or m <= (self.elems[-1] if self.elems else 0):
            raise ValueError(f"can only append an integer above "
                             f"{self.max_or_0}, got {m!r}")
        grown = object.__new__(FinSet)
        object.__setattr__(grown, "elems", self.elems + (m,))
        return grown

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
        """Accepts "{2,5,8}", "{}" and the empty-set glyph; anything else
        raises a ``TextSyntaxError`` that starts "not a set literal"."""
        p = Scanner(text, "not a set literal: ")
        s = cls() if p.take("∅") else p.set_literal()
        p.end()
        return s

    def csv_cell(self) -> str:
        """Space-separated elements; empty string for the empty set."""
        return " ".join(str(m) for m in self.elems)


EMPTY = FinSet()


class TextSyntaxError(ValueError):
    """Malformed input text.  ``offset`` is the 1-based byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


# Deeper nesting is refused at parse time; it would otherwise run the
# recursive parsers, and the routines that read what they build, out of
# stack.
_MAX_NESTING = 100

_WORD = re.compile(r"[A-Za-z0-9_]*")
_DIGITS = re.compile(r"[0-9]+")


class Scanner:
    """The one lexer of every input grammar: set literals, family and
    index expressions, ordinals and matrix levels.  Blanks (space and tab)
    may separate tokens, words are ASCII letters, digits and ``_``, numbers
    are ASCII digits; every error carries the byte offset where it is met.
    Each grammar subclasses it and names its own ``error``."""

    error = TextSyntaxError

    def __init__(self, text: str, context: str = ""):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.context = context  # prefix of every error message

    def err(self, message: str, at: Optional[int] = None):
        """Raise ``error`` at ``at`` (default the cursor).  Text decoded
        from command-line bytes maps undecodable bytes to lone surrogates;
        ``surrogateescape`` counts each as the one byte it came from."""
        head = self.text[:self.pos if at is None else at]
        raise self.error(self.context + message,
                         len(head.encode(errors="surrogateescape")) + 1)

    def peek(self) -> str:
        """The next character after any blanks, or "" at the end."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos] in " \t":
            pos += 1
        self.pos = pos
        return text[pos] if pos < len(text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.take(ch):
            self.err(f"expected {ch!r}")

    def word(self) -> str:
        self.peek()
        start = self.pos
        self.pos = _WORD.match(self.text, start).end()
        return self.text[start:self.pos]

    def nat(self, low: int = 0, message: str = "") -> int:
        """A natural number >= low; a smaller one raises ``message`` at
        its offset."""
        self.peek()
        start = self.pos
        m = _DIGITS.match(self.text, start)
        if m is None:
            self.err("expected a natural number")
        self.pos = m.end()
        try:
            n = int(m.group())
        except ValueError:  # past the interpreter's int-string digit limit
            self.err("natural number too long", start)
        if n < low:
            self.err(message, start)
        return n

    def set_literal(self) -> FinSet:
        """``{n, ...}`` with every element >= 1, in any order."""
        self.expect("{")
        items = []
        if not self.take("}"):
            items.append(self.nat(1, "set elements must be >= 1"))
            while self.take(","):
                items.append(self.nat(1, "set elements must be >= 1"))
            self.expect("}")
        return FinSet.of(items)

    def nest(self, what: str, at: Optional[int] = None) -> None:
        """Enter one more nesting level; the caller leaves it with
        ``depth -= 1``.  Level ``_MAX_NESTING + 1`` is refused at ``at``."""
        if self.depth == _MAX_NESTING:
            self.err(f"{what} nested deeper than {_MAX_NESTING} levels", at)
        self.depth += 1

    def end(self) -> None:
        if self.peek():
            self.err("unexpected trailing input")


def interval(a: int, b: int) -> FinSet:
    """The set {a, a+1, ..., b}; empty when b < a.  Requires a >= 1."""
    if a < 1:
        raise ValueError("interval start must be >= 1")
    return FinSet(tuple(range(a, b + 1)))
