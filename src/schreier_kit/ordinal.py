"""Ordinals below epsilon_0 in Cantor normal form.

An ordinal is a finite sum  w^e1*c1 + ... + w^er*cr  with ordinal exponents
e1 > e2 > ... > er and integer coefficients ci >= 1.  The empty sum is 0.
Arithmetic is the usual non-commutative ordinal arithmetic restricted to
this carrier; it is closed under + and *.

Values are interned and hashed by identity.  ``+`` keeps an LRU memo of
``_MEMO_SIZE`` entries; a product interns its result once.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

from .finset import Scanner, TextSyntaxError


class OrdinalSyntaxError(TextSyntaxError):
    """Malformed ordinal text."""


# One instance per normal form, keyed by its terms, for as long as anything
# refers to it.
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

# Entries in the ``_add`` memo.  It holds the only strong references to
# most sums: an evicted one leaves the table and is validated again when it
# is rebuilt.  ``verify --max 8`` calls ``_add`` about 87,500 times, most of
# them for the exponent sums of ``_mul``; at 1536 entries the memo answers
# 52,621 of those calls, at 256 entries 43,558, at 16,384 entries 56,071;
# six alternating runs of each size read the same suite times within their
# noise (2-core VM).  ``_mul`` keeps no memo: its ordinal suites ask each
# distinct pair once, and a memo of this size answered 293 of its 28,840
# calls.
_MEMO_SIZE = 1536


class Ordinal:
    """A Cantor normal form, interned: there is one instance per value, so
    ``==`` and the hash are those of identity (``object``'s).  Identity
    hashes differ between processes; nothing printed depends on them."""

    # terms: tuple of (exponent, coefficient), exponents strictly decreasing;
    # tuple order on terms is exactly the Cantor normal form order
    __slots__ = ("terms", "__weakref__")

    def __new__(cls, terms: tuple = ()) -> "Ordinal":
        # outside input is checked on every call, not only on a table miss:
        # ((e, True),) equals ((e, 1),) and would find that value's entry
        _validate(terms)
        return _intern(terms)

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    def __delattr__(self, name):
        raise AttributeError("Ordinal is immutable")

    def __reduce__(self):
        # pickle, copy and deepcopy rebuild through the table
        return (Ordinal, (self.terms,))

    def __lt__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self is not other and self.terms < other.terms

    def __le__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self is other or self.terms <= other.terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def nat(cls, n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("natural expected")
        return ZERO if n == 0 else cls(((ZERO, n),))

    @classmethod
    def omega_power(cls, e: "Ordinal", coeff: int = 1) -> "Ordinal":
        if coeff == 0:
            return ZERO
        return cls(((e, coeff),))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_nat(self) -> bool:
        """True for 0, 1, 2, ... (at most one term, with exponent 0)."""
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    def as_nat(self) -> int:
        if not self.is_nat:
            raise ValueError(f"{self} is not finite")
        return self.terms[0][1] if self.terms else 0

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    def predecessor(self) -> "Ordinal":
        """For a successor a+1 return a.  Errors on 0 and limits."""
        if not self.is_successor:
            raise ValueError(f"{self} is not a successor ordinal")
        e, c = self.terms[-1]
        rest = self.terms[:-1]
        return _intern(rest if c == 1 else rest + ((e, c - 1),))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Ordinal") -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        return _add(self, other)

    def __mul__(self, other: "Ordinal") -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        return _mul(self, other)

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e.is_zero:
                parts.append(str(c))
                continue
            base = "w" if e == ONE else "w^" + _format_exponent(e)
            parts.append(base + (f"*{c}" if c > 1 else ""))
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Ordinal.parse({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Ordinal":
        """Parse ``w^2+w*3+1`` style text.  Non-canonical input (unsorted or
        mergeable terms, zero coefficients) is normalized, never rejected.
        Compound exponents need parentheses except for w-towers: ``w^w^2``
        reads as w^(w^2), while w^(w*2) and w^(w+1) must be written with
        parentheses.  Exponents nest at most 100 deep.
        """
        p = _OrdParser(text)
        x = p.sum()
        p.end()
        return x


def _validate(terms: tuple) -> None:
    """Accept only a tuple of (Ordinal, int >= 1) pairs whose exponents
    strictly decrease; exact types, since a bool or float coefficient
    equals an int one in a table key."""
    if type(terms) is not tuple:
        raise ValueError(f"terms must be a tuple, got {terms!r}")
    prev = None
    for term in terms:
        if type(term) is not tuple or len(term) != 2:
            raise ValueError(f"term must be an (exponent, coefficient) pair, got {term!r}")
        e, c = term
        if type(c) is not int or c < 1:
            raise ValueError(f"coefficient must be a positive int, got {c!r}")
        if type(e) is not Ordinal:
            raise ValueError(f"exponent must be an Ordinal, got {e!r}")
        if prev is not None and not e < prev:
            raise ValueError("exponents must be strictly decreasing")
        prev = e


def _intern(terms: tuple) -> Ordinal:
    """The one instance with these terms; a new value is validated once,
    when it is first built."""
    # read the table's own dict of weak references: its Python-level get()
    # costs about as much as the addition it would serve
    ref = _TABLE.data.get(terms)
    x = ref() if ref is not None else None
    if x is None:
        _validate(terms)
        x = object.__new__(Ordinal)
        object.__setattr__(x, "terms", terms)
        _TABLE[terms] = x
    return x


@lru_cache(maxsize=_MEMO_SIZE)
def _add(a: Ordinal, b: Ordinal) -> Ordinal:
    if not b.terms:
        return a
    if not a.terms:
        return b
    f = b.terms[0][0]
    # terms of a with exponent > f survive; one with exponent == f merges
    keep = 0
    while keep < len(a.terms) and f < a.terms[keep][0]:
        keep += 1
    head = a.terms[:keep]
    if keep < len(a.terms) and a.terms[keep][0] is f:
        merged = ((f, a.terms[keep][1] + b.terms[0][1]),)
        return _intern(head + merged + b.terms[1:])
    return _intern(head + b.terms) if keep else b  # else b absorbs a


def _mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """With a = w^e1*c1 + rest, a term w^f*d of b gives w^(e1+f)*d for f > 0
    and w^e1*(c1*d) + rest for f = 0.  Left addition is strictly monotone, so
    these parts only concatenate: the terms are built in one pass and
    interned once."""
    if not a.terms or not b.terms:
        return ZERO
    e1, c1 = a.terms[0]
    terms = tuple([(_add(e1, f), d) for f, d in b.terms if f is not ZERO])
    if b.terms[-1][0] is ZERO:
        terms += ((e1, c1 * b.terms[-1][1]),) + a.terms[1:]
    return _intern(terms)


def _format_exponent(e: Ordinal) -> str:
    # bare form only for naturals and single w-power towers with coefficient 1
    if e.is_nat:
        return str(e.as_nat())
    if len(e.terms) == 1 and e.terms[0][1] == 1:
        f = e.terms[0][0]
        return "w" if f == ONE else "w^" + _format_exponent(f)
    return "(" + str(e) + ")"


class _OrdParser(Scanner):
    error = OrdinalSyntaxError

    def sum(self) -> Ordinal:
        out = self.term()
        while self.take("+"):
            out = out + self.term()
        return out

    def term(self) -> Ordinal:
        if self.take("w"):
            e = self.exponent() if self.take("^") else ONE
            return Ordinal.omega_power(e, self.nat() if self.take("*") else 1)
        if "0" <= self.peek() <= "9":
            return Ordinal.nat(self.nat())
        self.err("expected 'w' or a natural number")

    def exponent(self) -> Ordinal:
        self.nest("ordinal")
        if self.take("("):
            e = self.sum()
            self.expect(")")
        elif self.take("w"):
            e = Ordinal.omega_power(self.exponent()) if self.take("^") else OMEGA
        elif "0" <= self.peek() <= "9":
            e = Ordinal.nat(self.nat())
        else:
            self.err("expected an exponent")
        self.depth -= 1
        return e


ZERO = Ordinal()
ONE = Ordinal.nat(1)
OMEGA = Ordinal(((ONE, 1),))
