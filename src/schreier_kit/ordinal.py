"""Ordinals below epsilon_0 in Cantor normal form.

An ordinal is a finite sum  w^e1*c1 + ... + w^er*cr  with ordinal exponents
e1 > e2 > ... > er and integer coefficients ci >= 1.  The empty sum is 0.
Arithmetic is the usual non-commutative ordinal arithmetic restricted to
this carrier; it is closed under + and *.
"""

from __future__ import annotations

from dataclasses import dataclass


class OrdinalSyntaxError(ValueError):
    """Malformed ordinal text.  ``offset`` is the 1-based byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True, order=True)
class Ordinal:
    # terms: tuple of (exponent, coefficient), exponents strictly decreasing;
    # tuple order on terms is exactly the Cantor normal form order
    terms: tuple[tuple["Ordinal", int], ...] = ()

    def __post_init__(self):
        for i, (e, c) in enumerate(self.terms):
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"coefficient must be a positive int, got {c!r}")
            if i and not self.terms[i - 1][0] > e:
                raise ValueError("exponents must be strictly decreasing")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Ordinal":
        return _ZERO

    @classmethod
    def nat(cls, n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("natural expected")
        return _ZERO if n == 0 else cls(((_ZERO, n),))

    @classmethod
    def omega(cls) -> "Ordinal":
        return _OMEGA

    @classmethod
    def omega_power(cls, e: "Ordinal", coeff: int = 1) -> "Ordinal":
        if coeff == 0:
            return _ZERO
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
        return Ordinal(rest if c == 1 else rest + ((e, c - 1),))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Ordinal") -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        f = other.terms[0][0]
        # terms of self with exponent > f survive; one with exponent == f merges
        keep = 0
        while keep < len(self.terms) and self.terms[keep][0] > f:
            keep += 1
        head = self.terms[:keep]
        if keep < len(self.terms) and self.terms[keep][0] == f:
            merged = ((f, self.terms[keep][1] + other.terms[0][1]),)
            return Ordinal(head + merged + other.terms[1:])
        return Ordinal(head + other.terms)

    def __mul__(self, other: "Ordinal") -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        if not self.terms or not other.terms:
            return _ZERO
        e1, c1 = self.terms[0]
        out = _ZERO
        for f, d in other.terms:
            if f.is_zero:
                # right factor finite: scale the leading coefficient only
                out = out + Ordinal(((e1, c1 * d),) + self.terms[1:])
            else:
                out = out + Ordinal(((e1 + f, d),))
        return out

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e.is_zero:
                parts.append(str(c))
                continue
            if e == _ONE:
                base = "w"
            else:
                base = "w^" + _format_exponent(e)
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
        parentheses.
        """
        p = _OrdParser(text)
        x = p.sum()
        p.end()
        return x


def _format_exponent(e: Ordinal) -> str:
    # bare form only for naturals and single w-power towers with coefficient 1
    if e.is_nat:
        return str(e.as_nat())
    if len(e.terms) == 1 and e.terms[0][1] == 1:
        f = e.terms[0][0]
        return "w" if f == _ONE else "w^" + _format_exponent(f)
    return "(" + str(e) + ")"


class _OrdParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def err(self, message: str):
        raise OrdinalSyntaxError(message, self.pos + 1)

    def ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def nat(self) -> int:
        self.ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.err("expected a natural number")
        return int(self.text[start:self.pos])

    def sum(self) -> Ordinal:
        out = self.term()
        while self.take("+"):
            out = out + self.term()
        return out

    def term(self) -> Ordinal:
        c = self.peek()
        if c == "w":
            self.pos += 1
            e = _ONE
            if self.take("^"):
                e = self.exponent()
            coeff = 1
            if self.take("*"):
                coeff = self.nat()
            return Ordinal.omega_power(e, coeff)
        if c.isdigit():
            return Ordinal.nat(self.nat())
        self.err("expected 'w' or a natural number")

    def exponent(self) -> Ordinal:
        c = self.peek()
        if c == "(":
            self.pos += 1
            inner = self.sum()
            if not self.take(")"):
                self.err("expected ')'")
            return inner
        if c == "w":
            self.pos += 1
            if self.take("^"):
                return Ordinal.omega_power(self.exponent())
            return _OMEGA
        if c.isdigit():
            return Ordinal.nat(self.nat())
        self.err("expected an exponent")

    def end(self):
        self.ws()
        if self.pos != len(self.text):
            self.err("unexpected trailing input")


_ZERO = Ordinal()
_ONE = Ordinal.nat(1)
_OMEGA = Ordinal(((_ONE, 1),))

ZERO = _ZERO
ONE = _ONE
OMEGA = _OMEGA
