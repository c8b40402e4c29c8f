"""Compact hereditary families of finite sets.

Families are given by a small expression language:

    fam  := "schreier" | "S2" | "cube(" nat "," nat ")"
          | "prod(" fam "," fam ")" | "restrict(" fam "," iset ")"
    iset := "all" | "from(" nat ")" | "powers(" nat ")"
          | "ap(" nat "," nat ")" | "{" nat-list "}"

schreier is the family of s with #s <= min s (plus the empty set);
cube(a,k) collects the sets with at most k elements, all >= a;
prod(F,G) collects unions of consecutive blocks s_1 < ... < s_r with every
block in F and the set of block minima in G; restrict(F,M) intersects with
the subsets of M.  "S2" abbreviates prod(schreier, schreier) and prints
back as "S2".

Membership, one-point extensions, tail thresholds, maximality tests,
bounded enumeration, exact Cantor-Bendixson derivatives, and symbolic
ranks in Cantor normal form all operate on these expressions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator, Optional, Sequence, Union

from .finset import FinSet, Scanner, TextSyntaxError
from .ordinal import ONE, OMEGA, Ordinal


class FamilySyntaxError(TextSyntaxError):
    """Malformed family or index-set text."""


class NotAMemberError(ValueError):
    pass


class DegenerateIndexError(ValueError):
    """An operation that needs an infinite index set met a finite one."""


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------

# Three kinds: arithmetic progressions (AP; its subclasses From and All
# exist only to print as from(n) and all rather than ap(a,d)), Powers
# (printed powers(b) only with first 0 and period 1) and Explicit finite
# sets.  _meet is closed-form: All gives back the other side, an Explicit
# side is filtered, progressions meet in a plain AP (even two From), and
# powers meet powers or a progression in a Powers or an Explicit.

# A residue walk this many steps long without closing its cycle gives up;
# only reachable through hand-built pathological intersections.
_SCAN_LIMIT = 10**7

# Powers-by-progression meets kept.  The tests meet 389 distinct
# (powers, progression) pairs, most of them in one fuzz; verify meets none.
_MEET_MEMO = 1 << 10


def _exponent(m: int, base: int) -> Optional[int]:
    """The k with base**k == m, or None.  The float logarithm is exact
    enough to name the only candidate k, and one power settles it, so
    powers with millions of digits cost no more than a few products."""
    if m < 1:
        return None
    k = round(math.log(m, base))
    return k if base ** k == m else None


@dataclass(frozen=True)
class AP:
    """Arithmetic progression start, start+step, start+2*step, ..."""

    start: int
    step: int

    definitely_infinite = True

    def __post_init__(self):
        if self.start < 1 or self.step < 1:
            raise ValueError("ap() needs start >= 1 and step >= 1")

    def contains(self, m: int) -> bool:
        return m >= self.start and (m - self.start) % self.step == 0

    def first_above(self, lo: int) -> Optional[int]:
        if lo < self.start:
            return self.start
        k = (lo - self.start) // self.step + 1
        return self.start + k * self.step


@dataclass(frozen=True)
class From(AP):
    step: int = field(default=1, init=False, repr=False)


@dataclass(frozen=True)
class All(From):
    start: int = field(default=1, init=False, repr=False)


@dataclass(frozen=True)
class Powers:
    """The powers base**k with k >= first and k = first (mod period)."""

    base: int
    first: int = 0
    period: int = 1

    definitely_infinite = True

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("powers() needs a base >= 2")

    def contains(self, m: int) -> bool:
        k = _exponent(m, self.base)
        return k is not None and k >= self.first \
            and (k - self.first) % self.period == 0

    def first_above(self, lo: int) -> Optional[int]:
        k, p = 0, 1
        while p <= lo:
            k, p = k + 1, p * self.base
        k = max(k, self.first)
        return self.base ** (k + (self.first - k) % self.period)


@dataclass(frozen=True)
class Explicit:
    members: FinSet

    definitely_infinite = False

    def __post_init__(self):
        if not isinstance(self.members, FinSet):
            raise TypeError(f"an explicit index needs a FinSet of members, "
                            f"got {self.members!r}")

    def contains(self, m: int) -> bool:
        return m in self.members

    def first_above(self, lo: int) -> Optional[int]:
        elems = self.members.elems
        i = bisect_right(elems, lo)
        return elems[i] if i < len(elems) else None


IndexSet = Union[AP, Powers, Explicit]


def _ap_meet(a: AP, b: AP) -> Optional[AP]:
    """The common elements of two progressions (Chinese remainder theorem),
    or None when there are none."""
    g = math.gcd(a.step, b.step)
    if (b.start - a.start) % g:
        return None
    m = b.step // g
    k = (b.start - a.start) // g * pow(a.step // g, -1, m) % m
    step = a.step * m
    lo = max(a.start, b.start)
    return AP(lo + (a.start + k * a.step - lo) % step, step)


@lru_cache(maxsize=_MEET_MEMO)
def _geometric_meet(g: Powers, ap: AP) -> IndexSet:
    """The elements of g that lie in the progression ap.

    Their residues modulo ap.step follow r -> r*base**period, so they are
    walked on small integers: within step.bit_length() moves they reach a
    cycle, which holds each residue once.  On the cycle every residue is
    divisible by the part of the step made of the base's primes, before it
    none is, so the hits are either finitely many powers before the cycle
    or one residue class of exponents on it.
    """
    p = g.first_above(ap.start - 1)
    k = _exponent(p, g.base)
    step, want = ap.step, ap.start % ap.step
    r, mult = p % step, pow(g.base, g.period, step)
    hits = []
    for _ in range(step.bit_length()):
        if r == want:
            hits.append(k)
        k, r = k + g.period, r * mult % step
    entry, hit = r, None
    for cycle in range(1, _SCAN_LIMIT + 1):
        if hit is None and r == want:
            hit = k
        k, r = k + g.period, r * mult % step
        if r == entry:
            break
    else:
        raise DegenerateIndexError(
            f"gave up locating an element of an index-set intersection "
            f"after {_SCAN_LIMIT:,} residue-walk steps")
    if hit is None:
        return Explicit(FinSet(tuple(g.base ** j for j in hits)))
    return Powers(g.base, hits[0] if hits else hit, g.period * cycle)


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) in integers, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _root(n: int) -> tuple[int, int]:
    """(r, x) with r**x == n and r no perfect power, for n >= 2.  The
    largest x is tried first, so the r found has no root of its own."""
    for x in range(n.bit_length(), 1, -1):
        r = _iroot(n, x)
        if r ** x == n:
            return r, x
    return n, 1


def _power_meet(g: Powers, h: Powers) -> IndexSet:
    """Two sets of powers met exactly.  Each base is r**x for an r that is
    no perfect power.  Bases with different r share only the power 1;
    with one r, the exponents of r form two progressions, which _ap_meet
    intersects (shifted by one, since a progression starts at 1)."""
    (r, x), (q, y) = _root(g.base), _root(h.base)
    if r != q:
        return Explicit(FinSet((1,) if g.contains(1) and h.contains(1) else ()))
    ap = _ap_meet(AP(x * g.first + 1, x * g.period),
                  AP(y * h.first + 1, y * h.period))
    if ap is None:
        return Explicit(FinSet())
    return Powers(r, ap.start - 1, ap.step)


def _meet(a: IndexSet, b: IndexSet) -> IndexSet:
    """The intersection of two index sets, in closed form."""
    if isinstance(a, All):
        return b
    if isinstance(b, All):
        return a
    if isinstance(b, Explicit) or isinstance(b, Powers) and isinstance(a, AP):
        a, b = b, a
    if isinstance(a, Explicit):
        return Explicit(FinSet(tuple(m for m in a.members if b.contains(m))))
    if isinstance(a, Powers):
        if isinstance(b, Powers):
            return _power_meet(a, b)
        return _geometric_meet(a, b)
    return _ap_meet(a, b) or Explicit(FinSet())


def index_elements_between(index: IndexSet, lo: int, hi: int) -> Sequence[int]:
    """Elements m with lo < m <= hi, ascending; a range for a progression."""
    if isinstance(index, AP):
        return range(index.first_above(lo), hi + 1, index.step)
    out = []
    m = index.first_above(lo)
    while m is not None and m <= hi:
        out.append(m)
        m = index.first_above(m)
    return out


# ---------------------------------------------------------------------------
# family expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schreier:
    """Sets with at most min-many elements: #s <= min s, plus the empty set."""


@dataclass(frozen=True)
class Cube:
    """Sets with at most ``size`` elements, all >= ``floor``."""

    floor: int
    size: int

    def __post_init__(self):
        if self.floor < 1:
            raise ValueError("cube floor must be >= 1")
        if self.size < 0:
            raise ValueError("cube size must be >= 0")


def _hash_once(cls):
    """Give a frozen dataclass the hash its fields give, computed once at
    construction.  The generated hash of a nested expression walks the
    whole tree, and every memo keyed by an expression hashes its key on
    each lookup: 879 ns for prod(schreier, restrict(schreier, powers(2)))
    against 67 ns for a 3-tuple (2-core VM)."""
    init, fields_hash = cls.__init__, cls.__hash__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        object.__setattr__(self, "_hash", fields_hash(self))

    def __hash__(self):
        return self._hash

    cls.__init__, cls.__hash__ = __init__, __hash__
    return cls


@_hash_once
@dataclass(frozen=True)
class Product:
    left: "FamilyExpr"
    right: "FamilyExpr"


@_hash_once
@dataclass(frozen=True)
class Restrict:
    base: "FamilyExpr"
    index: IndexSet


@_hash_once
@dataclass(frozen=True)
class Derived:
    """One Cantor-Bendixson derivative of the base family."""

    base: "FamilyExpr"


FamilyExpr = Union[Schreier, Cube, Product, Restrict, Derived]

SCHREIER = Schreier()
SCHREIER_SQUARE = Product(SCHREIER, SCHREIER)

OMEGA_LEVEL = "w"  # accepted wherever a level can be a natural or the limit


def base_family(alpha) -> FamilyExpr:
    """cube(n,n) for a natural level n >= 1, schreier for the limit level."""
    if alpha == OMEGA_LEVEL:
        return SCHREIER
    if isinstance(alpha, int) and alpha >= 1:
        return Cube(alpha, alpha)
    raise ValueError(f"level must be an int >= 1 or {OMEGA_LEVEL!r}, got {alpha!r}")


def product_family(alpha) -> FamilyExpr:
    """prod(schreier, cube(n,n)) for a natural level, S2 for the limit."""
    if alpha == OMEGA_LEVEL:
        return SCHREIER_SQUARE
    return Product(SCHREIER, base_family(alpha))


def restricted(expr: FamilyExpr, index: IndexSet) -> FamilyExpr:
    return expr if isinstance(index, All) else Restrict(expr, index)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


# (expression, elements) pairs kept by each membership memo.  Enumeration
# steps from carried states and asks none, so a 14 x 14 kernel matrix asks
# none; capped verify asks ``_member`` 6,913 keys and ``_member_exhaustive``
# 1,535, uncapped verify 75,451 and 24,575, and `fam enum schreier --max
# 23` asks ``_member`` 545,714 (its maximality scans), which an unbounded
# memo kept to the end (about 100 MB for the latter).  Uncapped verify
# steps 5,201 keys twice (about 20 ms); 1 << 17 keeps them all but peaks
# 9 MB higher (96.5 against 87.3 MB) and ran no faster in six fresh pairs.
_MEMBER_MEMO = 1 << 14


def member(expr: FamilyExpr, s: FinSet) -> bool:
    return _member(expr, s.elems)


@lru_cache(maxsize=_MEMBER_MEMO)
def _member(expr: FamilyExpr, elems: tuple[int, ...]) -> bool:
    state = _state_of(expr, elems)
    return state is not None and _stepper(expr)[2](state)


def _compositions(elems: tuple[int, ...],
                  block_ok) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The consecutive-block compositions of elems whose blocks all pass
    ``block_ok``, as tuples of blocks; depth first, shortest first block
    first."""
    def walk(i: int, blocks: tuple[tuple[int, ...], ...]):
        if i == len(elems):
            yield blocks
            return
        for j in range(i + 1, len(elems) + 1):
            block = elems[i:j]
            if block_ok(block):
                yield from walk(j, blocks + (block,))

    return walk(0, ())


def member_by_composition_search(expr: FamilyExpr, s: FinSet) -> bool:
    """Membership from the definitions, every product by exhaustive
    composition search of at most 24 elements; the oracle for ``member``.
    A derivative decides its limits by ``_is_limit``: the oracle shares
    that rule with the stepper, and the brute-horizon fuzz tests check it."""
    return _member_exhaustive(expr, s.elems)


@lru_cache(maxsize=_MEMBER_MEMO)
def _member_exhaustive(expr: FamilyExpr, elems: tuple[int, ...]) -> bool:
    if isinstance(expr, Schreier):
        return not elems or len(elems) <= elems[0]
    if isinstance(expr, Cube):
        return len(elems) <= expr.size and (not elems or elems[0] >= expr.floor)
    if isinstance(expr, Product):
        # exhaustive over the 2^(#elems-1) consecutive-block compositions
        if len(elems) > 24:
            raise ValueError("composition search limited to 24 elements")
        return not elems or any(
            _member_exhaustive(expr.right, tuple([b[0] for b in blocks]))
            for blocks in _compositions(
                elems, lambda b: _member_exhaustive(expr.left, b)))
    if isinstance(expr, Restrict):
        return (all(expr.index.contains(m) for m in elems)
                and _member_exhaustive(expr.base, elems))
    if isinstance(expr, Derived):
        base = expr.base
        return _member_exhaustive(base, elems) and _is_limit(
            base, lambda m: _member_exhaustive(base, elems + (m,)),
            elems[-1] if elems else 0)
    raise TypeError(f"no composition-search route for {expr!r}")


# ---------------------------------------------------------------------------
# one-point steps
# ---------------------------------------------------------------------------


# Entries kept by each per-expression memo (_stepper, _tail_threshold and
# _probe_indexes), one per expression and subexpression.  Capped verify
# builds 40, 24 and 18, uncapped 48, 24 and 18; the tests 1,269, 642 and 640
# (mostly the fuzz; steppers are evicted).
_EXPR_MEMO = 1 << 10


def _hereditary(expr: FamilyExpr) -> bool:
    """Every product in expr has a spreading right factor, schreier or a
    cube, so dropping an element keeps a member: prod(schreier,
    restrict(schreier, powers(2))) holds {2,3} but not {3}."""
    if isinstance(expr, Product):
        return isinstance(expr.right, (Schreier, Cube)) and _hereditary(expr.left)
    if isinstance(expr, (Restrict, Derived)):
        return _hereditary(expr.base)
    return True


@lru_cache(maxsize=_EXPR_MEMO)
def _stepper(expr: FamilyExpr) -> tuple[object, Callable[[object, int], object],
                                        Callable[[object], bool]]:
    """(init, step, final): the family as an automaton on increasing tuples.

    ``init`` is the state of the empty set; ``step(state, m)``, for m above
    the elements, is the state of elems + (m,), or None when no member
    starts with it; ``final(state)`` says whether elems is a member, since a
    derivative of a non-hereditary base is not prefix-closed.  A product's
    state is the set of (left state of the last block, right state of the
    minima) pairs that its compositions reach, the subset construction of
    Rabin and Scott (IBM J. Res. Dev. 3(2), 1959); a hereditary product
    keeps only its fewest-blocks pair.
    """
    if isinstance(expr, Schreier):
        def step(state, m):
            first, count = state
            if not count:
                return m, 1
            return (first, count + 1) if count < first else None
        return (0, 0), step, lambda state: True
    if isinstance(expr, Cube):
        floor, size = expr.floor, expr.size

        def step(count, m):
            return count + 1 if count < size and m >= floor else None
        return 0, step, lambda state: True
    if isinstance(expr, Restrict):
        init, base_step, final = _stepper(expr.base)
        contains = expr.index.contains

        def step(state, m):
            return base_step(state, m) if contains(m) else None
        return init, step, final
    if isinstance(expr, Product):
        block_init, block_step, block_final = _stepper(expr.left)
        mins_init, mins_step, mins_final = _stepper(expr.right)
        # the empty set has no last block (None) and is a member
        if _hereditary(expr):
            # the fewest blocks, one element at a time: m extends the last
            # block when the left factor admits it, and otherwise opens a
            # block whose minimum m joins the minima.  The right factor reads
            # only the count of the minima and the first one, elems[0], so
            # the fewest blocks decide, if the left factor is hereditary:
            # prod(prod(schreier, restrict(schreier, powers(2))), schreier)
            # holds {2,4,5,6,8,9}, which the fewest blocks miss.
            def step(state, m):
                last, mins = state
                if last is not None:
                    grown = block_step(last, m)
                    if grown is not None:
                        return grown, mins
                block = block_step(block_init, m)
                if block is None:
                    return None
                mins = mins_step(mins, m)
                return None if mins is None else (block, mins)
            return (None, mins_init), step, lambda state: True

        # every pair extends its last block by m, or, when that block is a
        # member, opens a block at m
        def step(pairs, m):
            block = block_step(block_init, m)
            grown = set()
            for last, mins in pairs:
                if last is not None and (extended := block_step(last, m)) is not None:
                    grown.add((extended, mins))
                if block is not None and (last is None or block_final(last)):
                    opened = mins_step(mins, m)
                    if opened is not None:
                        grown.add((block, opened))
            return frozenset(grown) or None

        def final(pairs):
            return any(last is None or block_final(last) and mins_final(mins)
                       for last, mins in pairs)
        return frozenset({(None, mins_init)}), step, final
    if isinstance(expr, Derived):
        base = expr.base
        base_init, base_step, base_final = _stepper(base)
        # a hereditary derivative holds the prefixes of its members, so its
        # steps may prune the non-members; then every stepped state is final
        prune = _hereditary(base)

        def limit(state, last):
            return base_final(state) and _is_limit(base, lambda p: (
                grown := base_step(state, p)) is not None and base_final(grown), last)

        def step(state, m):
            grown = base_step(state[0], m)
            if grown is None or prune and not limit(grown, m):
                return None
            return grown, m

        def final(state):
            return prune and state[1] > 0 or limit(*state)
        return (base_init, 0), step, final
    raise TypeError(f"not a family expression: {expr!r}")


def _state_of(expr: FamilyExpr, elems: tuple[int, ...]):
    """The state of the increasing tuple elems; None if no member starts so."""
    state, step, _ = _stepper(expr)
    for m in elems:
        state = step(state, m)
        if state is None:
            break
    return state


# ---------------------------------------------------------------------------
# extensions, tail behaviour, maximality
# ---------------------------------------------------------------------------


def extension_admissible(expr: FamilyExpr, s: FinSet, probe: int) -> bool:
    """Is s with ``probe`` appended still a member?  probe must exceed max s."""
    if probe <= s.max_or_0:
        raise ValueError(f"probe {probe} does not exceed max of {s}")
    return _member(expr, s.elems + (probe,))


def tail_threshold(expr: FamilyExpr) -> int:
    """A bound T so that for every set s and m1, m2 > max(max s, T), both
    in the family's index set, appending m1 or m2 to s lands in the family
    equally."""
    return _tail_threshold(expr)


@lru_cache(maxsize=_EXPR_MEMO)
def _tail_threshold(expr: FamilyExpr) -> int:
    if isinstance(expr, Schreier):
        return 1
    if isinstance(expr, Cube):
        return expr.floor
    if isinstance(expr, Restrict):
        return _tail_threshold(expr.base)
    if isinstance(expr, Derived):
        # each derivative can push the flip point for the leading element
        # one step further out (visible on iterated schreier derivatives)
        return _tail_threshold(expr.base) + 1
    if isinstance(expr, Product):
        # a fresh tail element either extends the final block or opens a
        # singleton block whose minimum joins the minima
        return max(_tail_threshold(expr.left), _tail_threshold(expr.right))
    raise TypeError(f"not a family expression: {expr!r}")


def effective_index(expr: FamilyExpr) -> IndexSet:
    """An index set containing every element of every member; a sound
    over-approximation: prod(cube(2,2), restrict(schreier, powers(3))) gets
    From(2), its left factor's, although no member holds 2."""
    if isinstance(expr, Schreier):
        return All()
    if isinstance(expr, Cube):
        return From(expr.floor)
    if isinstance(expr, Restrict):
        return _meet(effective_index(expr.base), expr.index)
    if isinstance(expr, Product):
        return effective_index(expr.left)
    if isinstance(expr, Derived):
        return effective_index(expr.base)
    raise TypeError(f"not a family expression: {expr!r}")


@lru_cache(maxsize=_EXPR_MEMO)
def _probe_indexes(expr: FamilyExpr) -> tuple[IndexSet, ...]:
    """Index sets whose elements a tail point may come from, one per way the
    family can place it: in a product it extends the last block (a left
    index) or opens a block whose minimum lies in the right factor too (a
    left index met with a right one).  Membership need not be constant on
    one index above the tail threshold: in prod(S2, restrict(cube(1,1),
    powers(3))) at s = {} the All probe admits 3, 9 and 27, not the points
    between.  The probes decide ``is_maximal``, the infinite ones
    ``_is_limit``."""
    if isinstance(expr, Product):
        left = _probe_indexes(expr.left)
        out = left + tuple(_meet(a, b) for a in left
                           for b in _probe_indexes(expr.right))
    elif isinstance(expr, Restrict):
        out = tuple(_meet(a, expr.index) for a in _probe_indexes(expr.base))
    elif isinstance(expr, Derived):
        out = _probe_indexes(expr.base)
    else:
        out = (effective_index(expr),)
    # products of products meet the same sets again; probe each once
    return tuple(dict.fromkeys(out))


def _is_limit(base: FamilyExpr, extends: Callable[[int], bool], last: int) -> bool:
    """Do infinitely many m > last extend a member of base?  ``extends(m)``
    is asked at the first point above lo of each infinite probe index.

    Let lo be past last, the tail threshold and every finite (Explicit)
    probe index.  For a base with no derivative inside, the m > lo that
    extend form a union of active probe indexes: a leaf admits all of its
    index or none, a restriction meets, and a product joins, over every
    composition its state carries, the left indexes that extend the last
    block to the left-by-right meets that open one.  So an extending m > lo
    lies in an active infinite index, all of whose points above lo extend:
    the first points decide both ways.  The +1 per nested derivative of
    ``_tail_threshold`` is fuzzed, not proved.
    """
    pieces = _probe_indexes(base)
    lo = max(last, _tail_threshold(base),
             *(p.members.max_or_0 for p in pieces if not p.definitely_infinite))
    return any(extends(p.first_above(lo)) for p in pieces if p.definitely_infinite)


def is_maximal(expr: FamilyExpr, s: FinSet) -> bool:
    """No one-point superset of s stays in the family.  s must be a member."""
    if not member(expr, s):
        raise NotAMemberError(f"{s} is not a member")
    hi = max(s.max_or_0, tail_threshold(expr))
    for m in range(1, hi + 1):
        if m not in s and _member(expr, tuple(sorted(s.elems + (m,)))):
            return False
    probes = (index.first_above(hi) for index in _probe_indexes(expr))
    return not any(_member(expr, s.elems + (m,)) for m in probes if m is not None)


def derivative(expr: FamilyExpr) -> Derived:
    """The members that are limits of other members (pointwise convergence):
    s stays when infinitely many one-point extensions above max s are
    members (``_is_limit``), so over a finite index set none stays."""
    return Derived(expr)


def iterated_derivative(expr: FamilyExpr, steps: int) -> FamilyExpr:
    if steps < 0:
        raise ValueError("steps must be >= 0")
    for _ in range(steps):
        expr = derivative(expr)
    return expr


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


# The most sets one enumeration holds (members, and the prefixes a
# derivative of a non-hereditary base walks through) before it gives up
# with a ValueError.  The tests, verify suites, demos and benchmark hold at
# most 6718 (S2 within [1..14]); schreier has 267,914,296 within [1..40].
_ENUM_LIMIT = 100_000


def enumerate_members(expr: FamilyExpr, bound: int) -> list[FinSet]:
    """All members inside [1..bound], in length-then-lex order; refused
    beyond ``_ENUM_LIMIT`` sets held.  The frontier grows every prefix of a
    member by increasing elements, each level in order, so it needs no
    sort; it carries each prefix as a ``FinSet`` with its state and
    universe position (a range universe is sliced, never listed), so a
    candidate costs one step, and the prefixes whose states are final are
    the members.  A prefix grows by ``FinSet.appended``, which checks only
    the new element.  A negative bound is refused."""
    if bound < 0:
        raise ValueError(f"the truncation bound must be >= 0, got {bound}")
    universe = index_elements_between(effective_index(expr), 0, bound)
    init, step, final = _stepper(expr)
    empty = FinSet()
    out = [empty] if final(init) else []
    frontier = [(empty, init, 0)]
    while frontier:
        nxt = []
        for s, state, i in frontier:
            for m in universe[i:]:
                i += 1
                grown = step(state, m)
                if grown is not None:
                    if len(out) + len(nxt) == _ENUM_LIMIT:
                        raise ValueError(f"more than {_ENUM_LIMIT} members within "
                                         f"[1..{universe[-1]}]; lower the bound")
                    nxt.append((s.appended(m), grown, i))
        out.extend(s for s, state, _ in nxt if final(state))
        frontier = nxt
    return out


def _powerset(universe: Sequence[int]) -> Iterator[tuple[int, ...]]:
    for k in range(len(universe) + 1):
        yield from combinations(universe, k)


def enumerate_members_naive(expr: FamilyExpr, bound: int) -> list[FinSet]:
    """All members inside [1..bound], in length-then-lex order, built from
    the definitions; the enumeration oracle.  A negative bound is refused,
    as by ``enumerate_members``.

    A leaf or a derivative filters the powerset through the
    composition-search membership route (``_member_exhaustive``), and a
    restriction filters its base's members by the index.  A product
    prod(F, G) lists F's and G's members within the bound and walks the
    chains b_1 < b_2 < ... of nonempty F-members, each block starting above
    the previous block's end (one bisect on the sorted minima); it keeps a
    chain's union when the chain's tuple of block minima is in G's list,
    and ∅ always, as ``_member_exhaustive`` has it.  The minima lie in
    [1..bound], so G's list decides every chain, and a set that several
    chains give is kept once.

    The stop rule: a chain whose minima leave G's list grows no further
    when G is ``_hereditary``.  Such a G is closed under subsets, so its
    list is closed under prefixes; every chain that extends this one has a
    minima tuple with the left-over tuple as a prefix, so none of them is
    kept.  For any other G every chain is walked.  No stepper state and no
    composition search of a product outside a derivative is read, so
    agreeing with ``enumerate_members`` still means something."""
    if bound < 0:
        raise ValueError(f"the truncation bound must be >= 0, got {bound}")
    found = sorted(_naive_elems(expr, bound), key=lambda els: (len(els), els))
    return [FinSet(els) for els in found]


def _naive_elems(expr: FamilyExpr, bound: int) -> set[tuple[int, ...]]:
    """The element tuples of ``enumerate_members_naive``, unordered."""
    if isinstance(expr, Product):
        return _naive_product(expr, bound)
    if isinstance(expr, Restrict):
        contains = expr.index.contains
        return {els for els in _naive_elems(expr.base, bound)
                if all(map(contains, els))}
    return {els for els in _powerset(range(1, bound + 1))
            if _member_exhaustive(expr, els)}


def _naive_product(expr: Product, bound: int) -> set[tuple[int, ...]]:
    blocks: dict[int, list[tuple[int, ...]]] = {}   # F's members by minimum
    for b in sorted(_naive_elems(expr.left, bound)):
        if b:
            blocks.setdefault(b[0], []).append(b)
    starts = list(blocks)
    right = _naive_elems(expr.right, bound)
    stop = _hereditary(expr.right)
    found = {()}
    chains = [((), ())]                             # (union, block minima)
    while chains:
        union, minima = chains.pop()
        for m in starts[bisect_right(starts, union[-1] if union else 0):]:
            grown = minima + (m,)
            kept = grown in right
            if kept or not stop:
                for b in blocks[m]:
                    if kept:
                        found.add(union + b)
                    chains.append((union + b, grown))
    return found


# ---------------------------------------------------------------------------
# symbolic rank
# ---------------------------------------------------------------------------


def rank(expr: FamilyExpr) -> Ordinal:
    """Cantor-Bendixson rank in Cantor normal form.

    cube(a,k) has rank k+1 and schreier has rank w+1; a restriction keeps
    the rank; a product multiplies the ranks' predecessors (left factor
    first: the rank of prod(F,G) is (rank F - 1)*(rank G - 1)+1).  A leaf
    left with no element to use, by the restrictions above it or by a
    product's left factor, is {∅} and has rank 1; a leaf left with
    finitely many but some is refused.
    """
    return _rank(expr)[0]


def rank_is_rule_derived(expr: FamilyExpr) -> bool:
    """True when the product rank rule runs outside the cases it was checked
    against (left factor schreier, right factor schreier or a square cube);
    refuses every expression ``rank`` refuses."""
    return _rank(expr)[1]


def _rank(expr: FamilyExpr, within: IndexSet = All()) -> tuple[Ordinal, bool]:
    """The rank and whether some product's rule ran outside its checked
    cases: the one walk behind ``rank`` and ``rank_is_rule_derived``.
    ``within`` meets the restrictions above ``expr``; a right factor's
    meets its left factor's index too, which holds the block minima."""
    if isinstance(expr, (Schreier, Cube)):
        meet = _meet(within, effective_index(expr))
        if isinstance(meet, Explicit) and not meet.members:
            return ONE, False        # no element left: the family is {∅}
        if not meet.definitely_infinite:
            raise DegenerateIndexError(
                "rank needs an infinite index set at every restriction")
        if isinstance(expr, Schreier):
            return OMEGA + ONE, False
        return Ordinal.nat(expr.size + 1), False
    if isinstance(expr, Restrict):
        return _rank(expr.base, _meet(within, expr.index))
    if isinstance(expr, Product):
        left, left_derived = _rank(expr.left, within)
        right, right_derived = _rank(
            expr.right, _meet(within, effective_index(expr.left)))
        checked = (isinstance(expr.left, Schreier)
                   and (isinstance(expr.right, Schreier)
                        or (isinstance(expr.right, Cube)
                            and expr.right.floor == expr.right.size)))
        return (left.predecessor() * right.predecessor() + ONE,
                left_derived or right_derived or not checked)
    raise TypeError(f"rank is not defined for {expr!r}")


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def format_family(expr: FamilyExpr) -> str:
    if isinstance(expr, Schreier):
        return "schreier"
    if isinstance(expr, Product):
        if expr == SCHREIER_SQUARE:
            return "S2"
        return f"prod({format_family(expr.left)}, {format_family(expr.right)})"
    if isinstance(expr, Cube):
        return f"cube({expr.floor},{expr.size})"
    if isinstance(expr, Restrict):
        return f"restrict({format_family(expr.base)}, {format_index(expr.index)})"
    raise TypeError(f"no text form for {expr!r}")


def format_index(index: IndexSet) -> str:
    if isinstance(index, All):
        return "all"
    if isinstance(index, From):
        return f"from({index.start})"
    if isinstance(index, Powers) and (index.first, index.period) == (0, 1):
        return f"powers({index.base})"
    if isinstance(index, AP):
        return f"ap({index.start},{index.step})"
    if isinstance(index, Explicit):
        return "{" + ",".join(str(m) for m in index.members) + "}"
    raise TypeError(f"no text form for {index!r}")


def parse_family(text: str) -> FamilyExpr:
    p = _FamParser(text)
    expr = p.family()
    p.end()
    return expr


def parse_index(text: str) -> IndexSet:
    p = _FamParser(text)
    index = p.index_set()
    p.end()
    return index


class _FamParser(Scanner):
    error = FamilySyntaxError

    def family(self) -> FamilyExpr:
        head = self.word()
        start = self.pos - len(head)
        if head == "schreier":
            return SCHREIER
        if head == "S2":
            return SCHREIER_SQUARE
        if head == "cube":
            self.expect("(")
            floor = self.nat(1, "cube floor must be >= 1")
            self.expect(",")
            size = self.nat()
            self.expect(")")
            return Cube(floor, size)
        if head in ("prod", "restrict"):
            self.nest("family", start)
            self.expect("(")
            first = self.family()
            self.expect(",")
            if head == "prod":
                expr = Product(first, self.family())
            else:
                expr = Restrict(first, self.index_set())
            self.expect(")")
            self.depth -= 1
            return expr
        self.err("expected a family expression", start)

    def index_set(self) -> IndexSet:
        if self.peek() == "{":
            return Explicit(self.set_literal())
        head = self.word()
        start = self.pos - len(head)
        if head == "all":
            return All()
        if head == "from":
            self.expect("(")
            n = self.nat(1, "from() needs a start >= 1")
            self.expect(")")
            return From(n)
        if head == "powers":
            self.expect("(")
            b = self.nat(2, "powers base must be >= 2")
            self.expect(")")
            return Powers(b)
        if head == "ap":
            self.expect("(")
            s = self.nat(1, "ap() needs a start >= 1")
            self.expect(",")
            d = self.nat(1, "ap() needs a step >= 1")
            self.expect(")")
            return AP(s, d)
        self.err("expected an index set", start)
