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
bounded enumeration, Cantor-Bendixson style derivatives, and symbolic
ranks in Cantor normal form all operate on these expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterator, Optional, Union

from .finset import FinSet
from .ordinal import ONE, OMEGA, Ordinal


class FamilySyntaxError(ValueError):
    """Malformed family text.  ``offset`` is the 1-based byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class NotAMemberError(ValueError):
    pass


class DegenerateIndexError(ValueError):
    """An operation that needs an infinite index set met a finite one."""


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------

# A residue walk this many steps long without closing its cycle gives up;
# only reachable through hand-built pathological intersections.
_SCAN_LIMIT = 10**7


def _exponent(m: int, base: int) -> Optional[int]:
    """The k with base**k == m, or None.  The float logarithm is exact
    enough to name the only candidate k, and one power settles it, so
    powers with millions of digits cost no more than a few products."""
    if m < 1:
        return None
    k = round(math.log(m, base))
    return k if base ** k == m else None


@dataclass(frozen=True)
class All:
    def contains(self, m: int) -> bool:
        return m >= 1

    def first_above(self, lo: int) -> Optional[int]:
        return max(lo, 0) + 1

    @property
    def definitely_infinite(self) -> bool:
        return True


@dataclass(frozen=True)
class From:
    start: int

    def contains(self, m: int) -> bool:
        return m >= self.start

    def first_above(self, lo: int) -> Optional[int]:
        return max(lo + 1, self.start, 1)

    @property
    def definitely_infinite(self) -> bool:
        return True


@dataclass(frozen=True)
class Powers:
    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("powers() needs a base >= 2")

    def contains(self, m: int) -> bool:
        return _exponent(m, self.base) is not None

    def first_above(self, lo: int) -> Optional[int]:
        p = 1
        while p <= lo:
            p *= self.base
        return p

    @property
    def definitely_infinite(self) -> bool:
        return True


@dataclass(frozen=True)
class AP:
    """Arithmetic progression start, start+step, start+2*step, ..."""

    start: int
    step: int

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

    @property
    def definitely_infinite(self) -> bool:
        return True


@dataclass(frozen=True)
class Explicit:
    members: FinSet

    def contains(self, m: int) -> bool:
        return m in self.members

    def first_above(self, lo: int) -> Optional[int]:
        for m in self.members:
            if m > lo:
                return m
        return None

    @property
    def definitely_infinite(self) -> bool:
        return False


@dataclass(frozen=True)
class _Geometric:
    """The powers base**k with k >= first and k = first (mod period); only
    built internally, for powers met with progressions, lower bounds and
    other powers."""

    base: int
    first: int
    period: int

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

    @property
    def definitely_infinite(self) -> bool:
        return True


IndexSet = Union[All, From, Powers, AP, Explicit, _Geometric]


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


@cache
def _geometric_meet(g: _Geometric, floor: int, ap: AP) -> IndexSet:
    """The elements of g that are >= floor and lie in the progression ap.

    Their residues modulo ap.step follow r -> r*base**period, so they are
    walked on small integers: within step.bit_length() moves they reach a
    cycle, which holds each residue once.  On the cycle every residue is
    divisible by the part of the step made of the base's primes, before it
    none is, so the hits are either finitely many powers before the cycle
    or one residue class of exponents on it.
    """
    k, p = g.first, g.base ** g.first
    while p < floor:
        k, p = k + g.period, p * g.base ** g.period
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
            "cannot locate an element of an index-set intersection")
    if hit is None:
        return Explicit(FinSet(tuple(g.base ** j for j in hits)))
    return _Geometric(g.base, hits[0] if hits else hit, g.period * cycle)


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


def _power_meet(g: _Geometric, h: _Geometric) -> IndexSet:
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
    return _Geometric(r, ap.start - 1, ap.step)


# the order in which _meet takes the two parts of an intersection
_MEET_ORDER = (Explicit, _Geometric, AP, From)


def _meet(a: IndexSet, b: IndexSet) -> IndexSet:
    """The intersection of two index sets, in closed form."""
    if isinstance(a, All):
        return b
    if isinstance(b, All):
        return a
    a, b = sorted((_Geometric(p.base, 0, 1) if isinstance(p, Powers) else p
                   for p in (a, b)), key=lambda p: _MEET_ORDER.index(type(p)))
    if isinstance(a, Explicit):
        return Explicit(FinSet(tuple(m for m in a.members if b.contains(m))))
    if isinstance(a, _Geometric):
        if isinstance(b, _Geometric):
            return _power_meet(a, b)
        return _geometric_meet(a, b.start, b if isinstance(b, AP) else AP(1, 1))
    if isinstance(a, From):
        return From(max(a.start, b.start))
    if isinstance(b, AP):
        return _ap_meet(a, b) or Explicit(FinSet())
    return AP(a.first_above(b.start - 1), a.step)


def index_elements_between(index: IndexSet, lo: int, hi: int) -> list[int]:
    """Elements m of the index set with lo < m <= hi, ascending."""
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


@dataclass(frozen=True)
class Product:
    left: "FamilyExpr"
    right: "FamilyExpr"


@dataclass(frozen=True)
class Restrict:
    base: "FamilyExpr"
    index: IndexSet


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


@cache
def product_family(alpha) -> FamilyExpr:
    """prod(schreier, cube(n,n)) for a natural level, S2 for the limit.
    Built once per level: averaging asks for it for every chain it checks."""
    if alpha == OMEGA_LEVEL:
        return SCHREIER_SQUARE
    return Product(SCHREIER, base_family(alpha))


def restricted(expr: FamilyExpr, index: IndexSet) -> FamilyExpr:
    return expr if isinstance(index, All) else Restrict(expr, index)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def member(expr: FamilyExpr, s: FinSet) -> bool:
    return _member(expr, s.elems)


@cache
def _member(expr: FamilyExpr, elems: tuple[int, ...]) -> bool:
    if isinstance(expr, Schreier):
        return not elems or len(elems) <= elems[0]
    if isinstance(expr, Cube):
        return len(elems) <= expr.size and (not elems or elems[0] >= expr.floor)
    if isinstance(expr, Restrict):
        return (all(expr.index.contains(m) for m in elems)
                and _member(expr.base, elems))
    if isinstance(expr, Product):
        return _product_member(expr.left, expr.right, elems)
    if isinstance(expr, Derived):
        return _member(expr.base, elems) and _has_tail_extension(expr.base, elems)
    raise TypeError(f"not a family expression: {expr!r}")


def _structurally_hereditary(expr: FamilyExpr) -> bool:
    """Conservative syntactic check that the family is closed under subsets.

    Products need a spreading-closed right factor; plain schreier and cube
    are, arbitrary right factors need not be (so those take the exhaustive
    membership route and the powerset enumeration route).
    """
    if isinstance(expr, (Schreier, Cube)):
        return True
    if isinstance(expr, (Restrict, Derived)):
        return _structurally_hereditary(expr.base)
    if isinstance(expr, Product):
        return (_structurally_hereditary(expr.left)
                and isinstance(expr.right, (Schreier, Cube)))
    return False


def _longest_member_prefix(expr: FamilyExpr, elems: tuple[int, ...]) -> int:
    """Largest L with elems[:L] in the family; only sound when hereditary."""
    if isinstance(expr, Schreier):
        return min(elems[0], len(elems)) if elems else 0
    if isinstance(expr, Cube):
        if elems and elems[0] < expr.floor:
            return 0
        return min(expr.size, len(elems))
    L = 0
    while L < len(elems) and _member(expr, elems[:L + 1]):
        L += 1
    return L


def _min_block_count(expr: FamilyExpr, elems: tuple[int, ...]) -> Optional[int]:
    """Fewest consecutive blocks, each in the (hereditary) family, or None."""
    count = 0
    i = 0
    while i < len(elems):
        L = _longest_member_prefix(expr, elems[i:])
        if L == 0:
            return None
        i += L
        count += 1
    return count


def _member_run_prefix(expr: FamilyExpr, runs) -> int:
    """The largest j with the union of ``runs[:j]`` in ``expr``, for expr
    prod(schreier, cube(n,n)) or S2 and runs (a, b), a <= b, of consecutive
    integers in increasing order, never expanded.

    The greedy count of ``_min_block_count`` on schreier: a block opening
    at x takes the next x elements, across runs if need be.  The count only
    grows with j, so one pass decides every leading union, in
    O(runs + blocks) integer steps.
    """
    if not (isinstance(expr, Product) and isinstance(expr.left, Schreier)
            and isinstance(expr.right, (Schreier, Cube))):
        raise TypeError(f"no run route for {expr!r}")
    if not runs:
        return 0
    first = runs[0][0]
    if isinstance(expr.right, Schreier):
        bound = first
    elif first >= expr.right.floor:
        bound = expr.right.size
    else:
        return 0
    count = need = 0
    for j, (a, b) in enumerate(runs):
        x = a
        while x <= b:
            if not need:
                count += 1
                need = x
            take = min(need, b - x + 1)
            need -= take
            x += take
        if count > bound:
            return j
    return len(runs)


def _product_member(left: FamilyExpr, right: FamilyExpr, elems: tuple[int, ...]) -> bool:
    if not elems:
        return True
    # greedy fast path: fewest-blocks decomposition decides membership when
    # the right factor constrains only the count and the smallest minimum
    if _structurally_hereditary(left) and isinstance(right, (Schreier, Cube)):
        blocks = _min_block_count(left, elems)
        if blocks is None:
            return False
        if isinstance(right, Schreier):
            return blocks <= elems[0]
        return blocks <= right.size and elems[0] >= right.floor
    return _composition_search(left, right, elems, _member)


def _composition_minima(elems: tuple[int, ...], block_ok) -> Iterator[tuple[int, ...]]:
    """Block-minima tuples of the consecutive-block compositions of elems
    whose blocks all pass ``block_ok``; depth first, shortest first block
    first."""
    def walk(i: int, mins: tuple[int, ...]):
        if i == len(elems):
            yield mins
            return
        for j in range(i + 1, len(elems) + 1):
            if block_ok(elems[i:j]):
                yield from walk(j, mins + (elems[i],))

    return walk(0, ())


def _composition_search(left: FamilyExpr, right: FamilyExpr,
                        elems: tuple[int, ...], member_fn) -> bool:
    """Exhaustive scan of the 2^(#t-1) consecutive-block compositions,
    deciding block and minima membership with ``member_fn``."""
    if not elems:
        return True
    if len(elems) > 24:
        raise ValueError("composition search limited to 24 elements")
    return any(member_fn(right, mins) for mins in
               _composition_minima(elems, lambda b: member_fn(left, b)))


def member_by_composition_search(expr: FamilyExpr, s: FinSet) -> bool:
    """Membership with every product decided by exhaustive composition
    search; the test oracle for the greedy product route."""
    return _member_exhaustive(expr, s.elems)


@cache
def _member_exhaustive(expr: FamilyExpr, elems: tuple[int, ...]) -> bool:
    if isinstance(expr, Product):
        return _composition_search(expr.left, expr.right, elems,
                                   _member_exhaustive)
    if isinstance(expr, Restrict):
        return (all(expr.index.contains(m) for m in elems)
                and _member_exhaustive(expr.base, elems))
    if isinstance(expr, Derived):
        raise TypeError("derivatives have no composition-search route")
    return _member(expr, elems)


# ---------------------------------------------------------------------------
# extensions, tail behaviour, maximality
# ---------------------------------------------------------------------------


def extension_admissible(expr: FamilyExpr, s: FinSet, probe: int) -> bool:
    """Is s with ``probe`` appended still a member?  probe must exceed max s."""
    if probe <= s.max_or_0:
        raise ValueError(f"probe {probe} does not exceed max of {s}")
    return _member(expr, s.elems + (probe,))


def tail_threshold(expr: FamilyExpr, s: FinSet) -> int:
    """A bound T so that for m1, m2 > max(max s, T), both in the family's
    index set, appending m1 or m2 to s lands in the family equally."""
    return _tail_threshold(expr, s.elems)


@cache
def _tail_threshold(expr: FamilyExpr, elems: tuple[int, ...]) -> int:
    if isinstance(expr, Schreier):
        return 1
    if isinstance(expr, Cube):
        return expr.floor
    if isinstance(expr, Restrict):
        return _tail_threshold(expr.base, elems)
    if isinstance(expr, Derived):
        # each derivative can push the flip point for the leading element
        # one step further out (visible on iterated schreier derivatives)
        return _tail_threshold(expr.base, elems) + 1
    if isinstance(expr, Product):
        # a fresh tail element either extends the final block (any suffix)
        # or opens a singleton block (any composition's minima grow by it)
        t = _tail_threshold(expr.left, ())
        for i in range(len(elems)):
            t = max(t, _tail_threshold(expr.left, elems[i:]))
        for mins in {(), *_composition_minima(elems, lambda b: True)}:
            t = max(t, _tail_threshold(expr.right, mins))
        return t
    raise TypeError(f"not a family expression: {expr!r}")


def effective_index(expr: FamilyExpr) -> IndexSet:
    """An index set containing every element of every member."""
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


@cache
def _probe_indexes(expr: FamilyExpr) -> tuple[IndexSet, ...]:
    """Index sets whose elements a tail point may come from, one per way the
    family can place it: above the tail threshold, membership of s with a
    new largest point is constant on each.  In a product the point either
    extends the last block (a left index) or opens a block whose minimum
    must also lie in the right factor (a left index met with a right one)."""
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


def _tail_extends(expr: FamilyExpr, elems: tuple[int, ...], lo: int) -> bool:
    """Does s gain a member one-point extension at the first element above
    lo of some probe index?  lo must be past the tail threshold."""
    for index in _probe_indexes(expr):
        probe = index.first_above(lo)
        if probe is not None and _member(expr, elems + (probe,)):
            return True
    return False


def _has_tail_extension(expr: FamilyExpr, elems: tuple[int, ...]) -> bool:
    """One probe per probe index above the tail threshold decides whether
    infinitely many one-point tail extensions stay in the family."""
    lo = max(elems[-1] if elems else 0, _tail_threshold(expr, elems))
    return _tail_extends(expr, elems, lo)


def is_maximal(expr: FamilyExpr, s: FinSet) -> bool:
    """No one-point superset of s stays in the family.  s must be a member."""
    if not member(expr, s):
        raise NotAMemberError(f"{s} is not a member")
    hi = max(s.max_or_0, tail_threshold(expr, s))
    for m in range(1, hi + 1):
        if m not in s and _member(expr, tuple(sorted(s.elems + (m,)))):
            return False
    return not _tail_extends(expr, s.elems, hi)


def derivative(expr: FamilyExpr) -> Derived:
    """The family of members that are limits of other members (pointwise
    convergence); computed one-point-extension-wise via tail probes."""
    if not effective_index(expr).definitely_infinite:
        import warnings

        warnings.warn("derivative over a possibly finite index set is "
                      "degenerate: every member becomes isolated eventually",
                      stacklevel=2)
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


# The most members one hereditary enumeration builds before it gives up
# with a ValueError.  Members are held in memory (the largest enumeration in
# the tests, verify suites, demos and benchmark is 6718, S2 within [1..14]),
# and schreier alone has 267,914,296 members within [1..40].
_ENUM_LIMIT = 100_000


def enumerate_members(expr: FamilyExpr, bound: int) -> list[FinSet]:
    """All members inside [1..bound], in length-then-lex order; refused
    beyond ``_ENUM_LIMIT`` members for a hereditary family."""
    idx = effective_index(expr)
    universe = [m for m in range(1, bound + 1) if idx.contains(m)]
    if _structurally_hereditary(expr):
        found = _enumerate_hereditary(expr, universe)
    else:
        if len(universe) > 22:
            raise ValueError("non-hereditary enumeration limited to 22 candidates")
        found = [els for els in _powerset(universe) if _member(expr, els)]
    found.sort(key=lambda els: (len(els), els))
    return [FinSet(els) for els in found]


def _enumerate_hereditary(expr: FamilyExpr, universe: list[int]) -> list:
    # grow members one increasing element at a time; heredity makes every
    # member reachable through member prefixes
    out = []
    if not _member(expr, ()):
        return out
    frontier = [()]
    out.append(())
    while frontier:
        nxt = []
        for els in frontier:
            last = els[-1] if els else 0
            for m in universe:
                if m > last and _member(expr, els + (m,)):
                    nxt.append(els + (m,))
            if len(out) + len(nxt) > _ENUM_LIMIT:
                raise ValueError(f"more than {_ENUM_LIMIT} members within "
                                 f"[1..{universe[-1]}]; lower the bound")
        out.extend(nxt)
        frontier = nxt
    return out


def _powerset(universe: list[int]) -> Iterator[tuple[int, ...]]:
    from itertools import combinations

    for k in range(len(universe) + 1):
        yield from combinations(universe, k)


def enumerate_members_naive(expr: FamilyExpr, bound: int) -> list[FinSet]:
    """Powerset filter through the composition-search membership route;
    the enumeration oracle."""
    universe = list(range(1, bound + 1))
    found = [els for els in _powerset(universe) if _member_exhaustive(expr, els)]
    found.sort(key=lambda els: (len(els), els))
    return [FinSet(els) for els in found]


# ---------------------------------------------------------------------------
# symbolic rank
# ---------------------------------------------------------------------------


def rank(expr: FamilyExpr) -> Ordinal:
    """Cantor-Bendixson rank in Cantor normal form.

    cube(a,k) has rank k+1 and schreier has rank w+1; an infinite
    restriction keeps the rank; a product multiplies the ranks' predecessors
    (left factor first: the rank of prod(F,G) is (rank F - 1)*(rank G - 1)+1).
    """
    if isinstance(expr, Schreier):
        return OMEGA + ONE
    if isinstance(expr, Cube):
        return Ordinal.nat(expr.size + 1)
    if isinstance(expr, Restrict):
        if not expr.index.definitely_infinite:
            raise DegenerateIndexError(
                "rank needs an infinite index set at every restriction")
        return rank(expr.base)
    if isinstance(expr, Product):
        iota_left = rank(expr.left).predecessor()
        iota_right = rank(expr.right).predecessor()
        return iota_left * iota_right + ONE
    raise TypeError(f"rank is not defined for {expr!r}")


def rank_is_rule_derived(expr: FamilyExpr) -> bool:
    """True when the product rank rule runs outside the cases it was checked
    against (left factor schreier, right factor schreier or a square cube)."""
    if isinstance(expr, (Schreier, Cube)):
        return False
    if isinstance(expr, Restrict):
        return rank_is_rule_derived(expr.base)
    if isinstance(expr, Product):
        checked = (isinstance(expr.left, Schreier)
                   and (isinstance(expr.right, Schreier)
                        or (isinstance(expr.right, Cube)
                            and expr.right.floor == expr.right.size)))
        return not checked or rank_is_rule_derived(expr.left) \
            or rank_is_rule_derived(expr.right)
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
    if isinstance(index, Powers):
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


# Deeper family nesting is refused at parse time; it would otherwise run
# the recursive membership and formatting routines out of stack.
_MAX_NESTING = 100


class _FamParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def err(self, message: str):
        raise FamilySyntaxError(message, self.pos + 1)

    def ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.err(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        self.ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def nat(self) -> int:
        self.ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.err("expected a natural number")
        return int(self.text[start:self.pos])

    def nat_at_least(self, low: int, message: str) -> int:
        """A natural >= low; otherwise ``message`` at the number's offset."""
        self.ws()
        at = self.pos
        n = self.nat()
        if n < low:
            self.pos = at
            self.err(message)
        return n

    def family(self) -> FamilyExpr:
        self.ws()
        start = self.pos
        head = self.word()
        if head == "schreier":
            return SCHREIER
        if head == "S2":
            return SCHREIER_SQUARE
        if head == "cube":
            self.expect("(")
            floor = self.nat_at_least(1, "cube floor must be >= 1")
            self.expect(",")
            size = self.nat()
            self.expect(")")
            return Cube(floor, size)
        if head in ("prod", "restrict"):
            if self.depth == _MAX_NESTING:
                self.pos = start
                self.err(f"family nested deeper than {_MAX_NESTING} levels")
            self.depth += 1
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
        self.pos = start
        self.err("expected a family expression")

    def index_set(self) -> IndexSet:
        self.ws()
        if self.peek() == "{":
            self.pos += 1
            items = []
            if self.peek() != "}":
                items.append(self.nat())
                while self.peek() == ",":
                    self.pos += 1
                    items.append(self.nat())
            self.expect("}")
            return Explicit(FinSet.of(items))
        start = self.pos
        head = self.word()
        if head == "all":
            return All()
        if head == "from":
            self.expect("(")
            n = self.nat_at_least(1, "from() needs a start >= 1")
            self.expect(")")
            return From(n)
        if head == "powers":
            self.expect("(")
            b = self.nat_at_least(2, "powers base must be >= 2")
            self.expect(")")
            return Powers(b)
        if head == "ap":
            self.expect("(")
            s = self.nat_at_least(1, "ap() needs a start >= 1")
            self.expect(",")
            d = self.nat_at_least(1, "ap() needs a step >= 1")
            self.expect(")")
            return AP(s, d)
        self.pos = start
        self.err("expected an index set")

    def end(self):
        self.ws()
        if self.pos != len(self.text):
            self.err("unexpected trailing input")
