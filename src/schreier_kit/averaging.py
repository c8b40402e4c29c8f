"""Averaging chains and the exact cancellation identity.

For a level n and a chain set s = {m_1 < ... < m_k} (k <= n), a chain
assigns to each prefix a fresh block Delta_i: a maximal schreier set with
min Delta_1 > n and Delta_1 < Delta_2 < ... elementwise.  Every union of
leading blocks must land in prod(schreier, cube(n,n)).

Two derived objects matter:

* the block average: the uniform convex combination of indicator vectors
  x_u over all picks u = {r_1, ..., r_k}, one r_i from each block;
* the union functional: the parity kernel with second coordinate fixed to
  the union of the blocks.

Pairing one chain's functional with another's average has a closed form,
and pairing the functional of the one-step extension of a chain with the
chain's own average minus the extension's average is exactly (-1)^k.

All arithmetic is exact.  A chain carries each block as its (start, end)
span; every generated block is an interval [p, 2p-1], so validation and
the pairings run on those endpoints in integer steps.  Blocks become
FinSets only when a caller reads ``blocks`` or ``union()`` or asks for the
public ``block_average`` and ``union_functional`` objects.  One core
evaluates every pairing: the product over block positions of
(len(a) - 2*hit) / len(a), kept in integers until one final Fraction.  The
hit count comes from endpoints on spans, and from a set intersection on
the FinSets of ``evaluate``.

The structural checks of ``DeltaChain`` decide validity (its docstring
says why they suffice).  They are local: each span is checked against its
predecessor and the first against the level.  So a valid chain plus one
checked span is a valid chain, and a prefix of a valid chain is valid.
Each span is therefore checked once, as it is drawn: ``_drawn_span``
makes the block checks, and ``_next_span`` adds the checks of the new
element and the length.  ``build_chain``, ``extend`` and ``prefix``
assemble their chain from checked parts (``_assembled``) without checking
it again, and ``cancellation_runs`` builds no chain for the extension.  A
``DeltaChain`` built by hand still runs every check.

A generator is asked ``start_above(floor, depth)``, with the floor
max(n, previous end, m), and reads nothing else, so a one-step extension
depends on m only through the floor.  ``cancellation_runs`` therefore
pairs a run of consecutive m with equal blocks once: every m up to
max(n, previous end) shares one run, and above it the canonical blocks
change only at powers of two.  ``tree sweep``, the cancellation suite and
``cancellation_value`` (its one-m case) all go through it.  The pairing is
memoized on plain integer tuples ``(chain spans, extended spans)``, so a
sweep meets the same few hundred keys again and again.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Iterable, Iterator, Optional, Union

from .family import Cube, member
from .finset import FinSet, interval
from .kernel import Decomposition, parity_matrix

_EXPLICIT_LIMIT = 200_000
_DRAW_MEMO = 4096  # draws kept: uncapped verify asks for at most 2901 distinct ones
_SPREAD = 8  # a seeded start lies in [floor + 1, floor + _SPREAD]
# keys kept by the cancellation memo, looked up once per run of equal
# extensions: uncapped verify asks it for 853 distinct keys in 23,426
# lookups, the bench's tree sweep for 330 keys in 4,314
_SPAN_MEMO = 4096

Span = tuple[int, int]  # a block [start, end] of consecutive integers


class ChainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# block generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalBlocks:
    """Deterministic dyadic blocks [p, 2p-1]: each start is the least power
    of two strictly above the floor, whatever the depth."""

    def start_above(self, floor: int, depth: int) -> int:
        return 1 << floor.bit_length()

    def describe(self) -> str:
        return "canonical"


@dataclass(frozen=True)
class SeededBlocks:
    """Random admissible blocks [c, 2c-1], reproducible from the seed alone.

    The draw depends only on (seed, depth, floor), never on Python
    hashing, so chains and their extensions are stable across runs; it is
    memoized on that key, so a repeated key does not reseed a Random.  The
    start lies in [floor + 1, floor + ``_SPREAD``].
    """

    seed: int

    def start_above(self, floor: int, depth: int) -> int:
        return _seeded_start(self.seed, depth, floor)

    def describe(self) -> str:
        return f"seeded({self.seed})"


@lru_cache(maxsize=_DRAW_MEMO)
def _seeded_start(seed: int, depth: int, floor: int) -> int:
    rng = random.Random((seed * 1_000_003 + depth) * 1_000_033 + floor)
    return floor + 1 + rng.randrange(_SPREAD)


BlockGenerator = Union[CanonicalBlocks, SeededBlocks]


def sweep_generators(seeds: int) -> list[BlockGenerator]:
    """The generators a sweep runs: canonical, then seeds 1..``seeds``."""
    return [CanonicalBlocks()] + [SeededBlocks(s) for s in range(1, seeds + 1)]


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def _expand(spans: Iterable[Span]) -> tuple[int, ...]:
    return tuple(itertools.chain.from_iterable(range(a, b + 1)
                                               for a, b in spans))


@dataclass(frozen=True)
class DeltaChain:
    """A chain of maximal schreier blocks for a level n and a chain set.

    The checks below make every chain valid.  Each block [a, 2a-1] has
    a elements, the blocks increase strictly and a_1 > n.  So the greedy
    schreier cut of the union of the first j blocks takes each block
    whole: it opens at a_i and takes the next a_i elements.  That cut is
    the S2 decomposition, into exactly the chain blocks, and since
    j <= n < a_1 its minima form a member of both schreier and cube(n,n).
    Every leading union therefore lies in prod(schreier, cube(n,n)).

    A chain built by hand runs every check.  ``build_chain``, ``extend``
    and ``prefix`` skip them: each of their spans was checked once, when
    it was drawn (``_next_span``).
    """

    level: int                     # the n of the ambient prod(schreier,cube(n,n))
    support: FinSet                # the chain set {m_1 < ... < m_k}
    spans: tuple[Span, ...]        # one block [start, end] per element, in order
    generator: BlockGenerator = CanonicalBlocks()

    def __post_init__(self):
        n, s, spans = self.level, self.support, self.spans
        _check_level(n)
        if type(s) is not FinSet:
            raise ChainError(f"chain set {s!r} must be a FinSet")
        if len(s.elems) > n:
            raise ChainError(f"chain set {s} longer than level {n}")
        if type(spans) is not tuple:
            raise ChainError(f"blocks {spans!r} must be a tuple of spans")
        if len(spans) != len(s.elems):
            raise ChainError("one block per chain element")
        prev_end = 0
        for span in spans:
            if type(span) is not tuple or len(span) != 2:
                raise ChainError(f"block {span!r} is not a (start, end) tuple")
            a, b = span
            if type(a) is not int or type(b) is not int:
                raise ChainError(f"block ({a!r}, {b!r}) needs integer ends")
            # a maximal schreier interval has min-many elements
            if a < 1 or b - a + 1 != a:
                raise ChainError(f"block [{a}, {b}] is not a maximal schreier set")
            if a <= prev_end:
                raise ChainError("blocks must increase strictly")
            prev_end = b
        if spans and spans[0][0] <= n:
            raise ChainError(f"first block must start above the level {n}")

    @property
    def depth(self) -> int:
        return len(self.spans)

    @property
    def blocks(self) -> tuple[FinSet, ...]:
        return tuple(interval(a, b) for a, b in self.spans)

    def union(self) -> FinSet:
        return FinSet(_expand(self.spans))

    def prefix(self, j: int) -> "DeltaChain":
        """The chain for the first j elements of the support."""
        if not 0 <= j <= self.depth:
            raise ChainError(f"no prefix of length {j}")
        return _assembled(self.level, FinSet(self.support.elems[:j]),
                          self.spans[:j], self.generator)

    def extend(self, m: int) -> "DeltaChain":
        """Append the chain element m (m > max support) with a fresh block."""
        span = _next_span(self.level, self.support.elems, self.spans, m,
                          self.generator)
        return _assembled(self.level, self.support.appended(m),
                          self.spans + (span,), self.generator)


def _assembled(level: int, support: FinSet, spans: tuple[Span, ...],
               generator: BlockGenerator) -> DeltaChain:
    """The chain of parts already checked, without ``__post_init__``: a
    valid chain's prefix, or a valid chain plus spans ``_next_span``
    checked."""
    chain = object.__new__(DeltaChain)
    object.__setattr__(chain, "level", level)
    object.__setattr__(chain, "support", support)
    object.__setattr__(chain, "spans", spans)
    object.__setattr__(chain, "generator", generator)
    return chain


def _check_level(n: int) -> None:
    if type(n) is not int:
        raise ChainError(f"level {n!r} must be an integer")
    if n < 1:
        raise ChainError("level must be >= 1")


def _next_span(level: int, support_elems: tuple[int, ...],
               spans: tuple[Span, ...], m: int, gen: BlockGenerator) -> Span:
    """The block that m adds to a valid chain, checked as ``DeltaChain``
    checks it.  Those checks are local (each span against its predecessor,
    the first against the level), so a valid chain plus one checked span is
    a valid chain."""
    if type(m) is not int:  # bool is an int subclass
        raise ChainError(f"elements must be integers >= 1, got {m!r}")
    if m <= (support_elems[-1] if support_elems else 0):
        raise ChainError(f"{m} does not extend {FinSet(support_elems)}")
    k = len(spans)
    if k + 1 > level:
        raise _length_error(level)
    return _drawn_span(level, spans[-1][1] if spans else 0, m, k + 1, gen)


def _length_error(level: int) -> ChainError:
    return ChainError(f"level {level} admits chains of length <= {level}")


def _drawn_span(level: int, prev_end: int, m: int, depth: int,
                gen: BlockGenerator) -> Span:
    """The block drawn for the element m at ``depth`` <= level, after a
    block ending at ``prev_end`` (0 at depth 1), with the block checks of
    ``_next_span``; the caller has checked m and the depth."""
    p = gen.start_above(max(level, prev_end, m), depth)
    if type(p) is not int:
        raise ChainError(f"block ({p!r}, {2 * p - 1!r}) needs integer ends")
    if p < 1:
        raise ChainError(f"block [{p}, {2 * p - 1}] is not a maximal schreier set")
    if p <= prev_end:
        raise ChainError("blocks must increase strictly")
    if depth == 1 and p <= level:
        raise ChainError(f"first block must start above the level {level}")
    return p, 2 * p - 1


def build_chain(level: int, support: FinSet,
                generator: BlockGenerator = CanonicalBlocks()) -> DeltaChain:
    """Blocks for every prefix of ``support``, drawn by ``generator``; each
    is checked once, as it is drawn.  The elements are those of a checked
    FinSet, so they need only the checks of ``_drawn_span``, and the
    length is checked where ``_next_span`` checks it: after the first
    ``level`` draws."""
    _check_level(level)  # first: a generator's floor holds the level
    if type(support) is not FinSet:
        raise ChainError(f"chain set {support!r} must be a FinSet")
    spans: tuple[Span, ...] = ()
    prev_end = 0
    for depth, m in enumerate(support.elems[:level], 1):
        span = _drawn_span(level, prev_end, m, depth, generator)
        spans += (span,)
        prev_end = span[1]
    if len(support.elems) > level:
        raise _length_error(level)
    return _assembled(level, support, spans, generator)


# ---------------------------------------------------------------------------
# averages and functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockAverage:
    """Uniform average of indicator vectors x_u, u one pick per block."""

    level: int
    blocks: tuple[FinSet, ...]

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def weight(self) -> Fraction:
        return Fraction(1, prod(len(b) for b in self.blocks))

    @property
    def index_count(self) -> int:
        return prod(len(b) for b in self.blocks)

    def picks(self) -> Iterator[tuple[int, ...]]:
        """The element tuples of the picks, one element per block, in
        ``itertools.product`` order."""
        return itertools.product(*(b.elems for b in self.blocks))

    def indices(self) -> Iterator[FinSet]:
        return map(FinSet, self.picks())

    def explicit(self) -> dict[FinSet, Fraction]:
        """The full index-to-weight map; guarded against huge products."""
        if self.index_count > _EXPLICIT_LIMIT:
            raise ValueError(f"{self.index_count} indices exceed the "
                             f"explicit-map limit {_EXPLICIT_LIMIT}")
        w = self.weight
        out = {u: w for u in self.indices()}
        # Every key is a FinSet of one element per block, so all share one
        # length, and the first, in product order, has the least first
        # element.  cube(n,n) bounds only the length and the least element,
        # so if any pick fails the level bound the first one does: it is
        # the one a check of every pick would name.
        first = next(iter(out), None)
        cube = Cube(self.level, self.level) if self.level >= 1 else None
        if first is not None and (len(first) != self.depth
                                  or (cube and not member(cube, first))):
            raise AssertionError(f"index {first} violates the level bound")
        return out


@dataclass(frozen=True)
class UnionFunctional:
    """The kernel with second coordinate pinned to a set in the level's
    product family; the empty set gives the constant-1 functional."""

    level: int
    support: FinSet
    decomposition: Optional[Decomposition]

    @property
    def blocks(self) -> tuple[FinSet, ...]:
        return self.decomposition.blocks if self.decomposition else ()


def block_average(chain: DeltaChain) -> BlockAverage:
    return BlockAverage(chain.level, chain.blocks)


def union_functional(chain: DeltaChain) -> UnionFunctional:
    t = chain.union()
    if not t:
        return UnionFunctional(chain.level, t, None)
    return UnionFunctional(chain.level, t, Decomposition(chain.blocks))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _pairing(counts: Iterable[tuple[int, int]]) -> Fraction:
    """The functional on the average from per-position (len(a), hit) pairs.

    Picks are independent across blocks, so the signed average splits into
    per-position factors (len(a) - 2*hit) / len(a), with ``hit`` the number
    of elements the i-th pick block a shares with the i-th functional
    block; positions past either side contribute 1.  The numerators and
    denominators stay integers until one final Fraction.
    """
    num = den = 1
    for size, hit in counts:
        num *= size - 2 * hit
        den *= size
    # an empty pick block leaves den == 0 and fails here, as it must
    return Fraction(num + den, 2 * den)


def _span_pairing(f_spans: tuple[Span, ...], v_spans: tuple[Span, ...]) -> Fraction:
    """``_pairing`` of a functional on an average, both given by spans."""
    return _pairing((a1 - a0 + 1, max(0, min(a1, b1) - max(a0, b0) + 1))
                    for (a0, a1), (b0, b1) in zip(v_spans, f_spans))


def evaluate(f: UnionFunctional, v: BlockAverage) -> Fraction:
    """Exact value of the functional on the average, by factorization."""
    return _pairing((len(a), len(set(a.elems).intersection(b.elems)))
                    for a, b in zip(v.blocks, f.blocks))


def evaluate_enumerated(f: UnionFunctional, v: BlockAverage) -> Fraction:
    """The same value by brute enumeration of all picks, read from one
    kernel grid against the support; the oracle route."""
    if v.index_count > _EXPLICIT_LIMIT:
        raise ValueError(f"{v.index_count} indices exceed the enumeration "
                         f"limit {_EXPLICIT_LIMIT}")
    total = int(parity_matrix(list(v.picks()), [f.support]).sum())
    return Fraction(total, v.index_count)


def self_pairing(chain: DeltaChain) -> Fraction:
    """The chain's functional on its own average: 1 at even depth, else 0."""
    return _span_pairing(chain.spans, chain.spans)


# ---------------------------------------------------------------------------
# the cancellation identity
# ---------------------------------------------------------------------------


def cancellation_error(support: FinSet, m: int, value: Fraction) -> AssertionError:
    """The error that a failed cancellation at ``support + m`` raises."""
    return AssertionError(f"cancellation failed at {support} + {m}: got {value}")


def cancellation_value(chain: DeltaChain, m: int) -> Fraction:
    """Pair the extended chain's functional against the chain average minus
    the extended average.  Exactly (-1)^k at depth k, and asserted so; the
    one-m case of ``cancellation_runs``.
    """
    (_, value), = cancellation_runs(chain, m, m + 1)
    if value != (-1) ** chain.depth:
        raise cancellation_error(chain.support, m, value)
    return value


def cancellation_runs(chain: DeltaChain, lo: int,
                      stop: int) -> Iterator[tuple[range, Fraction]]:
    """The cancellation pairings for every m in [lo, stop), lazily, as
    ``(run, value)`` pairs.  A run is a range of consecutive m whose
    extensions draw the same block, and it is paired once.  A generator
    reads only ``start_above(floor, depth)``, so every m up to max(level,
    last end) shares the block of ``lo``, drawn and checked once by
    ``_next_span``.  Each m above is an integer above ``lo``, so it passes
    the element and length checks ``lo`` passed, and is drawn with the
    block checks alone.  The caller compares each value with (-1)^k.
    """
    level, elems, spans, gen = (chain.level, chain.support.elems,
                                chain.spans, chain.generator)
    if not lo < stop:
        return
    # lo is checked before any range is built: range(True, 2) starts at 1
    span = _next_span(level, elems, spans, lo, gen)
    start = lo
    prev_end = spans[-1][1] if spans else 0
    m = max(lo, level, prev_end) + 1
    while m < stop:
        drawn = _drawn_span(level, prev_end, m, len(spans) + 1, gen)
        if drawn != span:
            yield range(start, m), _cancellation_pairing(spans, spans + (span,))
            start, span = m, drawn
        m += 1
    yield range(start, stop), _cancellation_pairing(spans, spans + (span,))


@lru_cache(maxsize=_SPAN_MEMO)
def _cancellation_pairing(spans: tuple[Span, ...],
                          extended: tuple[Span, ...]) -> Fraction:
    """The extended chain's functional on the chain average minus the
    extended average, all given by spans."""
    return _span_pairing(extended, spans) - _span_pairing(extended, extended)
