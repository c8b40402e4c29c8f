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
span; every generated block is an interval [p, 2p-1], so validation, the
union's membership and decomposition checks and the pairings run on those
endpoints in integer steps.  Blocks become FinSets only when a caller
reads ``blocks`` or ``union()`` or asks for the public ``block_average``
and ``union_functional`` objects.  One core evaluates every pairing: the
product over block positions of (len(a) - 2*hit) / len(a), kept in
integers until one final Fraction.  The hit count comes from endpoints on
spans, and from a set intersection on the FinSets of ``evaluate``.

The span-level work is memoized on plain integer tuples, never on a family
expression: the chain checks on ``(level, spans)`` (membership of every
leading union in the level's product family and, for a full chain, its
decomposition into exactly the chain blocks) and the cancellation pairing
on ``(chain spans, extended spans)``.  A one-step extension depends on m
only through max(n, previous end, m), so a sweep meets the same few
hundred keys again and again.  The chain checks run once per distinct key
when a ``DeltaChain`` is built, and nothing repeats them; a failing check
raises and is not memoized.  The type, maximality and order checks of
``DeltaChain`` run on every construction, before the memo is consulted, so
a float end never hits the memo entry of its integer twin.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Iterable, Iterator, Optional, Union

from .family import Cube, _member_run_prefix, member, product_family
from .finset import EMPTY, FinSet, interval
from .kernel import Decomposition, block_sets, _decompose_runs, _parity_blocks

_EXPLICIT_LIMIT = 200_000
_DRAW_MEMO = 4096  # draws kept: uncapped verify asks for at most 2901 distinct ones
# keys kept per span memo: an uncapped verify suite asks one memo for at most
# 1439 distinct keys, the bench's tree sweep for 331
_SPAN_MEMO = 4096

Span = tuple[int, int]  # a block [start, end] of consecutive integers


class ChainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# block generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalBlocks:
    """Deterministic dyadic blocks [p, 2p-1].

    The first start p_1 is the least power of two strictly above
    max(n, m_1); each later start is the least power of two strictly above
    both the previous block's end and the new chain element.
    """

    def next_start(self, n: int, prev_end: int, m: int, level: int = 0) -> int:
        # level is unused: canonical starts do not depend on the depth
        lo = max(n, prev_end, m)
        p = 1
        while p <= lo:
            p *= 2
        return p

    def describe(self) -> str:
        return "canonical"


@dataclass(frozen=True)
class SeededBlocks:
    """Random admissible blocks [c, 2c-1], reproducible from the seed alone.

    The draw for level i depends only on (seed, i, floor), never on Python
    hashing, so chains and their extensions are stable across runs; it is
    memoized on (seed, spread, level, floor), so a repeated key does not
    reseed a Random.
    """

    seed: int
    spread: int = 8

    def next_start(self, n: int, prev_end: int, m: int, level: int = 0) -> int:
        return _seeded_start(self.seed, self.spread, level, max(n, prev_end, m))

    def describe(self) -> str:
        return f"seeded({self.seed})"


@lru_cache(maxsize=_DRAW_MEMO)
def _seeded_start(seed: int, spread: int, level: int, lo: int) -> int:
    rng = random.Random((seed * 1_000_003 + level) * 1_000_033 + lo)
    return lo + 1 + rng.randrange(spread)


BlockGenerator = Union[CanonicalBlocks, SeededBlocks]


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def _expand(spans: Iterable[Span]) -> tuple[int, ...]:
    return tuple(itertools.chain.from_iterable(range(a, b + 1)
                                               for a, b in spans))


@lru_cache(maxsize=_SPAN_MEMO)
def _leading_members(level: int, spans: tuple[Span, ...]) -> int:
    """How many leading unions of ``spans`` lie in the level's product
    family; when all do, ChainError unless the union decomposes into
    exactly the blocks ``spans``."""
    # Membership and decomposition walk the spans, O(blocks) integer steps
    # per miss.  Element routes cost O(block size) instead: on a seeded
    # ``tree sweep --n 1 --seeds 1 --m-max 3000``, which misses on every
    # case, they took 0.78 s against these routes' 0.36 s on a 2-core VM.
    j = _member_run_prefix(product_family(level), spans)
    if spans and j == len(spans) and \
            _decompose_runs(spans) != tuple(((a, b),) for a, b in spans):
        raise ChainError("decomposition does not recover the chain blocks")
    return j


@dataclass(frozen=True)
class DeltaChain:
    level: int                     # the n of the ambient prod(schreier,cube(n,n))
    support: FinSet                # the chain set {m_1 < ... < m_k}
    spans: tuple[Span, ...]        # one block [start, end] per element, in order
    generator: BlockGenerator = CanonicalBlocks()

    def __post_init__(self):
        n, s, spans = self.level, self.support, self.spans
        if type(n) is not int:
            raise ChainError(f"level {n!r} must be an integer")
        if n < 1:
            raise ChainError("level must be >= 1")
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
        j = _leading_members(n, spans)
        if j < len(spans):
            raise ChainError(f"leading-block union {FinSet(_expand(spans[:j + 1]))} "
                             f"leaves the level-{n} product family")

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
        return DeltaChain(self.level, FinSet(self.support.elems[:j]),
                          self.spans[:j], self.generator)

    def extend(self, m: int, generator: Optional[BlockGenerator] = None) -> "DeltaChain":
        """Append the chain element m (m > max support) with a fresh block."""
        n, support, spans = self.level, self.support, self.spans
        if m <= support.max_or_0:
            raise ChainError(f"{m} does not extend {support}")
        k = len(spans)
        if k + 1 > n:
            raise ChainError(f"level {n} admits chains of length <= {n}")
        gen = generator if generator is not None else self.generator
        p = gen.next_start(n, spans[-1][1] if spans else 0, m, level=k + 1)
        return DeltaChain(n, FinSet(support.elems + (m,)),
                          spans + ((p, 2 * p - 1),), gen)


def build_chain(level: int, support: FinSet,
                generator: BlockGenerator = CanonicalBlocks()) -> DeltaChain:
    """Blocks for every prefix of ``support``, drawn by ``generator``."""
    chain = DeltaChain(level, EMPTY, (), generator)
    for m in support:
        chain = chain.extend(m)
    return chain


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

    def indices(self) -> Iterator[FinSet]:
        for pick in itertools.product(*(b.elems for b in self.blocks)):
            yield FinSet(pick)

    def explicit(self) -> dict[FinSet, Fraction]:
        """The full index-to-weight map; guarded against huge products."""
        if self.index_count > _EXPLICIT_LIMIT:
            raise ValueError(f"{self.index_count} indices exceed the "
                             f"explicit-map limit {_EXPLICIT_LIMIT}")
        w = self.weight
        out = {u: w for u in self.indices()}
        cube = Cube(self.level, self.level) if self.level >= 1 else None
        for u in out:
            if len(u) != self.depth or (cube and not member(cube, u)):
                raise AssertionError(f"index {u} violates the level bound")
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
    """The same value by brute enumeration of all picks; the oracle route."""
    if v.index_count > _EXPLICIT_LIMIT:
        raise ValueError(f"{v.index_count} indices exceed the enumeration "
                         f"limit {_EXPLICIT_LIMIT}")
    fb = block_sets(f.decomposition) if f.decomposition else ()
    total = sum(_parity_blocks(u.elems, fb) for u in v.indices())
    return Fraction(total, v.index_count)


def self_pairing(chain: DeltaChain) -> Fraction:
    """The chain's functional on its own average: 1 at even depth, else 0."""
    return _span_pairing(chain.spans, chain.spans)


# ---------------------------------------------------------------------------
# the cancellation identity
# ---------------------------------------------------------------------------


def cancellation_value(chain: DeltaChain, m: int,
                       generator: Optional[BlockGenerator] = None) -> Fraction:
    """Pair the extended chain's functional against the chain average minus
    the extended average.  Exactly (-1)^k at depth k, and asserted so.
    """
    extended = chain.extend(m, generator)
    value = _cancellation_pairing(chain.spans, extended.spans)
    k = chain.depth
    if value != (-1) ** k:
        raise AssertionError(
            f"cancellation failed at {chain.support} + {m}: got {value}")
    return value


@lru_cache(maxsize=_SPAN_MEMO)
def _cancellation_pairing(spans: tuple[Span, ...],
                          extended: tuple[Span, ...]) -> Fraction:
    """The extended chain's functional on the chain average minus the
    extended average, all given by spans."""
    return _span_pairing(extended, spans) - _span_pairing(extended, extended)
