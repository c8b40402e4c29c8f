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

All arithmetic is exact.  ``evaluate`` works per block position: the hit
count of a pick block against a functional block comes from their endpoints
when both are intervals (as every generated block [p, 2p-1] is), and the
per-position numerators and denominators stay integers until one final
Fraction.  Chain validation concatenates the strictly increasing blocks'
tuples, so every prefix union is checked without re-sorting.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator, Optional, Union

from .family import Cube, _member, member, product_family
from .finset import FinSet, interval
from .kernel import Decomposition, block_sets, _parity_blocks, decompose

_EXPLICIT_LIMIT = 200_000


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
    hashing, so chains and their extensions are stable across runs.
    """

    seed: int
    spread: int = 8

    def next_start(self, n: int, prev_end: int, m: int, level: int = 0) -> int:
        lo = max(n, prev_end, m)
        rng = random.Random((self.seed * 1_000_003 + level) * 1_000_033 + lo)
        return lo + 1 + rng.randrange(self.spread)

    def describe(self) -> str:
        return f"seeded({self.seed})"


BlockGenerator = Union[CanonicalBlocks, SeededBlocks]


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaChain:
    level: int                     # the n of the ambient prod(schreier,cube(n,n))
    support: FinSet                # the chain set {m_1 < ... < m_k}
    blocks: tuple[FinSet, ...]     # one block per element, in order
    generator: BlockGenerator = CanonicalBlocks()

    def __post_init__(self):
        n, s, bs = self.level, self.support, self.blocks
        if n < 1:
            raise ChainError("level must be >= 1")
        if len(s) > n:
            raise ChainError(f"chain set {s} longer than level {n}")
        if len(bs) != len(s):
            raise ChainError("one block per chain element")
        prev = FinSet()
        for b in bs:
            if not b or len(b) != b.min:
                raise ChainError(f"{b} is not a maximal schreier set")
            if not prev.precedes(b):
                raise ChainError("blocks must increase strictly")
            prev = b
        if bs and bs[0].min <= n:
            raise ChainError(f"first block must start above the level {n}")
        # the blocks increase strictly, so each prefix union is the
        # concatenation of the leading blocks' tuples
        ambient = product_family(n)
        union: tuple[int, ...] = ()
        for b in bs:
            union += b.elems
            if not _member(ambient, union):
                raise ChainError(f"leading-block union {FinSet(union)} leaves "
                                 f"the level-{n} product family")

    @property
    def depth(self) -> int:
        return len(self.support)

    def union(self) -> FinSet:
        out: tuple[int, ...] = ()
        for b in self.blocks:
            out += b.elems
        return FinSet(out)

    def prefix(self, j: int) -> "DeltaChain":
        """The chain for the first j elements of the support."""
        if not 0 <= j <= self.depth:
            raise ChainError(f"no prefix of length {j}")
        return DeltaChain(self.level, FinSet(self.support.elems[:j]),
                          self.blocks[:j], self.generator)

    def extend(self, m: int, generator: Optional[BlockGenerator] = None) -> "DeltaChain":
        """Append the chain element m (m > max support) with a fresh block."""
        if m <= self.support.max_or_0:
            raise ChainError(f"{m} does not extend {self.support}")
        if self.depth + 1 > self.level:
            raise ChainError(f"level {self.level} admits chains of length "
                             f"<= {self.level}")
        gen = generator if generator is not None else self.generator
        prev_end = self.blocks[-1].max if self.blocks else 0
        p = gen.next_start(self.level, prev_end, m, level=self.depth + 1)
        block = interval(p, 2 * p - 1)
        return DeltaChain(self.level, self.support.with_element(m),
                          self.blocks + (block,), gen)


def build_chain(level: int, support: FinSet,
                generator: BlockGenerator = CanonicalBlocks()) -> DeltaChain:
    """Blocks for every prefix of ``support``, drawn by ``generator``."""
    chain = DeltaChain(level, FinSet(), (), generator)
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
    if not member(product_family(chain.level), t):
        raise ChainError(f"{t} left the level-{chain.level} product family")
    d = decompose(t)
    if d.blocks != chain.blocks:
        raise ChainError("decomposition does not recover the chain blocks")
    return UnionFunctional(chain.level, t, d)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(f: UnionFunctional, v: BlockAverage) -> Fraction:
    """Exact value of the functional on the average, by factorization.

    Picks are independent across blocks, so the signed average splits into
    per-position factors (len(a) - 2*hit) / len(a), with ``hit`` the number
    of elements the i-th pick block a shares with the i-th functional block
    b; positions past either side contribute 1.  When both blocks are
    intervals (a FinSet e is one exactly when e[-1] - e[0] + 1 == len(e))
    the count comes from the endpoints, else from a set intersection.  The
    numerators and denominators stay integers until one final Fraction.
    """
    num = den = 1
    for pick, block in zip(v.blocks, f.blocks):
        a, b = pick.elems, block.elems
        if (a and b and a[-1] - a[0] + 1 == len(a)
                and b[-1] - b[0] + 1 == len(b)):
            hit = max(0, min(a[-1], b[-1]) - max(a[0], b[0]) + 1)
        else:
            hit = len(set(a).intersection(b))
        num *= len(a) - 2 * hit
        den *= len(a)
    # an empty pick block leaves den == 0 and fails here, as it must
    return Fraction(num + den, 2 * den)


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
    return evaluate(union_functional(chain), block_average(chain))


# ---------------------------------------------------------------------------
# the cancellation identity
# ---------------------------------------------------------------------------


def cancellation_value(chain: DeltaChain, m: int,
                       generator: Optional[BlockGenerator] = None) -> Fraction:
    """Pair the extended chain's functional against the chain average minus
    the extended average.  Exactly (-1)^k at depth k, and asserted so.
    """
    extended = chain.extend(m, generator)
    f = union_functional(extended)
    value = evaluate(f, block_average(chain)) - evaluate(f, block_average(extended))
    k = chain.depth
    if value != Fraction(-1) ** k:
        raise AssertionError(
            f"cancellation failed at {chain.support} + {m}: got {value}")
    return value
