"""Chains of block averages and the exact cancellation identity.

Every evaluation has two routes: the per-block factorization and the brute
enumeration of all picks.  The identity tests lean on the factorized form
(the enumerated one is the oracle and is compared against it directly).
"""

import contextlib
import io
import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schreier_kit import averaging, cli
from schreier_kit.averaging import (
    BlockAverage,
    CanonicalBlocks,
    ChainError,
    DeltaChain,
    SeededBlocks,
    UnionFunctional,
    block_average,
    build_chain,
    cancellation_value,
    evaluate,
    evaluate_enumerated,
    self_pairing,
    union_functional,
)
from schreier_kit.family import Cube, member, product_family
from schreier_kit.finset import EMPTY, FinSet, interval
from schreier_kit.kernel import Decomposition, decompose


class TestBlockGenerators:
    def test_canonical_starts_are_the_next_power_of_two(self):
        g = CanonicalBlocks()
        assert g.start_above(3, 1) == 4
        assert g.start_above(7, 2) == 8
        assert g.start_above(15, 3) == 16
        assert g.start_above(1, 1) == 2
        assert g.describe() == "canonical"

    def test_canonical_start_matches_the_doubling_loop(self):
        g = CanonicalBlocks()
        for floor in range(4097):
            p = 1
            while p <= floor:
                p *= 2
            assert g.start_above(floor, 1) == g.start_above(floor, 4) == p

    def test_seeded_starts_stay_in_the_spread_window(self):
        g = SeededBlocks(7)
        for depth in range(1, 4):
            for floor in (3, 9, 20):
                p = g.start_above(floor, depth)
                assert floor + 1 <= p <= floor + averaging._SPREAD
        assert g.describe() == "seeded(7)"

    def test_seeded_draws_are_pinned(self):
        # each draw reads (seed, level, floor) and nothing else
        c = build_chain(4, FinSet((2, 5, 9)), SeededBlocks(7))
        assert c.spans == ((12, 23), (26, 51), (53, 105))
        c = build_chain(3, FinSet((1, 2, 3)), SeededBlocks(123456))
        assert c.spans == ((9, 17), (20, 39), (43, 85))

    def test_seeded_draws_are_reproducible(self):
        a = build_chain(3, FinSet((4, 6)), SeededBlocks(7))
        b = build_chain(3, FinSet((4, 6)), SeededBlocks(7))
        assert a == b
        other = build_chain(3, FinSet((4, 6)), SeededBlocks(8))
        assert other.blocks != a.blocks


class TestChains:
    def test_canonical_chain_blocks(self):
        c = build_chain(2, FinSet((3, 5)))
        assert c.spans == ((4, 7), (8, 15))
        assert c.blocks == (interval(4, 7), interval(8, 15))
        assert c.union() == interval(4, 15)
        assert c.depth == 2

    def test_prefix_slices_support_and_blocks_together(self):
        c = build_chain(2, FinSet((3, 5)))
        p = c.prefix(1)
        assert p.support == FinSet((3,))
        assert p.blocks == (interval(4, 7),)
        assert c.prefix(0).depth == 0
        with pytest.raises(ChainError, match="no prefix"):
            c.prefix(3)

    def test_extension_rules(self):
        c = build_chain(2, FinSet((3, 5)))
        with pytest.raises(ChainError, match="does not extend"):
            c.extend(4)
        with pytest.raises(ChainError, match="chains of length <= 2"):
            c.extend(9)
        d = c.prefix(1).extend(6)
        assert d.support == FinSet((3, 6))
        assert d.blocks[1] == interval(8, 15)

    @pytest.mark.parametrize("args,message", [
        ((0, EMPTY, ()), "level must be >= 1"),
        ((1, FinSet((2, 3)), ((4, 7), (8, 15))), "longer than level"),
        ((2, FinSet((3,)), ((2, 3),)), "start above the level"),
        ((2, FinSet((3,)), ((4, 6),)), "not a maximal schreier"),
        ((2, FinSet((3, 5)), ((8, 15), (4, 7))), "increase strictly"),
        ((2, FinSet((3, 5)), ((4, 7),)), "one block per"),
        ((2, FinSet((3,)), ((4.0, 7),)), "integer ends"),
        ((2, FinSet((3,)), ((True, 1),)), "integer ends"),
    ])
    def test_invalid_chains_are_rejected(self, args, message):
        with pytest.raises(ChainError, match=message):
            DeltaChain(*args)

    def test_build_chain_refuses_a_tuple_chain_set_before_any_draw(self):
        drawn = []

        class Recording:
            def start_above(self, floor, depth):
                drawn.append((floor, depth))
                return CanonicalBlocks().start_above(floor, depth)

        with pytest.raises(ChainError) as by_build:
            build_chain(2, (3,), Recording())
        with pytest.raises(ChainError) as by_init:
            DeltaChain(2, (3,), ((4, 7),))
        assert str(by_build.value) == str(by_init.value) == (
            "chain set (3,) must be a FinSet")
        assert drawn == []


class TestAverages:
    def test_weights_and_index_counts(self):
        v = block_average(build_chain(2, FinSet((3, 5))))
        assert v.index_count == 4 * 8
        assert v.weight == Fraction(1, 32)
        picks = list(v.indices())
        assert len(picks) == 32
        assert picks[0] == FinSet((4, 8))
        assert all(len(u) == 2 for u in picks)
        assert [FinSet(u) for u in v.picks()] == picks

    def test_explicit_map_sums_to_one(self):
        v = block_average(build_chain(2, FinSet((3, 5))))
        table = v.explicit()
        assert sum(table.values()) == 1
        assert set(table) == set(v.indices())

    @pytest.mark.parametrize("v,message", [
        # two blocks at level 1: every pick is longer than the level allows
        (BlockAverage(1, (interval(4, 7), interval(8, 15))),
         "index {4,8} violates the level bound"),
        # the first block starts below the level 3: picks from 2 fail
        (BlockAverage(3, (interval(2, 3), interval(4, 7))),
         "index {2,4} violates the level bound"),
    ])
    def test_explicit_map_names_the_first_pick_out_of_the_level(
            self, v, message):
        with pytest.raises(AssertionError) as err:
            v.explicit()
        assert str(err.value) == message

    def test_explicit_asks_the_first_pick_what_every_pick_would_answer(self):
        # the level bound of every pick, in product order, against the one
        # ``explicit`` asks of the first pick only
        for level in range(1, 5):
            for starts in itertools.combinations(range(1, 12), 2):
                for depth in (1, 2):
                    blocks = tuple(interval(a, a + 1) for a in starts[:depth])
                    if depth == 2 and blocks[0].max >= blocks[1].min:
                        continue
                    v = BlockAverage(level, blocks)
                    cube = Cube(level, level)
                    bad = [u for u in v.indices() if not member(cube, u)]
                    if not bad:
                        assert sum(v.explicit().values()) == 1
                        continue
                    with pytest.raises(AssertionError) as err:
                        v.explicit()
                    assert str(err.value) == (
                        f"index {bad[0]} violates the level bound")

    def test_explicit_map_is_guarded(self):
        huge = BlockAverage(3, (interval(512, 1023),) * 3)
        with pytest.raises(ValueError, match="explicit-map limit"):
            huge.explicit()
        f = union_functional(build_chain(3, FinSet((4,))))
        with pytest.raises(ValueError, match="enumeration limit"):
            evaluate_enumerated(f, huge)


class TestEvaluation:
    def test_empty_chain_gives_the_constant_one(self):
        f = union_functional(build_chain(2, EMPTY))
        assert f.decomposition is None and f.blocks == ()
        v = block_average(build_chain(2, FinSet((3,))))
        assert evaluate(f, v) == 1
        assert evaluate_enumerated(f, v) == 1

    def test_half_overlap_gives_one_half(self):
        # functional pinned to {4,5}, average picking from [4,7]
        f_chain = build_chain(2, FinSet((3, 5)))
        f = union_functional(f_chain)
        assert evaluate(f, block_average(f_chain.prefix(1))) == 0

        t = FinSet((4, 5))
        g = UnionFunctional(2, t, decompose(t))
        v = BlockAverage(2, (interval(4, 7),))
        assert evaluate(g, v) == Fraction(1, 2)
        assert evaluate_enumerated(g, v) == Fraction(1, 2)

    def test_factorized_equals_enumerated_on_canonical_chains(self):
        for n in (1, 2, 3):
            c = build_chain(n, FinSet(tuple(range(n + 1, 2 * n + 1))))
            f = union_functional(c)
            for j in range(c.depth + 1):
                v = block_average(c.prefix(j))
                assert evaluate(f, v) == evaluate_enumerated(f, v), (n, j)

    def test_empty_pick_block_fails(self):
        f = union_functional(build_chain(2, FinSet((3,))))
        with pytest.raises(ZeroDivisionError):
            evaluate(f, BlockAverage(2, (EMPTY,)))

    def test_self_pairing_depends_only_on_depth_parity(self):
        assert self_pairing(build_chain(2, EMPTY)) == 1
        assert self_pairing(build_chain(2, FinSet((3,)))) == 0
        assert self_pairing(build_chain(2, FinSet((3, 5)))) == 1
        assert self_pairing(build_chain(3, FinSet((4, 6, 8)))) == 0


def _spaced(start: int, size: int, stride: int) -> FinSet:
    """size elements from start on, stride apart: an interval at stride 1."""
    return FinSet(tuple(range(start, start + stride * size, stride)))


@st.composite
def _functionals(draw):
    """A hand-built functional: maximal schreier blocks, then a schreier
    final block, each an interval or spread out like {3,5,7}."""
    depth = draw(st.integers(0, 3))
    if not depth:
        return UnionFunctional(2, EMPTY, None)
    blocks = []
    lo = draw(st.integers(depth, 5))  # block minima form a schreier set
    for i in range(depth):
        start = lo + draw(st.integers(0, 2))
        size = start if i < depth - 1 else draw(st.integers(1, start))
        blocks.append(_spaced(start, size, draw(st.integers(1, 2))))
        lo = blocks[-1].max + 1
    d = Decomposition(tuple(blocks))
    return UnionFunctional(depth, d.support, d)


@st.composite
def _pairs(draw):
    """A functional and an average whose i-th pick block starts near the
    functional's i-th block, so the two overlap partly, fully or not."""
    f = draw(_functionals())
    blocks = []
    lo = 1
    for i in range(draw(st.integers(0, 4))):
        if i < len(f.blocks):
            near = f.blocks[i]
            start = max(lo, draw(st.integers(near.min - 3, near.max + 1)))
        else:
            start = lo + draw(st.integers(0, 3))
        blocks.append(_spaced(start, draw(st.integers(1, 4)),
                              draw(st.integers(1, 3))))
        lo = blocks[-1].max + 1
    return f, BlockAverage(2, tuple(blocks))


def _functional_on(t: FinSet) -> UnionFunctional:
    return UnionFunctional(2, t, decompose(t))


@settings(derandomize=True, max_examples=300)
@given(_pairs())
# a non-interval maximal schreier block against an interval, and back
@example((_functional_on(FinSet((3, 5, 7))),
          BlockAverage(2, (interval(4, 7),))))
@example((_functional_on(interval(4, 7)),
          BlockAverage(2, (FinSet((3, 5, 7)),))))
# intervals overlapping partly, at either end
@example((_functional_on(interval(4, 15)),
          BlockAverage(2, (interval(2, 5), interval(13, 17)))))
# more pick blocks than functional blocks, and fewer
@example((_functional_on(FinSet((3, 5, 7))),
          BlockAverage(2, (interval(5, 6), FinSet((8, 10)),
                           interval(11, 12)))))
@example((_functional_on(FinSet((3, 4, 5, 6, 8, 10))),
          BlockAverage(2, (FinSet((4, 6)),))))
# the empty functional
@example((UnionFunctional(2, EMPTY, None),
          BlockAverage(2, (FinSet((3, 5, 7)), interval(8, 9)))))
def test_evaluate_matches_the_enumerated_oracle(pair):
    f, v = pair
    assert evaluate(f, v) == evaluate_enumerated(f, v)


class TestCancellation:
    def test_golden_values(self):
        assert cancellation_value(build_chain(1, EMPTY), 3) == 1
        assert cancellation_value(build_chain(2, FinSet((3,))), 5) == -1
        assert cancellation_value(build_chain(3, FinSet((4, 6))), 9) == 1

    def test_sign_alternates_with_depth(self):
        c = build_chain(4, EMPTY)
        m = 1
        for k in range(4):
            assert cancellation_value(c, m + 1) == Fraction(-1) ** k
            c = c.extend(m + 1)
            m = c.support.max

    def test_seeded_generators_satisfy_the_identity_too(self):
        base = build_chain(2, FinSet((3,)), SeededBlocks(11))
        for seed in range(5):
            # the chain's blocks drawn by one seed, its extension by another
            other = DeltaChain(2, base.support, base.spans, SeededBlocks(seed))
            assert cancellation_value(other, 7) == -1

    def test_functional_recovers_chain_blocks(self):
        c = build_chain(2, FinSet((3, 5)))
        f = union_functional(c)
        assert f.blocks == c.blocks
        assert f.support == c.union()
        assert f.level == 2


_MEMOS = (averaging._cancellation_pairing,)


@st.composite
def _extensions(draw):
    """A chain one short of its level, and an element that extends it."""
    level = draw(st.integers(1, 4))
    support = FinSet(tuple(sorted(draw(st.sets(st.integers(1, 12),
                                               max_size=level - 1)))))
    seed = draw(st.one_of(st.none(), st.integers(0, 40)))
    gen = CanonicalBlocks() if seed is None else SeededBlocks(seed)
    m = support.max_or_0 + draw(st.integers(1, 6))
    return build_chain(level, support, gen), m


def _assert_valid_by_elements(chain):
    """Every leading union lies in the level's product family and
    decomposes into exactly the leading blocks, by the element routes."""
    fam = product_family(chain.level)
    for j in range(chain.depth + 1):
        lead = chain.prefix(j)
        assert member(fam, lead.union()), lead.spans
        if j:
            assert decompose(lead.union()).blocks == lead.blocks, lead.spans


class TestChainValidity:
    @settings(derandomize=True, max_examples=200)
    @given(_extensions())
    def test_built_chains_are_valid_by_the_element_routes(self, case):
        chain, m = case
        _assert_valid_by_elements(chain)
        _assert_valid_by_elements(chain.extend(m))

    def test_every_accepted_span_tuple_is_valid_by_the_element_routes(self):
        # every increasing tuple of starts <= 40, up to the level's depth;
        # an end other than 2a-1 already fails the block-size check
        for level in range(1, 5):
            accepted = 0
            for depth in range(level + 1):
                support = FinSet(tuple(range(1, depth + 1)))
                for starts in itertools.combinations(range(1, 41), depth):
                    try:
                        chain = DeltaChain(level, support,
                                           tuple((a, 2 * a - 1) for a in starts))
                    except ChainError:
                        continue
                    _assert_valid_by_elements(chain)
                    accepted += chain.depth == level
            assert accepted > 0, level


class TestSpanMemos:
    @settings(derandomize=True, max_examples=200)
    @given(_extensions())
    def test_memos_agree_with_their_originals(self, case):
        chain, m = case
        ext = chain.extend(m)
        pair = (chain.spans, ext.spans)
        assert (averaging._cancellation_pairing(*pair)
                == averaging._cancellation_pairing.__wrapped__(*pair))
        # the public route: evaluate on the objects the CLI prints
        f = union_functional(ext)
        by_evaluate = (evaluate(f, block_average(chain))
                       - evaluate(f, block_average(ext)))
        assert cancellation_value(chain, m) == by_evaluate == (-1) ** chain.depth

    def test_float_ends_are_rejected_after_the_integer_twin_is_cached(self):
        DeltaChain(1, FinSet((1,)), ((2, 3),))
        with pytest.raises(ChainError, match="integer ends"):
            DeltaChain(1, FinSet((1,)), ((2.0, 3),))
        with pytest.raises(ChainError, match="must be an integer"):
            DeltaChain(1.0, FinSet((1,)), ((2, 3),))
        with pytest.raises(ChainError, match="tuple of spans"):
            DeltaChain(1, FinSet((1,)), [(2, 3)])
        with pytest.raises(ChainError, match="not a .start, end. tuple"):
            DeltaChain(1, FinSet((1,)), ([2, 3],))

    def test_failed_checks_raise_every_time_and_are_not_kept(self):
        # neither is a chain's spans: [2,5] and [3,4] are not maximal
        # schreier blocks
        before = averaging._cancellation_pairing.cache_info().currsize
        for _ in range(2):
            for args in ((1, FinSet((1,)), ((2, 5),)),
                         (2, FinSet((1, 2)), ((3, 4), (5, 7)))):
                with pytest.raises(ChainError, match="not a maximal schreier"):
                    DeltaChain(*args)
        assert averaging._cancellation_pairing.cache_info().currsize == before

    def test_every_memo_has_the_module_bound(self):
        for memo in _MEMOS:
            assert memo.cache_info().maxsize == averaging._SPAN_MEMO

    def test_a_sweep_goes_through_the_cancellation_memo(self):
        # time-free guard: one miss per distinct (chain, extension) span
        # pair, and one lookup per run of consecutive m with equal extensions
        memo = averaging._cancellation_pairing
        memo.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["tree", "sweep", "--n", "3", "--seeds", "3"]) == 0
        gens = [CanonicalBlocks()] + [SeededBlocks(s) for s in range(1, 4)]
        pairs, runs, cases = set(), 0, 0
        for r in range(3):
            for els in itertools.combinations(range(1, 10), r):
                for gen in gens:
                    chain = build_chain(3, FinSet(els), gen)
                    ms = range(max(els, default=0) + 1, 13)
                    extended = [chain.extend(m).spans for m in ms]
                    pairs.update((chain.spans, ext) for ext in extended)
                    runs += sum(1 for _ in itertools.groupby(extended))
                    cases += len(ms)
        info = memo.cache_info()
        assert info.misses == len(pairs) == 63
        assert info.hits == runs - len(pairs) > 0
        assert runs < cases


@dataclass(frozen=True)
class _RogueBlocks:
    """Canonical starts except where ``flaw`` breaks a chain rule."""

    flaw: str

    def start_above(self, floor, depth):
        p = CanonicalBlocks().start_above(floor, depth)
        if self.flaw == "overlap" and depth > 1:
            return floor
        if self.flaw == "low first" and depth == 1:
            return 1
        if self.flaw == "zero":
            return 0
        if self.flaw == "float":
            return float(p)
        return p

    def describe(self):
        return f"rogue({self.flaw})"


def _grid():
    """Chains of levels 1-4 on every support inside [1..9] of at most
    ``level`` elements, canonical and seeded."""
    gens = [CanonicalBlocks()] + [SeededBlocks(s) for s in range(1, 6)]
    for level in range(1, 5):
        for r in range(level + 1):
            for els in itertools.combinations(range(1, 10), r):
                for gen in gens:
                    yield level, FinSet(els), gen


class TestSpanHelper:
    """``build_chain``, ``extend`` and ``cancellation_value`` each check one
    new span per step; these pin them to the chain-by-chain route."""

    def test_unchecked_routes_equal_the_checked_constructor(self):
        # build_chain, extend and prefix skip __post_init__; rebuilding each
        # of their chains through it must pass and give an equal chain
        def checked(c):
            rebuilt = DeltaChain(c.level, c.support, c.spans, c.generator)
            assert rebuilt == c and hash(rebuilt) == hash(c), c.spans
            assert type(c.support) is FinSet and type(c.spans) is tuple
            return c

        for level, support, gen in _grid():
            chain = checked(build_chain(level, support, gen))
            grown = checked(build_chain(level, EMPTY, gen))
            for m in support:
                grown = checked(grown.extend(m))
            for j in range(chain.depth + 1):
                assert checked(chain.prefix(j)) == DeltaChain(
                    level, FinSet(support.elems[:j]), chain.spans[:j], gen)

    @pytest.mark.parametrize("gen", [CanonicalBlocks(), SeededBlocks(2)] + [
        _RogueBlocks(flaw) for flaw in ("overlap", "low first", "float", "zero")])
    @pytest.mark.parametrize("level,support", [
        (1, FinSet((2, 3))), (2, FinSet((1, 2, 3))), (2, FinSet((3, 5, 9, 12))),
        (3, FinSet((2, 5))),
    ])
    def test_build_chain_refuses_as_folding_extend_refuses(
            self, level, support, gen):
        # the same first refusal, a bad draw before a support too long
        def folded():
            chain = DeltaChain(level, EMPTY, (), gen)
            for m in support:
                chain = chain.extend(m)
            return chain

        try:
            want = folded()
        except ChainError as err:
            with pytest.raises(ChainError) as by_build:
                build_chain(level, support, gen)
            assert str(by_build.value) == str(err)
        else:
            assert build_chain(level, support, gen) == want

    def test_build_chain_equals_folding_extend(self):
        for level, support, gen in _grid():
            chain = build_chain(level, support, gen)
            folded = DeltaChain(level, EMPTY, (), gen)
            for m in support:
                folded = folded.extend(m)
            assert (chain.spans, chain.support, chain.generator) == (
                folded.spans, folded.support, folded.generator)

    def test_cancellation_value_equals_the_extended_chain_route(self):
        for level, support, gen in _grid():
            chain = build_chain(level, support, gen)
            if chain.depth == level:
                continue
            for m in range(support.max_or_0 + 1, 13):
                want = averaging._cancellation_pairing(
                    chain.spans, chain.extend(m).spans)
                assert cancellation_value(chain, m) == want

    def test_runs_agree_with_the_per_m_route(self):
        # m up to 70 passes max(level, last end) for most chains, so runs
        # of several m above that floor are exercised as well as the floor run
        joined_above_floor = 0
        for level, support, gen in _grid():
            chain = build_chain(level, support, gen)
            if chain.depth == level:
                continue
            lo = support.max_or_0 + 1
            floor = max(level, chain.spans[-1][1] if chain.spans else 0)
            swept, blocks = [], []
            for run, value in averaging.cancellation_runs(chain, lo, 71):
                block = averaging._next_span(level, support.elems,
                                             chain.spans, run.start, gen)
                for m in run:
                    assert averaging._next_span(level, support.elems,
                                                chain.spans, m, gen) == block
                    assert cancellation_value(chain, m) == value
                    assert value == averaging._cancellation_pairing.__wrapped__(
                        chain.spans, chain.extend(m).spans)
                swept.extend(run)
                blocks.append(block)
                joined_above_floor += run.start > floor and len(run) > 1
            assert swept == list(range(lo, 71))
            # runs are maximal: neighbours draw different blocks
            assert all(a != b for a, b in zip(blocks, blocks[1:]))
        assert joined_above_floor > 100

    @pytest.mark.parametrize("flaw,level,support,message", [
        ("overlap", 3, FinSet((2, 5)), "increase strictly"),
        ("low first", 2, FinSet((3,)), "start above the level 2"),
        ("float", 2, FinSet((3,)), r"block \(4\.0, 7\.0\) needs integer ends"),
        ("zero", 2, FinSet((3,)), r"block \[0, -1\] is not a maximal schreier"),
    ])
    def test_rogue_generators_are_refused_by_every_route(
            self, flaw, level, support, message):
        rogue = _RogueBlocks(flaw)
        # a valid chain whose extensions the rogue draws
        valid = build_chain(level, FinSet(support.elems[:-1]))
        base = DeltaChain(level, valid.support, valid.spans, rogue)
        m = support.max
        for _ in range(2):
            with pytest.raises(ChainError, match=message):
                base.extend(m)
            with pytest.raises(ChainError, match=message):
                build_chain(level, support, rogue)
            with pytest.raises(ChainError, match=message):
                cancellation_value(base, m)
            with pytest.raises(ChainError, match=message):
                list(averaging.cancellation_runs(base, m, m + 40))

    @pytest.mark.parametrize("level,support,m,message", [
        (3, FinSet((2, 5)), 5, "5 does not extend {2,5}"),
        (3, FinSet((2, 5)), 3, "3 does not extend {2,5}"),
        (2, EMPTY, 0, "0 does not extend ∅"),
        (2, EMPTY, -4, "-4 does not extend ∅"),
        (2, FinSet((3,)), 5.0, "integers >= 1, got 5.0"),
        (2, EMPTY, True, "integers >= 1, got True"),
        (2, FinSet((3, 5)), 9, "chains of length <= 2"),
        (1, FinSet((1,)), 2, "chains of length <= 1"),
    ])
    def test_bad_extensions_give_the_extend_message(
            self, level, support, m, message):
        chain = build_chain(level, support, SeededBlocks(3))
        with pytest.raises(ChainError) as by_extend:
            chain.extend(m)
        with pytest.raises(ChainError) as by_cancellation:
            cancellation_value(chain, m)
        assert str(by_cancellation.value) == str(by_extend.value)
        with pytest.raises(ChainError) as by_runs:
            list(averaging.cancellation_runs(chain, m, m + 40))
        assert str(by_runs.value) == str(by_extend.value)
        assert message in str(by_extend.value)

    def test_a_sweep_builds_one_chain_per_chain_set_and_generator(
            self, monkeypatch):
        # 130 chain sets (subsets of [1..9] with at most 3 elements) times 31
        # generators; cancellation_runs builds no chain and build_chain one,
        # assembled from spans _next_span checked, so none is checked again
        assembled = checked = 0
        assemble, post_init = averaging._assembled, DeltaChain.__post_init__

        def counting_assemble(*args):
            nonlocal assembled
            assembled += 1
            return assemble(*args)

        def counting_post_init(self):
            nonlocal checked
            checked += 1
            post_init(self)

        monkeypatch.setattr(averaging, "_assembled", counting_assemble)
        monkeypatch.setattr(DeltaChain, "__post_init__", counting_post_init)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["tree", "sweep", "--n", "4", "--support-max", "9",
                             "--m-max", "12", "--seeds", "30"]) == 0
        assert assembled == 130 * 31 == 4030
        assert checked == 0
