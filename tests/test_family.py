"""Hereditary families: the expression language, membership, derivatives,
and symbolic ranks.

Membership has two independent routes: the structural fast path used by
`member` and the exhaustive composition search.  Enumeration likewise has a
pruned generator and an oracle built from the definitions (a powerset
filter at the leaves, chains of blocks for products), which is itself held
to the composition search subset by subset.  The agreement tests here pin
the two sides of each pair against one another on full truncations.
"""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreier_kit import family
from schreier_kit.family import (
    AP,
    All,
    Cube,
    DegenerateIndexError,
    Explicit,
    FamilySyntaxError,
    From,
    NotAMemberError,
    Powers,
    Product,
    Restrict,
    SCHREIER,
    SCHREIER_SQUARE,
    Schreier,
    base_family,
    derivative,
    effective_index,
    enumerate_members,
    enumerate_members_naive,
    extension_admissible,
    format_family,
    format_index,
    index_elements_between,
    is_maximal,
    iterated_derivative,
    member,
    member_by_composition_search,
    parse_family,
    parse_index,
    product_family,
    rank,
    rank_is_rule_derived,
    restricted,
    tail_threshold,
)
from schreier_kit.finset import EMPTY, FinSet
from schreier_kit.ordinal import ONE, Ordinal


def sets(expr, bound):
    return [str(s) for s in enumerate_members(expr, bound)]


class TestExpressionLanguage:
    CANONICAL = [
        "schreier",
        "S2",
        "cube(2,3)",
        "prod(schreier, cube(3,3))",
        "prod(cube(2,2), cube(3,3))",
        "restrict(schreier, powers(2))",
        "restrict(S2, from(4))",
        "restrict(schreier, ap(3,2))",
        "restrict(schreier, {2,5,9})",
        "restrict(restrict(schreier, powers(2)), from(3))",
    ]

    def test_canonical_strings_roundtrip(self):
        for text in self.CANONICAL:
            assert format_family(parse_family(text)) == text

    def test_whitespace_and_sugar(self):
        assert format_family(parse_family(" prod( schreier ,cube(3,3) ) ")) == \
            "prod(schreier, cube(3,3))"
        assert parse_family("S2") == SCHREIER_SQUARE
        assert format_family(Product(SCHREIER, SCHREIER)) == "S2"
        assert format_family(parse_family("prod(schreier, schreier)")) == "S2"

    def test_nested_expressions_hash_their_fields_once(self):
        calls = []

        class Leaf:
            def __hash__(self):
                calls.append(1)
                return 7

        leaf = Leaf()
        for node in (Product(leaf, SCHREIER), Restrict(leaf, Powers(2)),
                     family.Derived(leaf)):
            calls.clear()
            fields = tuple(vars(node)[f] for f in node.__dataclass_fields__)
            assert [hash(node) for _ in range(3)] == [hash(fields)] * 3
            assert len(calls) == 1   # ``fields``: the node hashed it when built
        for text in self.CANONICAL:
            a, b = parse_family(text), parse_family(text)
            assert a == b and hash(a) == hash(b)
            assert hash(derivative(a)) == hash(derivative(b))

    def test_index_literals_are_normalized(self):
        assert format_index(parse_index("{2,1,1}")) == "{1,2}"
        assert format_index(parse_index("all")) == "all"

    def test_each_index_kind_keeps_its_text_form(self):
        # All is a From is an AP: each prints its own form, not its parent's
        assert All() == All() and All().start == 1 and All().step == 1
        assert [format_index(i) for i in (All(), From(1), From(4), AP(4, 1),
                                          Powers(3), Powers(3, 0, 1))] == \
            ["all", "from(1)", "from(4)", "ap(4,1)", "powers(3)", "powers(3)"]
        for index in (Powers(3, 1, 1), Powers(3, 0, 2)):
            with pytest.raises(TypeError):
                format_index(index)
        with pytest.raises(ValueError):
            From(0)

    @pytest.mark.parametrize("text,offset,message", [
        ("schreir", 1, "expected a family expression"),
        ("powers(1)", 1, "expected a family expression"),
        ("cube(0,2)", 6, "cube"),
        ("cube( 0,2)", 7, "cube floor must be >= 1"),
        ("prod(schreier)", 14, "expected ','"),
        ("restrict(schreier,)", 19, "expected an index set"),
        ("cube(2,2)x", 10, "trailing"),
        ("cube(²,1)", 6, "expected a natural number"),
        ("restrict(schreier, {0,3})", 21, "set elements must be >= 1"),
    ])
    def test_family_syntax_errors(self, text, offset, message):
        with pytest.raises(FamilySyntaxError) as exc:
            parse_family(text)
        assert exc.value.offset == offset
        assert message in str(exc.value)

    @pytest.mark.parametrize("text,offset,message", [
        ("powers(1)", 8, "powers base must be >= 2"),
        ("from(0)", 6, "from() needs a start >= 1"),
        ("ap(0,2)", 4, "ap() needs a start >= 1"),
        ("ap(2,0)", 6, "ap() needs a step >= 1"),
        ("powers( 1)", 9, "powers base must be >= 2"),
        ("from( 0)", 7, "from() needs a start >= 1"),
        ("ap( 0,2)", 5, "ap() needs a start >= 1"),
        ("ap(2, 0)", 7, "ap() needs a step >= 1"),
        ("{1,2", 5, "expected '}'"),
    ])
    def test_index_syntax_errors(self, text, offset, message):
        with pytest.raises(FamilySyntaxError) as exc:
            parse_index(text)
        assert exc.value.offset == offset
        assert message in str(exc.value)


class TestIndexSets:
    def test_elements_between(self):
        # the window is the half-open (lo, hi]
        assert list(index_elements_between(All(), 3, 6)) == [4, 5, 6]
        assert list(index_elements_between(From(5), 3, 7)) == [5, 6, 7]
        assert list(index_elements_between(Powers(2), 1, 16)) == [2, 4, 8, 16]
        assert list(index_elements_between(AP(3, 2), 4, 11)) == [5, 7, 9, 11]
        assert list(index_elements_between(AP(3, 2), 11, 11)) == []
        assert list(index_elements_between(From(5), 0, 4)) == []
        assert list(index_elements_between(Explicit(FinSet((2, 5, 9))),
                                           2, 9)) == [5, 9]
        # a progression's window is a range, not a list of its elements
        assert len(index_elements_between(All(), 0, 10 ** 18)) == 10 ** 18

    def test_explicit_window_matches_a_scan(self):
        elems = (2, 5, 6, 9, 40)
        index = Explicit(FinSet(elems))
        for lo in range(-1, 42):
            assert index.first_above(lo) == \
                next((m for m in elems if m > lo), None)
            for hi in range(lo, 42):
                assert index_elements_between(index, lo, hi) == \
                    [m for m in elems if lo < m <= hi]
        assert Explicit(EMPTY).first_above(0) is None

    def test_explicit_members_must_be_a_finset(self):
        # a tuple would answer ``contains`` but break ``first_above``
        with pytest.raises(TypeError, match="needs a FinSet of members, "
                                            r"got \(2, 5, 9\)"):
            Explicit((2, 5, 9))

    def test_effective_index_folds_restrictions(self):
        expr = restricted(SCHREIER, Powers(2))
        assert format_index(effective_index(expr)) == "powers(2)"
        assert format_index(effective_index(SCHREIER)) == "all"

    def test_nested_finite_restriction_answers_in_either_order(self):
        # the finite part leads the intersection scan, so neither order of
        # the restrictions scans an infinite progression for a lost element
        answers = []
        for text in ("restrict(restrict(schreier, ap(2,2)), {3,5})",
                     "restrict(restrict(schreier, {3,5}), ap(2,2))"):
            start = time.perf_counter()
            answers.append(is_maximal(parse_family(text), EMPTY))
            assert time.perf_counter() - start < 1.0, text
        assert answers == [True, True]

    def test_disjoint_progressions_meet_at_once(self):
        # ap(3,3) and ap(1,3) share no element; the CRT says so without a scan
        expr = parse_family("restrict(restrict(schreier, ap(3,3)), ap(1,3))")
        start = time.perf_counter()
        assert effective_index(expr) == Explicit(EMPTY)
        assert is_maximal(expr, EMPTY)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("text, answer", [
        ("restrict(restrict(schreier, powers(2)), ap(3,2))", "true"),
        ("restrict(restrict(schreier, ap(3,2)), powers(2))", "true"),
        # 1000003 is prime and 2 generates its units: the residue cycle is
        # 1000002 long, no power of 2 is a multiple, 2**254277 is 3 mod it,
        # and no power of 4 is (254277 is odd)
        ("restrict(restrict(schreier, powers(2)), ap(1000003,1000003))",
         "true"),
        ("restrict(restrict(schreier, powers(4)), ap(3,1000003))", "true"),
        ("restrict(restrict(schreier, powers(2)), ap(3,1000003))", "false"),
    ])
    def test_powers_and_progression_answer_at_once(self, run_cli, text,
                                                   answer):
        start = time.perf_counter()
        code, out, err = run_cli(["fam", "maximal", text, "--s", "{}"])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert f'"maximal":{answer}' in out

    def test_powers_meet_a_progression_in_one_element(self):
        meet = family._meet(Powers(2), AP(2, 4))
        assert meet == Explicit(FinSet((2,)))
        assert index_elements_between(meet, 0, 2 ** 40) == [2]

    def test_powers_meet_a_progression_in_a_residue_class(self):
        meet = family._meet(Powers(2), AP(3, 1000003))
        assert meet.definitely_infinite
        first = meet.first_above(0)
        assert first == 2 ** 254277 and first % 1000003 == 3
        assert meet.first_above(first) == first * 2 ** 1000002
        assert meet.contains(first) and not meet.contains(first * 2)

    def test_coprime_powers_meet_in_one(self, run_cli):
        # 2 and 3 have no common root, so only 2**0 == 3**0 == 1 is shared
        assert family._meet(Powers(2), Powers(3)) == Explicit(FinSet((1,)))
        start = time.perf_counter()
        code, out, err = run_cli(
            ["fam", "maximal",
             "restrict(restrict(schreier, powers(2)), powers(3))",
             "--s", "{1}"])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert '"maximal":true' in out

    def test_powers_of_a_common_root_meet_in_its_powers(self):
        meet = family._meet(Powers(4), Powers(8))
        assert meet.definitely_infinite
        assert index_elements_between(meet, 0, 2 ** 120) == \
            [64 ** k for k in range(21)]
        assert [m for m in range(1, 5000) if meet.contains(m)] == [1, 64, 4096]
        with pytest.raises(TypeError):
            format_index(meet)

    def test_residue_walk_gives_up_past_the_scan_limit(self, monkeypatch):
        monkeypatch.setattr(family, "_SCAN_LIMIT", 1000)
        with pytest.raises(DegenerateIndexError,
                           match="gave up .* after 1,000 residue-walk steps"):
            family._meet(Powers(2), AP(5, 1000003))


@settings(derandomize=True, max_examples=300)
@given(st.integers(2, 12), st.integers(1, 30), st.integers(1, 30),
       st.integers(1, 200), st.permutations(range(3)))
def test_powers_meet_matches_brute_force(base, a0, a1, floor, order):
    parts = (Powers(base), AP(a0, a1), From(floor))
    x, y, z = (parts[i] for i in order)
    meet = family._meet(family._meet(x, y), z)
    hi = base ** 30
    want = [base ** k for k in range(31)
            if all(p.contains(base ** k) for p in parts)]
    assert index_elements_between(meet, 0, hi) == want
    beyond = meet.first_above(hi)
    assert beyond is None or (beyond > hi
                              and all(p.contains(beyond) for p in parts))


@settings(derandomize=True, max_examples=300)
@given(st.integers(2, 40), st.integers(2, 40), st.integers(1, 6),
       st.integers(1, 30), st.booleans())
def test_two_powers_meet_matches_brute_force(a, b, step, start, nested):
    parts = (Powers(a), Powers(b), AP(start, step))
    meet = family._meet(parts[0], parts[1])
    if nested:
        meet = family._meet(meet, parts[2])
    else:
        parts = parts[:2]
    hi = 2 ** 200
    want = sorted({a ** k for k in range(201) if a ** k <= hi
                   and all(p.contains(a ** k) for p in parts)})
    assert index_elements_between(meet, 0, hi) == want


PROGRESSIONS = st.one_of(st.just(All()), st.builds(From, st.integers(1, 12)),
                        st.builds(AP, st.integers(1, 12), st.integers(1, 12)))


@settings(derandomize=True, max_examples=200)
@given(PROGRESSIONS, PROGRESSIONS)
def test_progression_meet_matches_both_parts(a, b):
    meet = family._meet(a, b)
    if All() in (a, b):
        assert meet in (a, b)
    else:
        assert type(meet) is AP or meet == Explicit(EMPTY)
    for m in range(301):
        assert meet.contains(m) == (a.contains(m) and b.contains(m)), m


@st.composite
def fuzz_indexes(draw):
    kind = draw(st.sampled_from(("all", "from", "powers", "ap", "explicit")))
    if kind == "all":
        return All()
    if kind == "from":
        return From(draw(st.integers(1, 8)))
    if kind == "powers":
        return Powers(draw(st.integers(2, 4)))
    if kind == "ap":
        return AP(draw(st.integers(1, 6)), draw(st.integers(1, 5)))
    return Explicit(FinSet(tuple(sorted(draw(st.sets(st.integers(1, 12),
                                                      max_size=5))))))


def fuzz_families(depth=3):
    """schreier, cube, prod and restrict, at most ``depth`` constructors
    deep; no derivatives, which have no text form."""
    leaves = st.one_of(st.just(SCHREIER),
                       st.builds(Cube, st.integers(1, 4), st.integers(0, 3)))
    if depth == 0:
        return leaves
    inner = st.deferred(lambda: fuzz_families(depth - 1))
    return st.one_of(leaves, st.builds(Product, inner, inner),
                     st.builds(Restrict, inner, fuzz_indexes()))


FUZZ_SETS = [FinSet(els) for k in range(10)
             for els in itertools.combinations(range(1, 10), k)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(fuzz_families())
def test_fuzzed_families_agree_with_their_oracles(expr):
    assert parse_family(format_family(expr)) == expr
    members = [s for s in FUZZ_SETS if member(expr, s)]
    assert members == [s for s in FUZZ_SETS
                       if member_by_composition_search(expr, s)]
    # every one-point extension up to 400 against the tail probes: a horizon
    # for an infinite index, every candidate for a finite one (all <= 12)
    for s in members:
        if len(s) <= 2:
            brute = not any(family._member(expr, tuple(sorted(s.elems + (m,))))
                            for m in range(1, 401) if m not in s)
            assert is_maximal(expr, s) == brute, (format_family(expr), str(s))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(fuzz_families())
def test_effective_index_is_the_first_probe_index(expr):
    # two recursions, one fact; they stay apart because the probes also meet
    # a product's right factor, a residue walk that can give up where the
    # effective index answers at once
    for e in (expr, family.Derived(expr), Product(expr, family.Derived(expr))):
        assert effective_index(e) == family._probe_indexes(e)[0]


STEP_SETS = [els for k in range(5) for els in itertools.combinations(range(1, 9), k)]
# 9..13 meet every residue of the fuzzed progressions (steps <= 5) and the
# top of the explicit sets (<= 12); 16, 27 and 32 are powers of 2, 3 and 4,
# and 40 lies past all of them
STEP_PROBES = (9, 10, 11, 12, 13, 16, 27, 32, 40)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(fuzz_families())
def test_fuzzed_steps_agree_with_exhaustive_membership(expr):
    found = enumerate_members(expr, 8)
    assert found == enumerate_members_naive(expr, 8)
    assert found == sorted(found, key=lambda s: (len(s), s.elems))
    # every s in [1..8] with at most 4 elements, the empty set and
    # non-members included, stepped once to each probe; without a
    # derivative a state is None exactly off the members
    step = family._stepper(expr)[1]
    for els in STEP_SETS:
        state = family._state_of(expr, els)
        assert (state is not None) == family._member_exhaustive(expr, els), els
        for m in STEP_PROBES:
            stepped = state is not None and step(state, m) is not None
            assert stepped == family._member_exhaustive(expr, els + (m,)), (els, m)


def assert_naive_enumeration_is_composition_search(expr, bound):
    """``enumerate_members_naive`` lists, in length-then-lex order, exactly
    the subsets of [1..bound] that ``member_by_composition_search`` takes."""
    subsets = [FinSet(els) for k in range(bound + 1)
               for els in itertools.combinations(range(1, bound + 1), k)]
    assert enumerate_members_naive(expr, bound) == [
        s for s in subsets if member_by_composition_search(expr, s)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(fuzz_families(), st.integers(0, 10))
def test_fuzzed_naive_enumeration_agrees_with_composition_search(expr, bound):
    assert_naive_enumeration_is_composition_search(expr, bound)


@pytest.mark.parametrize("expr", [
    # right factors that are not _hereditary: every chain is walked
    parse_family("prod(schreier, prod(schreier, restrict(schreier, powers(2))))"),
    parse_family("prod(cube(1,2), prod(schreier, restrict(cube(1,2), ap(2,2))))"),
    # a derivative of a non-hereditary base is not even prefix-closed: it
    # holds {2,6,7} but not {2,6}, so a chain that leaves its list can
    # come back to it
    Product(SCHREIER, family.Derived(
        parse_family("prod(schreier, restrict(schreier, {2,4,5,7,11}))"))),
    # restrictions of products
    parse_family("restrict(S2, powers(2))"),
    parse_family("restrict(prod(cube(2,2), schreier), ap(1,2))"),
    parse_family("restrict(restrict(prod(schreier, S2), from(2)), ap(2,1))"),
], ids=["nested", "nested-cube", "derived", "restrict-S2",
        "restrict-prod", "restrict-restrict-prod"])
def test_naive_enumeration_of_named_products(expr):
    assert_naive_enumeration_is_composition_search(expr, 9)


def enumerate_by_tuples(expr, bound):
    """The frontier walk over element tuples, one ``FinSet`` per member
    built at the end: the route ``enumerate_members`` took before it
    carried ``FinSet``s grown by ``appended``."""
    universe = index_elements_between(effective_index(expr), 0, bound)
    init, step, final = family._stepper(expr)
    out = [()] if final(init) else []
    frontier = [((), init, 0)]
    while frontier:
        nxt = []
        for els, state, i in frontier:
            for m in universe[i:]:
                i += 1
                grown = step(state, m)
                if grown is not None:
                    nxt.append((els + (m,), grown, i))
        out.extend(els for els, state, _ in nxt if final(state))
        frontier = nxt
    return [FinSet(els) for els in out]


def assert_members_are_checked_sets(expr, bound):
    found = enumerate_members(expr, bound)
    assert found == enumerate_by_tuples(expr, bound)
    for s in found:
        assert type(s) is FinSet and s == FinSet(s.elems), s


@settings(derandomize=True, max_examples=100, deadline=None)
@given(fuzz_families(), st.integers(0, 8))
def test_fuzzed_enumerations_grow_checked_sets(expr, bound):
    assert_members_are_checked_sets(expr, bound)


@pytest.mark.parametrize("alpha", [1, 2, "w"])
def test_grid_enumerations_grow_checked_sets(alpha):
    # the bench's four: the K 14x14 and L 13x13 rows and columns at w
    for bound in (13, 14):
        assert_members_are_checked_sets(base_family(alpha), bound)
        assert_members_are_checked_sets(product_family(alpha), bound)


# A brute horizon for "infinitely many one-point extensions above s": 120
# consecutive points meet every residue of the fuzzed progressions and of
# their meets, and the powers of 2, 3 and 4 up to 10**9 reach the powers
# indexes.
HORIZON = tuple(range(300, 420)) + tuple(sorted(
    {b ** k for b in (2, 3, 4) for k in range(30) if 420 <= b ** k <= 10 ** 9}))


def derived_brute(expr, elems, depth, horizon=HORIZON):
    """Is elems in the depth-th derivative of expr?  Membership by
    composition search, and one member extension on the horizon above
    elems in the derivative one below for each derivative."""
    if depth == 0:
        return family._member_exhaustive(expr, elems)
    last = elems[-1] if elems else 0
    return derived_brute(expr, elems, depth - 1, horizon) and any(
        derived_brute(expr, elems + (m,), depth - 1, horizon)
        for m in horizon if m > last)


DERIVED_SETS = [els for k in range(4) for els in itertools.combinations(range(1, 9), k)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(fuzz_families())
def test_fuzzed_derivatives_agree_with_a_brute_horizon(expr):
    # the steps of every base, hereditary or not
    derived = family.Derived(expr)
    for els in DERIVED_SETS:
        assert family._member(derived, els) == derived_brute(expr, els, 1), \
            (format_family(expr), els)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(fuzz_families())
def test_fuzzed_double_derivatives_agree_with_a_recursive_brute(expr):
    # a derivative of a derivative probes through the inner one's steps; the
    # +1 of _tail_threshold is reached by the closed form of the iterated
    # schreier derivatives, not by this fuzz
    twice = family.Derived(family.Derived(expr))
    for els in DERIVED_SETS:
        if len(els) <= 1:
            assert family._member(twice, els) == derived_brute(expr, els, 2), \
                (format_family(expr), els)


def test_every_product_and_its_derivative_steps():
    for text in ["schreier", "cube(2,3)", "S2", "prod(S2, cube(1,2))",
                 "restrict(prod(cube(2,2), schreier), powers(3))",
                 "prod(schreier, restrict(schreier, powers(2)))",
                 "prod(schreier, S2)",
                 "prod(prod(cube(1,1), restrict(cube(1,1), {3,4})), schreier)",
                 "restrict(prod(schreier, prod(schreier, cube(1,1))), from(2))"]:
        expr = parse_family(text)
        for stepped in (expr, family.Derived(expr)):
            init, step, final = family._stepper(stepped)
            assert init is not None and callable(step) and callable(final), text
        found = enumerate_members(expr, 12)
        assert found == enumerate_members_naive(expr, 12), text
        # the frontier yields length-then-lex order without a sort
        assert found == sorted(found, key=lambda s: (len(s), s.elems)), text
    assert len(enumerate_members(
        parse_family("prod(schreier, restrict(schreier, powers(2)))"), 12)) > 100


# Products whose left factor is not hereditary: prod(schreier,
# restrict(schreier, powers(2))) holds {2,3} but not {3}, so the last block
# cannot always be closed early and the fewest blocks do not decide.
NON_HEREDITARY_LEFT = [
    "prod(prod(schreier, restrict(schreier, powers(2))), schreier)",
    "prod(restrict(prod(schreier, restrict(cube(1,2), powers(2))), from(2)), schreier)",
    "prod(prod(cube(1,2), restrict(cube(1,2), ap(2,2))), schreier)",
]


def test_products_with_a_non_hereditary_left_factor_keep_every_composition():
    expr = parse_family(NON_HEREDITARY_LEFT[0])
    # {2} {4,5,6,8,9} and {2,4,5,6} {8,9} are its compositions; the fewest
    # blocks take {2,4,5,6,8} as one left member and then cannot place 9
    s = FinSet((2, 4, 5, 6, 8, 9))
    assert member_by_composition_search(expr, s)
    assert member(expr, s)
    subsets = [els for k in range(7) for els in itertools.combinations(range(1, 11), k)]
    for text in NON_HEREDITARY_LEFT:
        expr = parse_family(text)
        for els in subsets:
            assert family._member(expr, els) == family._member_exhaustive(expr, els), \
                (text, els)


SCHREIER_AT_4 = ["∅", "{1}", "{2}", "{3}", "{4}", "{2,3}", "{2,4}", "{3,4}"]


class TestMembership:
    def test_schreier_examples(self):
        assert member(SCHREIER, EMPTY)
        assert member(SCHREIER, FinSet((2, 3)))
        assert member(SCHREIER, FinSet((3, 7, 9)))
        assert not member(SCHREIER, FinSet((1, 2)))
        assert not member(SCHREIER, FinSet((2, 3, 4)))

    def test_cube_examples(self):
        c = Cube(2, 2)
        assert member(c, FinSet((3, 9)))
        assert not member(c, FinSet((1,)))       # below the floor
        assert not member(c, FinSet((2, 3, 4)))  # too long

    def test_square_examples(self):
        assert member(SCHREIER_SQUARE, FinSet((2, 3, 5, 8, 9)))
        assert member(SCHREIER_SQUARE, FinSet((2, 3, 4)))
        assert not member(SCHREIER_SQUARE, FinSet((1, 2)))

    def test_restriction_intersects_with_the_index(self):
        r = restricted(SCHREIER, Powers(2))
        assert member(r, FinSet((2, 4)))
        assert not member(r, FinSet((2, 3)))

    @pytest.mark.parametrize("left", [
        derivative(Cube(1, 0)),  # the empty set is no member
        derivative(Cube(2, 2)),
        iterated_derivative(SCHREIER, 2),
        derivative(SCHREIER_SQUARE),
        # not prefix-closed: a block may open only after a member block
        derivative(parse_family("prod(schreier, restrict(schreier, {1,2}))")),
        derivative(parse_family(
            "prod(prod(schreier, restrict(cube(1,3), {1,2,3,4})), schreier)")),
    ])
    def test_products_of_derivatives_step_like_composition_search(self, left):
        for right in (SCHREIER, Cube(1, 2)):
            expr = Product(left, right)
            for els in family._powerset(range(1, 9)):
                want = not els or any(
                    family._member(right, mins) for mins in cut_compositions(
                        els, lambda b: family._member(left, b)))
                assert family._member(expr, els) == want, \
                    (format_family(right), els)

    def test_fast_path_agrees_with_composition_search(self):
        targets = [SCHREIER_SQUARE, product_family(2),
                   Product(Cube(2, 2), Cube(3, 3))]
        for expr in targets:
            for mask in range(1 << 8):
                s = FinSet(tuple(m for m in range(1, 9) if mask >> (m - 1) & 1))
                assert member(expr, s) == member_by_composition_search(expr, s), \
                    f"{format_family(expr)} disagrees at {s}"

    def test_only_the_composition_search_oracle_is_limited_to_24_elements(self):
        expr = parse_family("prod(schreier, restrict(schreier, powers(2)))")
        s = FinSet(tuple(range(26, 51)))
        assert len(s) == 25
        with pytest.raises(ValueError, match="limited to 24 elements"):
            member_by_composition_search(expr, s)
        # the first block minimum, 26, is no power of 2; the blocks
        # {4..7} {8..15} {16..28} have the minima {4,8,16}
        assert not member(expr, s)
        assert member(expr, FinSet(tuple(range(4, 29))))


def cut_compositions(elems, block_ok):
    """Block minima of every composition, one per cut vector (a 1 cuts
    after that position), kept when every block passes; first cut first."""
    out = []
    for cuts in itertools.product((1, 0), repeat=len(elems) - 1):
        blocks, start = [], 0
        for i, cut in enumerate(cuts, 1):
            if cut:
                blocks.append(elems[start:i])
                start = i
        blocks.append(elems[start:])
        if all(block_ok(b) for b in blocks):
            out.append(tuple(b[0] for b in blocks))
    return out


BLOCK_FAMILIES = [None, SCHREIER, Cube(3, 2), restricted(SCHREIER, AP(2, 3))]


@settings(derandomize=True, max_examples=150)
@given(st.frozensets(st.integers(1, 30), min_size=1, max_size=10),
       st.sampled_from(BLOCK_FAMILIES))
def test_composition_walk_matches_cut_vectors(items, block_family):
    elems = tuple(sorted(items))
    if block_family is None:
        def ok(b):
            return True
    else:
        def ok(b):
            return member(block_family, FinSet(b))
    walked = list(family._compositions(elems, ok))
    assert all(sum(blocks, ()) == elems for blocks in walked)
    got = [tuple(b[0] for b in blocks) for blocks in walked]
    # equal lists: the same multiset, walked shortest first block first
    assert got == cut_compositions(elems, ok)
    if block_family is None:
        assert len(got) == 2 ** (len(elems) - 1)


def test_composition_walk_of_the_empty_tuple():
    assert list(family._compositions((), lambda b: False)) == [()]


class TestEnumeration:
    def test_schreier_at_4(self):
        assert sets(SCHREIER, 4) == SCHREIER_AT_4

    def test_cube_at_4(self):
        assert sets(Cube(2, 2), 4) == \
            ["∅", "{2}", "{3}", "{4}", "{2,3}", "{2,4}", "{3,4}"]

    def test_restricted_powers_at_8(self):
        assert sets(restricted(SCHREIER, Powers(2)), 8) == \
            ["∅", "{1}", "{2}", "{4}", "{8}", "{2,4}", "{2,8}", "{4,8}"]

    def test_bound_zero_gives_the_empty_set_and_below_is_refused(self):
        # the oracle refuses what the fast path refuses
        for enum in (enumerate_members, enumerate_members_naive):
            assert enum(SCHREIER, 0) == [EMPTY]
            for bound in (-1, -3):
                with pytest.raises(ValueError, match=f">= 0, got {bound}"):
                    enum(SCHREIER, bound)

    def test_frozen_counts(self):
        assert len(enumerate_members(SCHREIER, 12)) == 377
        assert len(enumerate_members(SCHREIER_SQUARE, 8)) == 128
        assert len(enumerate_members(SCHREIER_SQUARE, 10)) == 489
        assert len(enumerate_members(SCHREIER_SQUARE, 12)) == 1825

    def test_pruned_enumeration_matches_powerset_filter(self):
        targets = [
            (SCHREIER, 7),
            (SCHREIER_SQUARE, 7),
            (Cube(2, 3), 7),
            (restricted(SCHREIER, AP(2, 3)), 10),
            (product_family(2), 8),
        ]
        for expr, bound in targets:
            assert enumerate_members(expr, bound) == \
                enumerate_members_naive(expr, bound), format_family(expr)

    def test_hereditary_enumeration_asks_no_membership_per_candidate(self):
        family._member.cache_clear()
        found = enumerate_members(SCHREIER_SQUARE, 12)
        info = family._member.cache_info()
        # the per-candidate route asked 1,951 questions here
        assert info.hits + info.misses <= 4, info
        assert len(found) == 1825
        assert found == sorted(found, key=lambda s: (len(s), s.elems))

    def test_universe_costs_the_index_elements_not_the_bound(self):
        assert sets(restricted(SCHREIER, Explicit(FinSet((3, 5)))), 10 ** 12) \
            == ["∅", "{3}", "{5}", "{3,5}"]
        tens = [10 ** k for k in range(31)]
        found = enumerate_members(restricted(Cube(1, 2), Powers(10)), 10 ** 30)
        assert [s.elems for s in found] == \
            [()] + [(a,) for a in tens] + list(itertools.combinations(tens, 2))

    @pytest.mark.parametrize("expr", [
        *(iterated_derivative(Cube(n, n), k)
          for n in range(1, 4) for k in range(1, n + 2)),
        derivative(SCHREIER_SQUARE),
        iterated_derivative(SCHREIER_SQUARE, 2),
    ])
    def test_derived_enumeration_matches_a_filtered_powerset(self, expr):
        base, depth = expr, 0
        while isinstance(base, family.Derived):
            base, depth = base.base, depth + 1
        # above 8 these bases read only how many elements there are, so a
        # short horizon is the whole tail
        want = [FinSet(els) for els in family._powerset(range(1, 9))
                if derived_brute(base, els, depth, range(300, 306))]
        assert enumerate_members(expr, 8) == want

    def test_hereditary_downward_closure(self):
        for expr in [SCHREIER, SCHREIER_SQUARE, product_family(2),
                     restricted(SCHREIER, Powers(2))]:
            for s in enumerate_members(expr, 8):
                for drop in s:
                    sub = FinSet(tuple(m for m in s if m != drop))
                    assert member(expr, sub), \
                        f"{format_family(expr)}: {s} minus {drop}"


class TestMaximality:
    def test_schreier_maximal_sets_at_4(self):
        flags = {str(s): is_maximal(SCHREIER, s)
                 for s in enumerate_members(SCHREIER, 4)}
        assert flags == {"∅": False, "{1}": True, "{2}": False, "{3}": False,
                         "{4}": False, "{2,3}": True, "{2,4}": True,
                         "{3,4}": False}

    def test_new_block_minimum_must_lie_in_the_right_index(self, run_cli):
        # {3,4,5} + {9}: the minima {3,9} are powers of 3 and a schreier set
        text = "prod(schreier, restrict(schreier, powers(3)))"
        code, out, _ = run_cli(["fam", "maximal", text, "--s", "{3,4,5}"])
        assert code == 0 and '"maximal":false' in out
        assert member(parse_family(text), FinSet((3, 4, 5, 9)))

    @pytest.mark.parametrize("text", [
        "prod(schreier, restrict(schreier, powers(3)))",
        "prod(schreier, restrict(schreier, ap(2,3)))",
        "prod(restrict(schreier, ap(1,2)), restrict(schreier, powers(3)))",
        "restrict(prod(schreier, restrict(schreier, powers(3))), from(2))",
    ])
    def test_maximality_matches_a_brute_force_horizon(self, text):
        expr = parse_family(text)
        for s in enumerate_members(expr, 8):
            extended = (tuple(sorted(s.elems + (m,)))
                        for m in range(1, 250) if m not in s)
            brute = not any(family._member(expr, t) for t in extended)
            assert is_maximal(expr, s) == brute, str(s)

    def test_maximality_needs_membership(self):
        with pytest.raises(NotAMemberError, match="not a member"):
            is_maximal(SCHREIER, FinSet((1, 2)))


class TestDerivatives:
    def test_schreier_derivative_keeps_extendable_sets(self):
        assert sets(derivative(SCHREIER), 4) == ["∅", "{2}", "{3}", "{4}", "{3,4}"]

    def test_cube_derivatives_shrink_by_one_size(self):
        c = Cube(2, 2)
        assert len(sets(iterated_derivative(c, 0), 6)) == 16
        assert sets(iterated_derivative(c, 1), 6) == \
            ["∅", "{2}", "{3}", "{4}", "{5}", "{6}"]
        assert sets(iterated_derivative(c, 2), 6) == ["∅"]
        assert sets(iterated_derivative(c, 3), 6) == []

    @pytest.mark.parametrize("text", [
        # every nonempty member has its minimum in a finite set, or there
        # are finitely many members: the empty set is no limit
        "prod(cube(1,1), restrict(cube(1,1), {3,4,5,8,10}))",
        "prod(prod(restrict(schreier, from(3)), schreier), restrict(schreier, {4,9}))",
        "prod(restrict(prod(cube(3,3), cube(3,3)), {5,10,11}), schreier)",
        "restrict(cube(3,3), {9,10})",
    ])
    def test_finite_index_pieces_give_no_limit(self, text):
        expr = parse_family(text)
        assert member(expr, EMPTY) and not member(derivative(expr), EMPTY)

    def test_a_derivative_of_a_non_hereditary_base_is_not_prefix_closed(self):
        # the base holds the empty set, {1}, {2} and every {2,m}: only {2}
        # has infinitely many extensions
        base = parse_family("prod(schreier, restrict(schreier, {1,2}))")
        derived = derivative(base)
        assert member(derived, FinSet((2,))) and not member(derived, EMPTY)
        want = [FinSet(els) for els in family._powerset(range(1, 9))
                if derived_brute(base, els, 1)]
        assert enumerate_members(derived, 8) == want == [FinSet((2,))]
        # nor past its first element: {1,2} is in this derivative, {1} is
        # not, so its steps may not drop the non-members
        base = parse_family(
            "prod(prod(schreier, restrict(cube(1,3), {1,2,3,4})), schreier)")
        derived = derivative(base)
        assert member(derived, FinSet((1, 2))) and not member(derived, FinSet((1,)))
        want = [FinSet(els) for els in family._powerset(range(1, 7))
                if derived_brute(base, els, 1)]
        assert enumerate_members(derived, 6) == want

    def test_iterated_schreier_derivatives_have_a_closed_form(self):
        # the k-th derivative keeps the s with #s + k <= min s: its first
        # flip lies at k + 1, the +1 per derivative of _tail_threshold
        for k in range(1, 5):
            want = [FinSet(els) for els in family._powerset(range(1, 11))
                    if not els or len(els) + k <= els[0]]
            assert enumerate_members(iterated_derivative(SCHREIER, k), 10) == want

    def test_composition_search_answers_derivatives(self):
        # derivative factors on either side of a product, under a
        # restriction, nested, and over a non-hereditary product; the
        # oracle shares the limit rule with the stepper, so this checks the
        # rest of the derivative's steps against composition search
        d = derivative
        s2 = SCHREIER_SQUARE
        non_hereditary = parse_family("prod(schreier, restrict(schreier, powers(2)))")
        exprs = [
            d(SCHREIER),
            Product(d(SCHREIER), SCHREIER),
            Product(SCHREIER, d(SCHREIER)),
            Product(d(s2), Cube(1, 1)),
            Product(Cube(2, 2), d(Cube(2, 3))),
            Restrict(Product(d(SCHREIER), Cube(2, 2)), AP(2, 1)),
            d(Restrict(s2, AP(1, 2))),
            d(d(SCHREIER)),
            d(d(s2)),
            d(non_hereditary),
            Product(d(non_hereditary), SCHREIER),
        ]
        for expr in exprs:
            for els in family._powerset(range(1, 10)):
                s = FinSet(els)
                assert member(expr, s) == member_by_composition_search(expr, s), \
                    (expr, els)

    def test_annihilation_step_count(self):
        for n in range(1, 4):
            c = Cube(n, n)
            assert member(iterated_derivative(c, n), EMPTY)
            assert not member(iterated_derivative(c, n + 1), EMPTY)


class TestTailBehavior:
    def test_thresholds(self):
        assert tail_threshold(SCHREIER) == 1
        assert tail_threshold(product_family(2)) == 2

    def test_admissibility_is_uniform_beyond_the_threshold(self):
        s = FinSet((3, 5))
        floor = max(tail_threshold(SCHREIER), s.max)
        probes = [extension_admissible(SCHREIER, s, m)
                  for m in range(floor + 1, floor + 10)]
        assert probes == [True] * 9

        full = FinSet((2, 3))  # already at capacity: no tail ever works
        assert all(not extension_admissible(SCHREIER, full, m)
                   for m in range(4, 13))


# (family, rank, rule-derived) for every product of two of schreier,
# cube(1,1), cube(2,2), cube(3,1) and restrict(schreier, powers(2)), then a
# few nested products and restrictions
RANK_GRID = [
    ("prod(schreier, schreier)", "w^2+1", False),
    ("prod(schreier, cube(1,1))", "w+1", False),
    ("prod(schreier, cube(2,2))", "w*2+1", False),
    ("prod(schreier, cube(3,1))", "w+1", True),
    ("prod(schreier, restrict(schreier, powers(2)))", "w^2+1", True),
    ("prod(cube(1,1), schreier)", "w+1", True),
    ("prod(cube(1,1), cube(1,1))", "2", True),
    ("prod(cube(1,1), cube(2,2))", "3", True),
    ("prod(cube(1,1), cube(3,1))", "2", True),
    ("prod(cube(1,1), restrict(schreier, powers(2)))", "w+1", True),
    ("prod(cube(2,2), schreier)", "w+1", True),
    ("prod(cube(2,2), cube(1,1))", "3", True),
    ("prod(cube(2,2), cube(2,2))", "5", True),
    ("prod(cube(2,2), cube(3,1))", "3", True),
    ("prod(cube(2,2), restrict(schreier, powers(2)))", "w+1", True),
    ("prod(cube(3,1), schreier)", "w+1", True),
    ("prod(cube(3,1), cube(1,1))", "2", True),
    ("prod(cube(3,1), cube(2,2))", "3", True),
    ("prod(cube(3,1), cube(3,1))", "2", True),
    ("prod(cube(3,1), restrict(schreier, powers(2)))", "w+1", True),
    ("prod(restrict(schreier, powers(2)), schreier)", "w^2+1", True),
    ("prod(restrict(schreier, powers(2)), cube(1,1))", "w+1", True),
    ("prod(restrict(schreier, powers(2)), cube(2,2))", "w*2+1", True),
    ("prod(restrict(schreier, powers(2)), cube(3,1))", "w+1", True),
    ("prod(restrict(schreier, powers(2)), restrict(schreier, powers(2)))",
     "w^2+1", True),
    ("prod(S2, schreier)", "w^3+1", True),
    ("prod(schreier, S2)", "w^3+1", True),
    ("prod(S2, S2)", "w^4+1", True),
    ("restrict(S2, from(3))", "w^2+1", False),
    ("restrict(prod(cube(2,2), schreier), ap(1,2))", "w+1", True),
    ("prod(restrict(S2, powers(3)), cube(4,4))", "w^2*4+1", True),
    # infinite meets of nested restrictions, and of a right factor's index
    # with its left factor's
    ("restrict(restrict(schreier, powers(2)), ap(1,3))", "w+1", False),
    ("prod(restrict(schreier, powers(2)), restrict(schreier, powers(4)))",
     "w^2+1", True),
    ("restrict(prod(schreier, cube(3,2)), ap(1,2))", "w*2+1", True),
]


class TestRank:
    def test_base_ranks(self):
        assert str(rank(SCHREIER)) == "w+1"
        for n in range(1, 7):
            assert rank(Cube(n, n)) == Ordinal.nat(n + 1)

    def test_product_ranks(self):
        assert str(rank(SCHREIER_SQUARE)) == "w^2+1"
        assert str(rank(product_family(1))) == "w+1"
        for n in range(2, 7):
            assert str(rank(product_family(n))) == f"w*{n}+1"

    def test_restriction_passes_rank_through_infinite_indices(self):
        assert rank(restricted(SCHREIER, Powers(2))) == rank(SCHREIER)
        assert rank(restricted(SCHREIER_SQUARE, AP(3, 2))) == rank(SCHREIER_SQUARE)

    def test_finite_indices_are_degenerate(self):
        with pytest.raises(DegenerateIndexError, match="infinite index"):
            rank(restricted(SCHREIER, Explicit(FinSet((2, 5, 9)))))

    def test_derived_families_have_no_symbolic_rank(self):
        with pytest.raises(TypeError):
            rank(derivative(SCHREIER))

    def test_rule_derived_flag(self):
        assert not rank_is_rule_derived(SCHREIER)
        assert not rank_is_rule_derived(SCHREIER_SQUARE)
        assert not rank_is_rule_derived(product_family(3))
        odd = Product(Cube(2, 2), Cube(3, 3))
        assert rank_is_rule_derived(odd)
        assert rank(odd) == Ordinal.nat(7)

    @pytest.mark.parametrize("text", [
        "restrict(schreier, {1,2})",
        "prod(schreier, restrict(schreier, {1,2}))",
        # an unchecked product: its factors are still read
        "prod(cube(2,2), restrict(schreier, {1,2}))",
        "restrict(restrict(schreier, {1,2,3}), from(2))",
        "restrict(restrict(S2, powers(2)), {2,4})",
        "restrict(restrict(schreier, ap(3,2)), {3,5})",
        # the only odd power of 2 is 1
        "restrict(restrict(schreier, powers(2)), ap(1,2))",
        # finite nonempty meets of infinite indexes, whose exact ranks are
        # not derived yet: the right factor's powers of 3 within the powers
        # of 2 are {1}
        "restrict(prod(schreier, restrict(schreier, powers(3))), powers(2))",
        "prod(restrict(schreier, powers(2)), restrict(schreier, powers(3)))",
    ])
    def test_the_flag_refuses_what_rank_refuses(self, text):
        expr = parse_family(text)
        with pytest.raises(DegenerateIndexError, match="infinite index"):
            rank(expr)
        with pytest.raises(DegenerateIndexError, match="infinite index"):
            rank_is_rule_derived(expr)

    @pytest.mark.parametrize("text", [
        # these restrictions meet in the empty set
        "restrict(restrict(schreier, ap(3,2)), ap(2,4))",
        # no power of 2 is a multiple of 1000003
        "restrict(restrict(schreier, powers(2)), ap(1000003,1000003))",
        "restrict(restrict(cube(1,2), powers(2)), ap(1000003,1000003))",
    ])
    def test_an_empty_meet_leaves_empty_set_of_rank_1(self, text):
        expr = parse_family(text)
        assert enumerate_members(expr, 12) == [EMPTY]
        assert rank(expr) == ONE
        assert not rank_is_rule_derived(expr)

    def test_an_empty_factor_makes_the_product_rank_1(self):
        for text in ["prod(schreier, restrict(schreier, {}))",
                     "prod(restrict(schreier, {}), schreier)"]:
            expr = parse_family(text)
            assert enumerate_members(expr, 12) == [EMPTY], text
            assert rank(expr) == ONE, text

    def test_a_meet_whose_residue_walk_gives_up_is_refused(self):
        # the powers of 2 that are 1 mod 99999989 form an infinite set,
        # but the walk that would find its cycle stops first
        expr = parse_family(
            "restrict(restrict(schreier, powers(2)), ap(1,99999989))")
        with pytest.raises(DegenerateIndexError, match="gave up"):
            rank(expr)

    def test_rank_and_flag_values(self):
        # the rank_consistency goldens, none of them rule-derived
        golds = [(SCHREIER, "w+1"), (SCHREIER_SQUARE, "w^2+1"),
                 (product_family(1), "w+1"),
                 (Restrict(SCHREIER_SQUARE, Powers(2)), "w^2+1")]
        golds += [(Cube(n, n), str(n + 1)) for n in range(1, 7)]
        golds += [(product_family(n), f"w*{n}+1") for n in range(2, 7)]
        for expr, want in golds:
            assert (str(rank(expr)), rank_is_rule_derived(expr)) == (want, False)
        for text, want, derived in RANK_GRID:
            expr = parse_family(text)
            assert (str(rank(expr)), rank_is_rule_derived(expr)) == (want, derived), \
                text


class TestConstructorHelpers:
    def test_level_families(self):
        assert base_family(2) == Cube(2, 2)
        assert base_family("w") == Schreier()
        assert product_family(3) == Product(SCHREIER, Cube(3, 3))
        assert product_family("w") == SCHREIER_SQUARE

    def test_product_family_per_level(self):
        assert product_family(3) == product_family(3)
        assert product_family(family.OMEGA_LEVEL) == SCHREIER_SQUARE
        with pytest.raises(ValueError):
            product_family(0)
