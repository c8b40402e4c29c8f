"""The finite-set ground type: construction, order relation, text forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreier_kit.family import FamilySyntaxError, parse_family, parse_index
from schreier_kit.finset import EMPTY, FinSet, TextSyntaxError, interval
from schreier_kit.ordinal import Ordinal, OrdinalSyntaxError

finsets = st.frozensets(st.integers(1, 60), max_size=8).map(FinSet.of)

# Pieces of every input grammar, near misses among them: non-ASCII digits,
# "_" and "+" that int() would accept, the empty-set glyph, a newline.
_TOKENS = ["schreier", "S2", "cube", "prod", "restrict", "all", "from",
           "powers", "ap", "w", "{", "}", "(", ")", ",", "^", "*", "+", "_",
           " ", "\t", "\n", "0", "1", "3", "42", "²", "٣", "∅", "x"]
texts = st.one_of(st.text(max_size=30),
                  st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join))


class TestConstruction:
    def test_elements_must_increase_strictly(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FinSet((3, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            FinSet((2, 2))

    def test_elements_must_be_positive_integers(self):
        with pytest.raises(ValueError, match="integers >= 1"):
            FinSet((0, 1))
        with pytest.raises(ValueError, match="integers >= 1"):
            FinSet((1.5,))

    @pytest.mark.parametrize("elems", [(True,), (1, True), (1, 2.0)])
    def test_bools_and_floats_are_not_elements(self, elems):
        # bool is an int subclass and 2.0 == 2, but neither is an element
        with pytest.raises(ValueError, match="integers >= 1"):
            FinSet(elems)

    def test_of_sorts_and_deduplicates(self):
        assert FinSet.of([5, 2, 2, 8]) == FinSet((2, 5, 8))
        assert FinSet.of([]) == EMPTY

    def test_interval(self):
        assert interval(4, 7) == FinSet((4, 5, 6, 7))
        assert interval(3, 3) == FinSet((3,))
        assert interval(3, 2) == EMPTY


class TestAccessors:
    def test_container_protocol(self):
        s = FinSet((2, 5, 8))
        assert len(s) == 3
        assert list(s) == [2, 5, 8]
        assert 5 in s and 6 not in s
        assert s and not EMPTY

    def test_min_max(self):
        s = FinSet((2, 5, 8))
        assert s.min == 2 and s.max == 8
        assert s.max_or_0 == 8
        assert EMPTY.max_or_0 == 0
        with pytest.raises(ValueError, match="no minimum"):
            EMPTY.min
        with pytest.raises(ValueError, match="no maximum"):
            EMPTY.max


class TestAlgebra:
    def test_union(self):
        assert FinSet((2, 5)) | FinSet((3, 5)) == FinSet((2, 3, 5))
        assert FinSet((2,)) | EMPTY == FinSet((2,))

    def test_with_element_is_idempotent(self):
        s = FinSet((2, 5))
        assert s.with_element(3) == FinSet((2, 3, 5))
        assert s.with_element(5) is s

    def test_appended_adds_one_element_above_the_maximum(self):
        assert FinSet((2, 5)).appended(7) == FinSet((2, 5, 7))
        assert EMPTY.appended(1) == FinSet((1,))
        grown = FinSet((2,)).appended(10 ** 30)
        assert grown == FinSet(grown.elems)
        assert hash(grown) == hash(FinSet((2, 10 ** 30)))

    @pytest.mark.parametrize("s, m", [
        (FinSet((2, 5)), True), (FinSet((2, 5)), 2.0), (FinSet((2, 5)), 5),
        (FinSet((2, 5)), 3), (EMPTY, 0), (EMPTY, True), (EMPTY, -1)])
    def test_appended_refuses_all_but_an_integer_above_the_maximum(self, s, m):
        with pytest.raises(ValueError, match="append an integer above"):
            s.appended(m)

    def test_restrict_to(self):
        s = FinSet((2, 5, 8, 13))
        assert s.restrict_to(8) == FinSet((2, 5, 8))
        assert s.restrict_to(1) == EMPTY


class TestPrecedes:
    def test_strict_separation(self):
        assert FinSet((2, 3)).precedes(FinSet((4, 9)))
        assert not FinSet((2, 4)).precedes(FinSet((4, 9)))
        assert not FinSet((2, 9)).precedes(FinSet((4,)))

    def test_empty_conventions(self):
        # the empty set precedes everything; nothing nonempty precedes it
        assert EMPTY.precedes(EMPTY)
        assert EMPTY.precedes(FinSet((1,)))
        assert not FinSet((1,)).precedes(EMPTY)

    def test_module_level_alias(self):
        assert FinSet((1,)).precedes(FinSet((2,)))
        assert not FinSet((2,)).precedes(FinSet((2,)))


class TestText:
    def test_str(self):
        assert str(FinSet((2, 5, 8))) == "{2,5,8}"
        assert str(EMPTY) == "∅"

    def test_parse(self):
        assert FinSet.parse("{2,5,8}") == FinSet((2, 5, 8))
        assert FinSet.parse(" { 2 , 5 } ") == FinSet((2, 5))
        assert FinSet.parse("{5,2,2}") == FinSet((2, 5))
        assert FinSet.parse("{}") == EMPTY
        assert FinSet.parse("∅") == EMPTY

    @pytest.mark.parametrize("bad", ["2,5", "{2;5}", "{a}", "{2,}",
                                     "{+3}", "{1_0}", "{٣}"])
    def test_parse_rejects_non_literals(self, bad):
        with pytest.raises(ValueError, match="not a set literal"):
            FinSet.parse(bad)

    @pytest.mark.parametrize("text,offset,message", [
        ("∅ 3", 5, "unexpected trailing input"),  # "∅" is three bytes
        ("{0}", 2, "set elements must be >= 1"),
        ("{x}", 2, "expected a natural number"),
        ("{2,\n5}", 4, "expected a natural number"),
        ("{1_0}", 3, "expected '}'"),
        # past the interpreter's limit on digits int() converts
        pytest.param("{" + "9" * 5000 + "}", 2, "natural number too long",
                     id="5000-digits"),
    ])
    def test_parse_errors_carry_byte_offsets(self, text, offset, message):
        with pytest.raises(TextSyntaxError) as exc:
            FinSet.parse(text)
        assert exc.value.offset == offset
        assert str(exc.value) == f"not a set literal: {message} (offset {offset})"

    def test_csv_cells(self):
        assert FinSet((2, 5, 8)).csv_cell() == "2 5 8"
        assert EMPTY.csv_cell() == ""


@pytest.mark.parametrize("parse,error", [
    (parse_family, FamilySyntaxError),
    (parse_index, FamilySyntaxError),
    (Ordinal.parse, OrdinalSyntaxError),
    (FinSet.parse, TextSyntaxError),
])
@settings(max_examples=400)
@given(text=texts)
def test_every_grammar_parses_or_fails_at_a_byte_offset(parse, error, text):
    try:
        parse(text)
    except TextSyntaxError as exc:
        assert type(exc) is error
        assert 1 <= exc.offset <= len(text.encode()) + 1


@given(finsets)
def test_str_parse_roundtrip(s):
    assert FinSet.parse(str(s)) == s


@given(finsets, finsets, finsets)
def test_precedes_is_transitive_on_nonempty(a, b, c):
    if a and b and c and a.precedes(b) and b.precedes(c):
        assert a.precedes(c)


@given(finsets, finsets)
def test_union_is_commutative_and_bounded(a, b):
    u = a | b
    assert u == b | a
    assert set(a) <= set(u) and set(b) <= set(u)
    assert len(u) <= len(a) + len(b)
