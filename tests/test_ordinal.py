"""Cantor-normal-form ordinals: arithmetic, order, and the text form.

The arithmetic tables below were checked by hand against the defining
recursions before the implementation existed; the model tests rebuild
multiplication from repeated addition so the two operations cannot drift
apart unnoticed.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreier_kit import ordinal
from schreier_kit.ordinal import OMEGA, ONE, ZERO, Ordinal, OrdinalSyntaxError
from schreier_kit.verify import _ordinal_corpus


def o(text: str) -> Ordinal:
    return Ordinal.parse(text)


# naturals, omega powers, and mixed sums; enough shapes to exercise every
# branch of add and mul
CORPUS = [
    "0", "1", "3", "w", "w*2", "w+1", "w+5", "w*3+2",
    "w^2", "w^2+w", "w^2*2+w*4+1", "w^3", "w^w", "w^w+w^2*2", "w^(w+1)",
]


class TestParseAndPrint:
    def test_canonical_strings_roundtrip(self):
        for text in CORPUS:
            assert str(o(text)) == text

    def test_noncanonical_input_is_normalized(self):
        assert str(o("w*2+w")) == "w*3"
        assert str(o("1+w")) == "w"
        assert str(o("w*0")) == "0"
        assert str(o("w^0")) == "1"
        assert str(o("w^1")) == "w"
        assert str(o("2+3")) == "5"
        assert str(o("w^2+w+w^2")) == "w^2*2"

    def test_tower_exponents_bind_without_parentheses(self):
        assert o("w^w^2") == Ordinal.omega_power(Ordinal.omega_power(Ordinal.nat(2)))
        assert o("w^w+1") == Ordinal.omega_power(OMEGA) + ONE
        assert str(o("w^(w+1)")) == "w^(w+1)"
        assert str(o("w^(w*2)")) == "w^(w*2)"

    def test_whitespace_is_tolerated(self):
        assert o(" w^2 + w*3 + 1 ") == o("w^2+w*3+1")

    @pytest.mark.parametrize("text,offset,message", [
        ("", 1, "expected 'w' or a natural number"),
        ("+w", 1, "expected 'w' or a natural number"),
        ("^2", 1, "expected 'w' or a natural number"),
        ("w^", 3, "expected an exponent"),
        ("w**2", 3, "expected a natural number"),
        ("3+", 3, "expected 'w' or a natural number"),
        ("w^()", 4, "expected 'w' or a natural number"),
        ("w^(w+1", 7, "expected ')'"),
        ("w 2", 3, "unexpected trailing input"),
        ("42x", 3, "unexpected trailing input"),
        ("w^²", 3, "expected an exponent"),
        # the 101st nested exponent starts after the 101st "^"
        pytest.param("w^" * 2000 + "1", 203,
                     "ordinal nested deeper than 100 levels", id="w^-2000-deep"),
    ])
    def test_syntax_errors_carry_byte_offsets(self, text, offset, message):
        with pytest.raises(OrdinalSyntaxError) as exc:
            Ordinal.parse(text)
        assert exc.value.offset == offset
        assert message in str(exc.value)

    def test_exponents_nest_100_deep(self):
        assert str(o("w^" * 100 + "1")) == "w^" * 99 + "w"

    def test_repr_is_executable(self):
        x = o("w^2+w*4+1")
        assert repr(x) == "Ordinal.parse('w^2+w*4+1')"


ADD_TABLE = [
    ("w*3+1", "w", "w*4"),
    ("1", "w", "w"),
    ("w", "1", "w+1"),
    ("w^2+w*2", "w*3+1", "w^2+w*5+1"),
    ("w^2", "w^3", "w^3"),
    ("w^3", "w^2", "w^3+w^2"),
    ("5", "7", "12"),
    ("w^w+w", "w^2", "w^w+w^2"),
    ("0", "w+1", "w+1"),
    ("w+1", "0", "w+1"),
]

MUL_TABLE = [
    ("w", "w", "w^2"),
    ("2", "w", "w"),
    ("w", "2", "w*2"),
    ("w+1", "2", "w*2+1"),
    ("w*2+3", "w", "w^2"),
    ("w^2+w", "w+1", "w^3+w^2+w"),
    ("w^w", "w", "w^(w+1)"),
    ("w", "0", "0"),
    ("0", "w", "0"),
    ("w+3", "w^2", "w^3"),
]


class TestArithmetic:
    @pytest.mark.parametrize("a,b,want", ADD_TABLE)
    def test_addition_table(self, a, b, want):
        assert str(o(a) + o(b)) == want

    @pytest.mark.parametrize("a,b,want", MUL_TABLE)
    def test_multiplication_table(self, a, b, want):
        assert str(o(a) * o(b)) == want

    def test_mul_by_natural_is_repeated_addition(self):
        for text in CORPUS:
            x = o(text)
            acc = ZERO
            for n in range(1, 6):
                acc = acc + x
                assert x * Ordinal.nat(n) == acc, f"{text} * {n}"

    def test_add_natural_is_repeated_successor(self):
        for text in CORPUS:
            acc = o(text)
            for n in range(1, 6):
                acc = acc + ONE
                assert o(text) + Ordinal.nat(n) == acc

    def test_mul_omega_dominates_finite_multiples(self):
        for text in ["1", "3", "w", "w+1", "w^2+w"]:
            x = o(text)
            for n in range(1, 30):
                assert x * Ordinal.nat(n) < x * OMEGA

    def test_addition_associates(self):
        xs = [o(t) for t in CORPUS[:10]]
        for a in xs:
            for b in xs:
                for c in xs:
                    assert (a + b) + c == a + (b + c)

    def test_multiplication_associates_and_distributes_left(self):
        xs = [o(t) for t in CORPUS[:10]]
        for a in xs:
            for b in xs:
                for c in xs:
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


def reference_lt(a: Ordinal, b: Ordinal) -> bool:
    """Cantor normal form order written out term by term: the first
    differing exponent decides, then the first differing coefficient, then
    the shorter sum is the smaller."""
    for (e, c), (f, d) in zip(a.terms, b.terms):
        if e != f:
            return reference_lt(e, f)
        if c != d:
            return c < d
    return len(a.terms) < len(b.terms)


def assert_order_matches_reference(a: Ordinal, b: Ordinal):
    lt, gt = reference_lt(a, b), reference_lt(b, a)
    eq = not lt and not gt
    assert (a < b, a > b, a <= b, a >= b, a == b) == \
        (lt, gt, lt or eq, gt or eq, eq), f"{a} vs {b}"


class TestOrder:
    def test_native_order_matches_the_reference_on_the_verify_corpus(self):
        corpus = _ordinal_corpus()
        assert len(corpus) == 64
        for a in corpus:
            for b in corpus:
                assert_order_matches_reference(a, b)

    def test_strictly_increasing_chain(self):
        chain = [o(t) for t in
                 ["0", "1", "2", "w", "w+1", "w*2", "w^2", "w^2+w", "w^3", "w^w"]]
        for i, a in enumerate(chain):
            for b in chain[i + 1:]:
                assert a < b
                assert not b < a

    def test_total_on_corpus(self):
        xs = [o(t) for t in CORPUS]
        for a in xs:
            for b in xs:
                assert (a < b) + (b < a) + (a == b) == 1

    def test_left_addition_is_strictly_monotone(self):
        xs = [o(t) for t in CORPUS]
        for a in xs:
            for b in xs:
                if a < b:
                    for c in xs:
                        assert c + a < c + b

    def test_right_addition_is_weakly_monotone(self):
        xs = [o(t) for t in CORPUS]
        for a in xs:
            for b in xs:
                if a <= b:
                    for c in xs:
                        assert a + c <= b + c

    def test_zero_is_least_and_neutral(self):
        for text in CORPUS:
            x = o(text)
            assert ZERO <= x
            assert x + ZERO == x
            assert ZERO + x == x


class TestStructure:
    def test_nat_predicates(self):
        assert o("7").is_nat and o("7").as_nat() == 7
        assert ZERO.is_nat and ZERO.as_nat() == 0
        assert not OMEGA.is_nat
        with pytest.raises(ValueError, match="not finite"):
            OMEGA.as_nat()

    def test_successor_and_predecessor(self):
        assert o("w+1").is_successor
        assert o("w+1").predecessor() == OMEGA
        assert o("w*2+3").predecessor() == o("w*2+2")
        assert o("3").predecessor() == o("2")
        assert not OMEGA.is_successor
        with pytest.raises(ValueError, match="not a successor"):
            OMEGA.predecessor()
        with pytest.raises(ValueError, match="not a successor"):
            ZERO.predecessor()

    def test_constructors(self):
        assert Ordinal.nat(0) == ZERO
        assert Ordinal.omega_power(ONE) == OMEGA
        assert Ordinal.omega_power(o("2"), coeff=0) == ZERO
        assert str(Ordinal.omega_power(o("2"), coeff=3)) == "w^2*3"
        with pytest.raises(ValueError):
            Ordinal.nat(-1)

    def test_malformed_term_lists_are_rejected(self):
        # ((ZERO, True),) equals the key of the interned ONE; it must still
        # be refused, and so must every malformed list on a second attempt
        cases = [
            (((ZERO, 0),), "coefficient"),
            (((ZERO, True),), "coefficient"),
            (((ZERO, 2.0),), "coefficient"),
            (((True, 1),), "exponent"),
            (((1, 2),), "exponent"),
            (((ONE, 1), (ONE, 2)), "strictly decreasing"),
            (((ONE, 1), (OMEGA, 2)), "strictly decreasing"),
            ([(ZERO, 1)], "tuple"),
            (((ZERO, 1, 1),), "pair"),
        ]
        for terms, message in cases * 2:
            with pytest.raises(ValueError, match=message):
                Ordinal(terms)


class TestInterning:
    def test_equal_values_are_one_object(self):
        w2 = o("w^2+w*3+1")
        assert w2 is Ordinal.omega_power(Ordinal.nat(2)) + OMEGA * Ordinal.nat(3) + ONE
        assert w2 is Ordinal(((Ordinal.nat(2), 1), (ONE, 3), (ZERO, 1)))
        assert o("w^2") is OMEGA * OMEGA is Ordinal.omega_power(o("2"))
        assert Ordinal() is ZERO is Ordinal.nat(0)
        assert Ordinal(((ONE, 1),)) is OMEGA
        assert o("w+1").predecessor() is OMEGA

    def test_copies_and_pickles_return_the_interned_object(self):
        x = o("w^(w+1)*2+w+3")
        for value in (x, ZERO, ONE, OMEGA):
            assert copy.copy(value) is value
            assert copy.deepcopy(value) is value
            assert pickle.loads(pickle.dumps(value)) is value
        assert ZERO.terms == () and str(ZERO) == "0"
        assert str(x) == "w^(w+1)*2+w+3"

    def test_instances_are_immutable(self):
        x = o("w+1")
        with pytest.raises(AttributeError):
            x.terms = ()
        with pytest.raises(AttributeError):
            x.extra = 1
        with pytest.raises(AttributeError):
            del x.terms
        assert str(x) == "w+1"

    def test_hash_agrees_across_copies_and_constructions(self):
        # the hash is the identity hash, so every route to a value must
        # land on the one interned object
        for text in CORPUS:
            x = o(text)
            by_sum = sum((Ordinal.omega_power(e, c) for e, c in x.terms), ZERO)
            routes = (copy.copy(x), copy.deepcopy(x),
                      pickle.loads(pickle.dumps(x)), o(str(x)),
                      Ordinal(x.terms), by_sum)
            for y in routes:
                assert y is x and hash(y) == hash(x)
        built = (Ordinal.omega_power(Ordinal.nat(2)) + OMEGA * Ordinal.nat(3)
                 + ONE)
        assert hash(built) == hash(o("w^2+w*3+1"))
        assert hash(Ordinal.nat(4)) == hash(o("4")) == hash(ONE + o("3"))

    def test_memos_have_the_documented_size(self):
        assert ordinal._MEMO_SIZE == 1536
        assert ordinal._add.cache_info().maxsize == ordinal._MEMO_SIZE


def ordinals(max_depth: int = 2):
    """Random ordinals built bottom-up through the public constructors."""

    def build(depth):
        nats = st.integers(0, 9).map(Ordinal.nat)
        if depth == 0:
            return nats
        power = st.tuples(build(depth - 1), st.integers(1, 4)).map(
            lambda ec: Ordinal.omega_power(ec[0], ec[1]))
        terms = st.lists(st.one_of(nats, power), min_size=1, max_size=4)
        return terms.map(lambda xs: sum(xs, ZERO))

    return build(max_depth)


@given(ordinals())
def test_print_then_parse_is_identity(x):
    assert Ordinal.parse(str(x)) == x


@given(ordinals(), ordinals(), ordinals())
def test_random_triples_associate(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(ordinals(), ordinals())
def test_random_pairs_are_comparable(a, b):
    assert (a < b) + (b < a) + (a == b) == 1
    assert_order_matches_reference(a, b)


@settings(derandomize=True, max_examples=300)
@given(ordinals(), ordinals())
def test_memoized_arithmetic_matches_the_uncached_implementation(a, b):
    assert a + b is ordinal._add.__wrapped__(a, b)


def partial_sum_product(a: Ordinal, b: Ordinal) -> Ordinal:
    """a * b summed term by term over b, one partial product at a time."""
    if a.is_zero or b.is_zero:
        return ZERO
    e1, c1 = a.terms[0]
    out = ZERO
    for f, d in b.terms:
        if f.is_zero:
            out = out + Ordinal(((e1, c1 * d),) + a.terms[1:])
        else:
            out = out + Ordinal.omega_power(e1 + f, d)
    return out


@settings(derandomize=True, max_examples=300)
@given(ordinals(), ordinals())
def test_one_pass_product_matches_the_partial_sums(a, b):
    assert a * b is partial_sum_product(a, b)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "ordinal.parse_roundtrip", "--max", "4"],
    ["fam", "rank", "prod(schreier, cube(3,3))"],
])
def test_output_is_byte_identical_across_processes(argv):
    # identity hashes differ from process to process; no output may
    # depend on them
    outs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        r = subprocess.run([sys.executable, "-m", "schreier_kit"] + argv,
                           capture_output=True, env=env)
        assert r.returncode == 0, r.stderr
        outs.add(r.stdout)
    assert len(outs) == 1 and outs.pop()


CHURN = """
from schreier_kit import ordinal, verify
calls = 0
validate = ordinal._validate
def counted(terms):
    global calls
    calls += 1
    validate(terms)
ordinal._validate = counted
assert verify.run_suite("ordinal.associativity", 8).ok
print(calls)
"""


def test_associativity_sweep_validates_few_values():
    # a time-free guard on the intern churn: an evicted memo result is
    # dropped from the table and validated again when it is rebuilt
    r = subprocess.run([sys.executable, "-c", CHURN], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) <= 7000


def test_outside_input_is_validated_on_every_call():
    cases = [
        (lambda: Ordinal(((ZERO, True),)), ValueError),
        (lambda: Ordinal(((ONE, 1), (OMEGA, 1))), ValueError),
        (lambda: Ordinal.nat(-1), ValueError),
        (lambda: Ordinal.nat(True), ValueError),
        (lambda: Ordinal.omega_power(ONE, 2.0), ValueError),
        (lambda: Ordinal.omega_power(1), ValueError),
        (lambda: Ordinal.parse("w^"), OrdinalSyntaxError),
        (lambda: Ordinal.parse("w+x"), OrdinalSyntaxError),
    ]
    for build, error in cases * 3:
        with pytest.raises(error):
            build()
