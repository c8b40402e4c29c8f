"""The invariant-suite registry and the report that counts a run's cases."""

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from schreier_kit import averaging, compacta, ordinal, verify
from schreier_kit.family import SCHREIER_SQUARE, member
from schreier_kit.finset import EMPTY
from schreier_kit.kernel import decompose, parity


def test_registry_names_are_stable():
    assert verify.EXPECTED_SUITES == tuple(verify.SUITES)
    groups = {name.split(".")[0] for name in verify.SUITES}
    assert groups == {"ordinal", "finset", "family", "kernel",
                      "compacta", "averaging", "cli"}
    assert len(verify.SUITES) == 26


def test_every_suite_passes_at_a_small_cap():
    for name in verify.EXPECTED_SUITES:
        report = verify.run_suite(name, cap=4)
        assert report.ok, f"{name}: {report.failures[:3]}"
        assert report.cases > 0, name


def test_report_serialization_is_stable():
    report = verify.run_suite("ordinal.parse_roundtrip", cap=4)
    payload = json.loads(report.to_json())
    # wall time is measured but deliberately kept out of the bytes
    assert set(payload) == {"suite", "cases", "failures"}
    assert report.wall_time > 0
    assert report.to_json() == verify.run_suite("ordinal.parse_roundtrip",
                                                cap=4).to_json()


def test_unknown_suite_raises_valueerror_listing_the_names():
    with pytest.raises(ValueError) as exc:
        verify.run_suite("kernel.nope")
    assert str(exc.value) == ("unknown suite 'kernel.nope'; one of: "
                              + ", ".join(verify.EXPECTED_SUITES))


@pytest.mark.parametrize("cap", [0, -5])
def test_cap_below_one_is_refused(cap):
    with pytest.raises(ValueError, match=f"must be >= 1, got {cap}"):
        verify.run_suite("finset.interval_structure", cap)


def _raise():
    raise AssertionError("label built for a passing check")


class TestCollector:
    def test_passing_check_never_builds_its_label(self):
        col = verify.VerifyReport("")
        col.check(True, _raise, 1, 1)
        assert col.cases == 1 and col.failures == []

    def test_failing_check_records_the_eager_dictionary(self):
        col = verify.VerifyReport("")
        a = verify._ordinal_corpus()[5]
        col.check(False, lambda: f"add {a}|{a}", a, [1, 2])
        assert col.failures == [{"case": f"add {a}|{a}", "expected": str(a),
                                 "actual": "[1, 2]"}]

    def test_failures_are_capped_but_cases_are_not(self):
        col = verify.VerifyReport("")
        for i in range(25):
            col.check(False, lambda: f"case {i}", True, False)
        assert col.cases == 25
        cases = [f["case"] for f in col.failures]
        assert cases == [f"case {i}" for i in range(20)]

    def test_fail_adds_no_case(self):
        col = verify.VerifyReport("")
        col.cases += 7
        col.fail(lambda: "bulk", "expected", "actual")
        assert col.cases == 7 and len(col.failures) == 1


def test_capped_run_matches_the_benchmark_golden(run_cli):
    # the bench's verify workload: stdout digest, suite order, case counts
    golden = json.loads((Path(__file__).parents[1] / "bench" / "golden.json")
                        .read_text())["verify"]
    code, out, _ = run_cli(["verify", "--max", "8"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == golden["sha256"][0]
    cases = [(r["suite"], r["cases"]) for r in map(json.loads,
                                                    out.splitlines())]
    assert cases == list(golden["cases"].items())


class TestLocalConstancyGrid:
    """``kernel.local_constancy`` compares one parity grid with gathers of
    its own rows and columns; these tests build their own families."""

    @staticmethod
    def schreier(bound):
        return [c for r in range(bound + 1)
                for c in itertools.combinations(range(1, bound + 1), r)
                if not c or len(c) <= c[0]]

    @staticmethod
    def in_s2(elems):
        # greedy maximal schreier blocks use the fewest blocks
        blocks, i = 0, 0
        while i < len(elems):
            i += elems[i]
            blocks += 1
        return not elems or blocks <= elems[0]

    def expected_cases(self, cap):
        bound, horizon = min(12, cap), min(40, 4 * cap)
        ss = self.schreier(bound)
        ts = [c for r in range(bound + 1)
              for c in itertools.combinations(range(1, bound + 1), r)
              if self.in_s2(c)]
        # each admissible pad adds one case per s below it, and every 97th
        # pad one scalar spot-check
        pad_cases, spot = 0, 0
        for t in ts:
            lo = t[-1] if t else 0
            pads = [(a,) for a in range(lo + 1, horizon + 1)]
            pads += [tuple(range(a, 2 * a)) for a in range(lo + 1, horizon + 1)
                     if 2 * a - 1 <= horizon]
            for pad in pads:
                if self.in_s2(t + pad):
                    below = sum(1 for s in ss if not s or s[-1] < pad[0])
                    spot += 1
                    pad_cases += below + (spot % 97 == 0 and below > 0)
        return 2 * len(ss) * len(ts) + pad_cases

    @pytest.mark.parametrize("cap", [4, 6, 8])
    def test_case_counts(self, cap):
        report = verify.run_suite("kernel.local_constancy", cap)
        assert report.ok
        assert report.cases == self.expected_cases(cap)

    def test_planted_fault_is_named(self, monkeypatch):
        real = verify.parity_matrix
        planted = []

        def faulty(ss, ts):
            grid = real(ss, ts)
            if not planted:  # the first call builds the full grid
                i, j = next((i, j) for j, t in enumerate(ts)
                            for i, s in enumerate(ss)
                            if s.restrict_to(t.max_or_0) != s)
                grid[i, j] ^= 1
                planted.append((ss[i], ts[j]))
            return grid

        monkeypatch.setattr(verify, "parity_matrix", faulty)
        report = verify.run_suite("kernel.local_constancy", 4)
        (s, t), = planted
        assert not report.ok
        assert any(f"t={t}, s={s} vs" in f["case"] for f in report.failures)

    def test_planted_pad_fault_is_named(self, monkeypatch):
        real = verify.parity_matrix
        calls = []

        def faulty(ss, ts):
            grid = real(ss, ts)
            calls.append(ts)
            if len(calls) == 2:  # the first grid of padded columns
                grid[0, 0] ^= 1  # the empty s, below every pad
            return grid

        monkeypatch.setattr(verify, "parity_matrix", faulty)
        report = verify.run_suite("kernel.local_constancy", 4)
        assert [f["case"] for f in report.failures] == ["s=∅, t=∅, pad={1}"]


# ---------------------------------------------------------------------------
# the per-case loops that the table-driven suites replace, kept as references
# ---------------------------------------------------------------------------


def loop_associativity(cap):
    col = verify.VerifyReport("")
    corpus = verify._ordinal_corpus(cap)
    for a in corpus:
        for b in corpus:
            for c in corpus:
                lhs, rhs = (a + b) + c, a + (b + c)
                col.check(lhs == rhs, lambda: f"add {a}|{b}|{c}", rhs, lhs)
                lhs, rhs = (a * b) * c, a * (b * c)
                col.check(lhs == rhs, lambda: f"mul {a}|{b}|{c}", rhs, lhs)
    return col


def loop_distributivity(cap):
    col = verify.VerifyReport("")
    corpus = verify._ordinal_corpus(cap)
    for a in corpus:
        for b in corpus:
            for c in corpus:
                lhs, rhs = a * (b + c), a * b + a * c
                col.check(lhs == rhs, lambda: f"{a}|{b}|{c}", rhs, lhs)
    return col


def loop_order(cap):
    col = verify.VerifyReport("")
    corpus = verify._ordinal_corpus(cap)
    for a in corpus:
        for b in corpus:
            lt, gt, eq = a < b, b < a, a == b
            col.check(lt + gt + eq == 1, lambda: f"trichotomy {a}|{b}",
                      "exactly one of <,>,=", f"{lt},{gt},{eq}")
    small = corpus[::3]
    for a in small:
        for b in small:
            if not a < b:
                continue
            for c in small:
                if b < c:
                    col.check(a < c, lambda: f"transitivity {a}|{b}|{c}",
                              True, False)
    for a in corpus:
        for b in corpus:
            for c in corpus:
                if b < c:
                    ok = a + b < a + c
                    col.check(ok, lambda: f"monotone {a}|{b}|{c}", True, ok)
    return col


def loop_witness_separates(cap):
    col = verify.VerifyReport("")
    rows = verify._powers_schreier(verify._eff(10, cap), 4)
    for s0, s1 in itertools.combinations(rows, 2):
        try:
            t = compacta.powers_witness(s0, s1)
        except (ValueError, AssertionError) as e:
            col.check(False, lambda: f"{s0} vs {s1}", "witness", repr(e))
            continue
        ok = member(SCHREIER_SQUARE, t)
        d = decompose(t)
        sep = parity(s0, d) != parity(s1, d)
        col.check(ok and sep, lambda: f"{s0} vs {s1}",
                  "witness in S2 and separating",
                  f"in_S2={ok}, separates={sep}")
    return col


def loop_convexity(cap):
    col = verify.VerifyReport("")
    for n in (2, 3):
        for s in verify._chain_supports(verify._eff(6, cap), n):
            chain = averaging.build_chain(n, s, averaging.SeededBlocks(5))
            v = averaging.block_average(chain)
            if v.index_count > 10_000:
                continue
            table = v.explicit()
            total = sum(table.values(), Fraction(0))
            ok = (len(table) == v.index_count
                  and all(w > 0 for w in table.values()) and total == 1)
            col.check(ok, lambda: f"n={n} s={s}",
                      "positive weights summing to 1",
                      f"count={len(table)}, sum={total}")
    return col


def loop_cancellation(cap):
    col = verify.VerifyReport("")
    bound = verify._eff(9, cap)
    m_hi = verify._eff(12, cap)
    seeds = verify._eff(100, cap)
    gens = [averaging.CanonicalBlocks()]
    gens += [averaging.SeededBlocks(seed) for seed in range(1, seeds + 1)]
    empty_chain = averaging.build_chain(1, EMPTY)
    base = averaging.evaluate(averaging.union_functional(empty_chain),
                              averaging.block_average(empty_chain))
    col.check(base == 1, lambda: "empty functional on empty average", 1, base)
    for n in range(1, 5):
        for s in [EMPTY] + verify._chain_supports(bound, n - 1):
            for gen in gens:
                chain = averaging.build_chain(n, s, gen)
                for m in range(s.max_or_0 + 1, m_hi + 1):
                    # one block and one pairing per m
                    span = averaging._next_span(n, s.elems, chain.spans, m, gen)
                    got = averaging._cancellation_pairing(
                        chain.spans, chain.spans + (span,))
                    if got == (-1) ** len(s):
                        col.cases += 1
                        continue
                    e = AssertionError(
                        f"cancellation failed at {s} + {m}: got {got}")
                    col.check(False, lambda: f"n={n} s={s} m={m} "
                              f"{gen.describe()}", f"(-1)^{len(s)}", repr(e))
    return col


LOOPS = {
    "ordinal.associativity": loop_associativity,
    "ordinal.left_distributivity": loop_distributivity,
    "ordinal.order_and_monotonicity": loop_order,
    "compacta.witness_separates": loop_witness_separates,
    "averaging.convexity": loop_convexity,
    "averaging.cancellation_exact": loop_cancellation,
}


def assert_matches_loop(name, cap):
    report = verify.run_suite(name, cap)
    col = LOOPS[name](cap)
    assert report.cases == col.cases
    assert report.failures == col.failures
    return report


@pytest.mark.parametrize("cap", [4, 8])
@pytest.mark.parametrize("name", list(LOOPS))
def test_table_suites_match_their_loops(name, cap):
    assert assert_matches_loop(name, cap).ok


def plant(monkeypatch, op, wrong):
    """Make ``ordinal.<op>`` answer 0, a wrong value interned like every
    other, for the pairs where ``wrong(a, b)``."""
    real = getattr(ordinal, op)

    def faulty(a, b):
        return ordinal.ZERO if wrong(a, b) else real(a, b)

    monkeypatch.setattr(ordinal, op, faulty)


ORDINAL_SUITES = list(LOOPS)[:3]


@pytest.mark.parametrize("cap", [4, 8])
@pytest.mark.parametrize("op", ["_add", "_mul"])
@pytest.mark.parametrize("name", ORDINAL_SUITES)
def test_one_planted_ordinal_fault(monkeypatch, name, op, cap):
    corpus = verify._ordinal_corpus(cap)
    x, y = corpus[3], corpus[2]  # w and 1 under every cap
    plant(monkeypatch, op, lambda a, b: a is x and b is y)
    report = assert_matches_loop(name, cap)
    if name != "ordinal.order_and_monotonicity" or op == "_add":
        assert 0 < len(report.failures)


@pytest.mark.parametrize("cap", [4, 8])
@pytest.mark.parametrize("op", ["_add", "_mul"])
@pytest.mark.parametrize("name", ORDINAL_SUITES)
def test_many_planted_ordinal_faults(monkeypatch, name, op, cap):
    corpus = verify._ordinal_corpus(cap)
    plant(monkeypatch, op, lambda a, b: b is corpus[1] or b is corpus[3])
    report = assert_matches_loop(name, cap)
    if name != "ordinal.order_and_monotonicity" or op == "_add":
        assert len(report.failures) == verify._MAX_RECORDED_FAILURES


def flip(monkeypatch, entries):
    """Flip the grid entries ``entries(ss, ts)`` names in every
    ``verify.parity_matrix`` answer."""
    real = verify.parity_matrix

    def faulty(ss, ts):
        grid = real(ss, ts)
        for i, j in entries(ss, ts):
            grid[i, j] ^= 1
        return grid

    monkeypatch.setattr(verify, "parity_matrix", faulty)


@pytest.mark.parametrize("cap", [4, 8])
def test_one_flipped_witness_entry_names_its_pair(monkeypatch, cap):
    rows = verify._powers_schreier(verify._eff(10, cap), 4)
    s0, s1 = list(itertools.combinations(rows, 2))[len(rows) + 3]
    t = compacta.powers_witness(s0, s1)
    flip(monkeypatch, lambda ss, ts: [(ss.index(s0), ts.index(t))])
    report = verify.run_suite("compacta.witness_separates", cap)
    assert report.cases == loop_witness_separates(cap).cases
    assert {"case": f"{s0} vs {s1}", "expected": "witness in S2 and separating",
            "actual": "in_S2=True, separates=False"} in report.failures


@pytest.mark.parametrize("cap", [4, 8])
def test_many_flipped_witness_entries_are_capped(monkeypatch, cap):
    # flipping whole rows unseparates exactly the pairs with one flipped row
    rows = verify._powers_schreier(verify._eff(10, cap), 4)
    flipped = range(0, len(rows), 2)
    flip(monkeypatch, lambda ss, ts: [(i, j) for i in flipped
                                      for j in range(len(ts))])
    report = verify.run_suite("compacta.witness_separates", cap)
    assert report.cases == loop_witness_separates(cap).cases
    unseparated = [f"{rows[i0]} vs {rows[i1]}" for i0, i1
                   in itertools.combinations(range(len(rows)), 2)
                   if (i0 in flipped) != (i1 in flipped)]
    assert len(unseparated) > verify._MAX_RECORDED_FAILURES
    assert [f["case"] for f in report.failures] == unseparated[:20]


def test_a_witness_outside_s2_is_a_failure(monkeypatch):
    rows = verify._powers_schreier(verify._eff(10, 4), 4)
    s0, s1 = rows[1], rows[2]
    t = compacta.powers_witness(s0, s1)
    monkeypatch.setattr(verify, "member",
                        lambda expr, u: u != t and member(expr, u))
    report = verify.run_suite("compacta.witness_separates", 4)
    assert {"case": f"{s0} vs {s1}",
            "expected": "witness in S2 and separating",
            "actual": "in_S2=False, separates=False"} in report.failures


@pytest.mark.parametrize("cap", [4, 8])
@pytest.mark.parametrize("bad", ["double", "negate"])
def test_planted_weight_fault_matches_the_loop(monkeypatch, cap, bad):
    real = averaging.BlockAverage.explicit

    def faulty(self):
        table = real(self)
        if self.level == 3 and len(table) > 1:
            u = next(iter(table))
            table[u] = 2 * table[u] if bad == "double" else -table[u]
        return table

    monkeypatch.setattr(averaging.BlockAverage, "explicit", faulty)
    report = assert_matches_loop("averaging.convexity", cap)
    assert report.failures


@pytest.mark.parametrize("cap", [4, 8])
@pytest.mark.parametrize("wrong", [
    lambda spans, extended: extended == ((4, 7),),
    lambda spans, extended: not spans,
], ids=["one key", "every empty chain"])
def test_planted_pairing_fault_matches_the_loop(plant_pairing, cap, wrong):
    plant_pairing(wrong)
    report = assert_matches_loop("averaging.cancellation_exact", cap)
    assert len(report.failures) > 1
    assert {"case": "n=1 s=∅ m=2 canonical", "expected": "(-1)^0",
            "actual": "AssertionError('cancellation failed at ∅ + 2: got 1/3')"
            } in report.failures
