"""The invariant-suite registry, its report format and its case collector."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from schreier_kit import verify


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


def test_unknown_suite_raises_keyerror():
    with pytest.raises(KeyError, match="unknown suite"):
        verify.run_suite("kernel.nope")


def _raise():
    raise AssertionError("label built for a passing check")


class TestCollector:
    def test_passing_check_never_builds_its_label(self):
        col = verify._Collector()
        col.check(True, _raise, 1, 1)
        assert col.cases == 1 and col.failures == []

    def test_failing_check_records_the_eager_dictionary(self):
        col = verify._Collector()
        a = verify._ordinal_corpus()[5]
        col.check(False, lambda: f"add {a}|{a}", a, [1, 2])
        assert col.failures == [{"case": f"add {a}|{a}", "expected": str(a),
                                 "actual": "[1, 2]"}]

    def test_failures_are_capped_but_cases_are_not(self):
        col = verify._Collector()
        for i in range(25):
            col.check(False, lambda: f"case {i}", True, False)
        assert col.cases == 25
        cases = [f["case"] for f in col.failures]
        assert cases == [f"case {i}" for i in range(20)]

    def test_fail_adds_no_case(self):
        col = verify._Collector()
        col.cases += 7
        col.fail(lambda: "bulk", "expected", "actual")
        assert col.cases == 7 and len(col.failures) == 1


def test_capped_run_matches_the_benchmark_golden():
    golden = json.loads((Path(__file__).parents[1] / "bench" / "golden.json")
                        .read_text())["verify"]
    reports = verify.run_all(8)
    assert {r.suite: r.cases for r in reports} == golden["cases"]
    stdout = "".join(r.to_json() + "\n" for r in reports).encode()
    assert hashlib.sha256(stdout).hexdigest() == golden["sha256"][0]


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
