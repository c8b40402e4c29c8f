"""The invariant-suite registry, its report format and its case collector."""

import hashlib
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
