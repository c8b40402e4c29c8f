"""Tests of the benchmark itself.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import queries  # noqa: E402
import run  # noqa: E402
import schreier_kit as sk  # noqa: E402
import schreier_kit.cli  # noqa: E402,F401
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = sk.cli.main(argv)
    return code, out.getvalue()


# -- the queries generator and its oracles -------------------------------


def test_generator_is_a_function_of_the_seed():
    assert queries.generate(7, 300) == queries.generate(7, 300)
    assert queries.generate(7, 300) != queries.generate(8, 300)


def test_generator_covers_every_request_kind():
    kinds = {req[0] for req in queries.generate(1, 2000)}
    assert kinds == {name for name, _ in queries.KINDS}


def test_oracle_flags_a_planted_wrong_answer():
    cheap = ("fam_member", "fam_parse", "theta_eval", "theta_decompose")
    requests = [r for r in queries.generate(3, 400) if r[0] in cheap]
    outcomes = [queries.run_one(sk, r) for r in requests]
    assert queries.check(sk, requests, outcomes) == []
    i = next(i for i, (req, (status, _)) in enumerate(zip(requests, outcomes))
             if req[0] == "fam_member" and status == "ok")
    outcomes[i] = ("ok", not outcomes[i][1])
    bad = queries.check(sk, requests, outcomes)
    assert [b["index"] for b in bad] == [i]


def test_oracle_flags_an_undocumented_exception():
    req = ("fam_member", "schreier", "{1}")
    bad = queries.check(sk, [req], [("error", "KeyError: 1")])
    assert bad and bad[0]["why"] == "KeyError: 1"


def test_documented_refusals_are_not_failures():
    req = ("fam_maximal", "schreier", "{1,2,3}")     # not a member
    outcome = queries.run_one(sk, req)
    assert outcome == ("refused", "NotAMemberError")
    assert queries.check(sk, [req], [outcome]) == []


# -- the tracer ----------------------------------------------------------


def _attributes() -> dict:
    """Every module global and class attribute of the package, by identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not name.startswith("schreier_kit"):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_restores_every_wrapped_attribute():
    before = _attributes()
    tr = Tracer(sk).install()
    try:
        during = _attributes()
    finally:
        tr.uninstall()
    after = _attributes()
    assert any(during[k] is not before[k] for k in before)
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_output_is_byte_identical_and_counted():
    argv = ["compacta", "matrix", "--mode", "K", "--alpha", "2",
            "--rows", "6", "--cols", "6"]
    plain = _cli(argv)
    with Tracer(sk) as tr:
        traced = _cli(argv)
    assert traced == plain
    assert tr.calls("cli.main") == 1
    assert tr.calls("compacta._fill") == 1
    assert tr.calls("kernel._parity_blocks") == sum(tr.results["compacta._fill"])
    layers = tr.layer_self_ns()
    assert layers["compacta"] > 0 and layers["cli"] > 0


# -- metric names against BENCHMARK.json ----------------------------------


def test_end_to_end_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    fake = [{"wall_s": 1.0, "peak_rss_mb": 10.0, "attempted": 2, "failed": 0}]
    metrics = run.end_to_end_metrics([0.2, 0.3], fake)
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]


def test_per_layer_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    with Tracer(sk) as tr:
        _cli(["theta", "eval", "--s", "{2,5,8}", "--t", "{2,3,5,8,9}"])
    golden = worker._load_golden()
    layers = worker.layer_metrics(tr, 0, golden["verify"]["cases"])
    plain = [{"wall_s": 1.0}]
    traced = [{"wall_s": 1.5, "layers": layers}]
    metrics = run.layer_metrics(plain, traced)
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    for m in spec["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]


def test_workload_names_match_benchmark_json():
    spec = _benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(run.WORKLOADS)
    assert set(names) == set(worker.COMMANDS)
