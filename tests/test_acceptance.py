"""The acceptance gate: eleven end-to-end criteria, one test per criterion.

Each test prints a single PASS line with its case count and wall time, so a
verbose run doubles as the acceptance protocol.  The budgets are asserted,
not just reported.
"""

import contextlib
import functools
import hashlib
import io
import os
import json
import subprocess
import sys
import time

from schreier_kit import family, verify
from schreier_kit.family import SCHREIER, enumerate_members, is_maximal
from schreier_kit.finset import FinSet
from schreier_kit.ordinal import Ordinal


def _suite(name, budget=None):
    report = verify.run_suite(name, cap=None)
    assert report.ok, f"{name} failed: {report.failures[:5]}"
    if budget is not None:
        assert report.wall_time < budget, \
            f"{name} took {report.wall_time:.1f}s, budget {budget}s"
    return report


def _line(tag, report):
    print(f"{tag}: PASS ({report.cases} cases, {report.wall_time:.2f}s)")


def test_A1_block_decomposition_is_unique():
    report = _suite("kernel.decomposition_unique", budget=60)
    _line("A1 decomposition uniqueness", report)


def test_A2_kernel_is_locally_constant_in_both_coordinates():
    report = _suite("kernel.local_constancy", budget=120)
    _line("A2 local constancy", report)


def test_A3_sign_formula_matches_the_hit_count():
    report = _suite("kernel.sign_formula")
    _line("A3 sign formula", report)


def test_A4_powers_witnesses_separate_all_pairs():
    report = _suite("compacta.witness_separates", budget=60)
    _line("A4 powers witnesses", report)


def test_A5_isolated_points_are_exactly_the_barrier():
    # isolated = no admissible tail extension; barrier = size equals minimum
    members = enumerate_members(SCHREIER, 12)
    isolated = {s for s in members if s and is_maximal(SCHREIER, s)}
    barrier = {s for s in members if s and len(s) == s.min}
    assert isolated == barrier
    assert len(barrier) == 144
    print(f"A5 isolated points: PASS ({len(members)} members, "
          f"{len(barrier)} barrier sets)")


def test_A6_symbolic_ranks_and_annihilation_steps():
    cases = 0
    for n in range(1, 7):
        assert family.rank(family.Cube(n, n)) == Ordinal.nat(n + 1)
        want = "w+1" if n == 1 else f"w*{n}+1"
        assert str(family.rank(family.product_family(n))) == want
        cases += 2
    assert str(family.rank(family.SCHREIER_SQUARE)) == "w^2+1"
    cases += 1
    for n in range(1, 5):
        cube = family.Cube(n, n)
        for j in range(n + 1):
            assert family.member(family.iterated_derivative(cube, j),
                                 FinSet()), (n, j)
        assert not family.member(family.iterated_derivative(cube, n + 1),
                                 FinSet()), n
        cases += n + 2
    print(f"A6 rank goldens: PASS ({cases} cases)")


def test_A7_cancellation_is_exact_for_every_generator():
    report = _suite("averaging.cancellation_exact", budget=60)
    _line("A7 cancellation identity", report)


def test_A8_factorized_evaluator_matches_enumeration():
    report = _suite("averaging.evaluator_equivalence")
    assert report.cases == 200
    _line("A8 evaluator equivalence", report)


def test_A9_separators_always_fit_the_default_bound():
    report = _suite("compacta.search_within_bound")
    for failure in report.failures:
        print("A9 finding:", failure)
    assert not report.failures
    _line("A9 separator search", report)


def test_A10_reports_and_matrices_are_byte_deterministic():
    for name in ("compacta.matrix_determinism", "cli.byte_determinism"):
        _suite(name)

    def one_run(threads):
        env = dict(os.environ, SCHREIER_KIT_THREADS=threads)
        argv = [sys.executable, "-m", "schreier_kit"]
        matrix = subprocess.run(
            argv + ["compacta", "matrix", "--mode", "K", "--alpha", "2",
                    "--rows", "7", "--cols", "7"],
            capture_output=True, env=env, check=True)
        reports = subprocess.run(
            argv + ["verify", "--suite", "kernel.sign_formula", "--max", "8"],
            capture_output=True, env=env, check=True)
        return matrix.stdout, reports.stdout

    runs = [one_run(threads) for threads in ("1", "4", "1")]
    assert len(set(runs)) == 1
    print(f"A10 byte determinism: PASS ({len(runs)} runs x "
          f"{len(runs[0])} streams identical)")


# Small inputs that must not take seconds: each command runs in a fresh
# process, with the answer it must print (stdout lines, or fields of the one
# JSON line), or the message of its exit-2 refusal, and a budget several
# times its need.
E30 = 10**30
SMALL_INPUTS = [
    (["fam", "member", "prod(schreier, restrict(schreier, powers(2)))",
      "--s", "{" + ",".join(map(str, range(2, 24))) + "}"], {"member": False}),
    (["fam", "member", "prod(schreier, restrict(schreier, powers(2)))",
      "--s", "{" + ",".join(map(str, range(2, 28))) + "}"], {"member": False}),
    (["fam", "member", "prod(schreier, restrict(cube(1,2), ap(2,2)))",
      "--s", "{" + ",".join(map(str, range(2, 23))) + "}"], {"member": False}),
    # elements far past any scan or table
    (["fam", "member", "schreier", "--s", f"{{3,{E30},{E30 + 1}}}"],
     {"member": True}),
    (["fam", "member", "prod(schreier, restrict(schreier, powers(2)))",
      "--s", f"{{2,3,{2**100}}}"], {"member": True}),
    (["theta", "eval", "--s", f"{{2,{E30}}}", "--t", f"{{2,3,{E30}}}"],
     {"theta": 1, "inner": 2}),
    (["theta", "decompose", "--t", f"{{2,{E30},{E30 + 1}}}"],
     {"blocks": [[2, E30], [E30 + 1]]}),
    (["compacta", "search", "--t0", "{2}", "--t1", f"{{{E30}}}"],
     {"separator": [2]}),
    (["fam", "enum", "prod(schreier, restrict(schreier, powers(2)))",
      "--max", "16"], 4774),
    # the two restrictions meet in the empty set: the family is {∅}
    (["fam", "rank", "--format", "json",
      "restrict(restrict(schreier, ap(3,2)), ap(2,4))"], {"rank": "1"}),
    (["tree", "sweep", "--n", "15000", "--support-max", "15000"],
     "error: the sweep would build more than 100000 chains; lower --n, "
     "--support-max or --seeds\n"),
    # more cases than an int of the interpreter's default limit prints
    (["tree", "sweep", "--n", "1", "--m-max", "9" * 4300, "--seeds", "99999"],
     "error: the sweep would check more than 1000000 cases; lower --m-max, "
     "--n, --support-max or --seeds\n"),
    # tree check prints its blocks, t0 and t1, about 3.2e9 elements each
    (["tree", "check", "--n", "2", "--s", "{3}", "--m", "1000000000"],
     "error: tree check would print more than 1000000 elements; lower --m, "
     "--n or the elements of --s\n"),
    (["tree", "check", "--n", "2", "--s", "{1000000000}",
      "--m", "1000000001"],
     "error: tree check would print more than 1000000 elements; lower --m, "
     "--n or the elements of --s\n"),
    # a transposed grid of 8.4e8 entries, filled as packed rows
    (["compacta", "inject", "--mode", "L", "--alpha", "w",
      "--rows", "17", "--cols", "20"], {"all_distinct": True}),
    # the 2,584 x 24,653 grid as one JSON line of 128 MB, streamed from
    # the packed grid: the SHA-256 of its bytes
    (["compacta", "matrix", "--mode", "K", "--alpha", "w", "--rows", "16",
      "--cols", "16", "--format", "json"],
     bytes.fromhex("2d9202e0999ea090cf0e12f3e3c6bdaf"
                   "c1b442c7af47730795dcc09c50098854")),
    # 8.6e9 entries, refused after both enumerations and before the fill
    (["compacta", "inject", "--mode", "K", "--alpha", "2",
      "--rows", "447", "--cols", "18"],
     "error: the matrix would have 99682 x 86294 entries, more than "
     "8000000000; lower --rows or --cols\n"),
]


def test_A11_small_inputs_answer_within_seconds(tmp_path):
    # ``want``: an exit-2 error message (str), keys of the first line
    # (dict), a line count (int) or the SHA-256 of stdout (bytes); stdout
    # goes to a file and is read back a mebibyte at a time
    budget, slowest = 5.0, 0.0
    for argv, want in SMALL_INPUTS:
        with open(tmp_path / "stdout", "w+b") as out:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "schreier_kit", *argv], stdout=out,
                stderr=subprocess.PIPE, text=True, timeout=budget)
            wall = time.perf_counter() - start
            assert wall < budget, f"{argv} took {wall:.1f}s, budget {budget}s"
            out.seek(0)
            chunks = iter(functools.partial(out.read, 1 << 20), b"")
            if isinstance(want, str):
                got = (done.returncode, out.read(), done.stderr)
                assert got == (2, b"", want), argv[:2]
            else:
                assert done.returncode == 0, (argv, done.stderr)
                if isinstance(want, dict):
                    first = json.loads(out.readline())
                    got = {key: first[key] for key in want}
                elif isinstance(want, int):
                    got = sum(chunk.count(b"\n") for chunk in chunks)
                else:
                    digest = hashlib.sha256()
                    for chunk in chunks:
                        digest.update(chunk)
                    got = digest.digest()
                assert got == want, argv
        slowest = max(slowest, wall)
    print(f"A11 small inputs: PASS ({len(SMALL_INPUTS)} cases, "
          f"slowest {slowest:.2f}s)")
