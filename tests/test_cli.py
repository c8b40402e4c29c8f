"""The command-line surface: output bytes, exit codes, error routing."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from schreier_kit import cli, verify as verify_mod

CSV_3X3 = (",,1,2,3,2 3\n"
           ",1,1,1,1,1\n"
           "1,1,0,1,1,1\n"
           "2,1,1,0,1,0\n"
           "3,1,1,1,0,0\n")


class _Discard:
    """A stdout with only ``write`` and ``flush`` that keeps nothing."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


class TestFam:
    def test_parse_canonicalizes(self, run_cli):
        code, out, err = run_cli(["fam", "parse", "prod( schreier ,cube(3,3) )"])
        assert (code, err) == (0, "")
        assert out == '{"canonical":"prod(schreier, cube(3,3))"}\n'

    def test_parse_keeps_the_square_sugar(self, run_cli):
        code, out, _ = run_cli(["fam", "parse", "S2"])
        assert code == 0 and out == '{"canonical":"S2"}\n'

    def test_rank_text_is_the_bare_ordinal(self, run_cli):
        code, out, _ = run_cli(["fam", "rank", "prod(schreier, cube(3,3))"])
        assert code == 0 and out == "w*3+1\n"

    def test_rank_json(self, run_cli):
        code, out, _ = run_cli(["fam", "rank", "S2", "--format", "json"])
        assert code == 0
        assert out == '{"family":"S2","rank":"w^2+1","rule_derived":false}\n'

    def test_enum_emits_one_json_object_per_set(self, run_cli):
        code, out, _ = run_cli(["fam", "enum", "schreier", "--max", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == '{"maximal":false,"set":[]}'
        assert lines[1] == '{"maximal":true,"set":[1]}'
        assert lines[-1] == '{"maximal":false,"set":[3,4]}'
        assert len(lines) == 8

    def test_enum_csv(self, run_cli):
        code, out, _ = run_cli(["fam", "enum", "schreier", "--max", "3",
                                "--format", "csv"])
        assert code == 0
        assert out == "set,maximal\n,false\n1,true\n2,false\n3,false\n2 3,true\n"

    def test_enum_past_the_member_limit_exits_2_quickly(self, run_cli):
        # schreier has 267,914,296 members within [1..40]
        start = time.perf_counter()
        code, out, err = run_cli(["fam", "enum", "schreier", "--max", "40"])
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err == ("error: more than 100000 members within [1..40]; "
                       "lower the bound\n")

    def test_enum_refuses_a_huge_universe_quickly(self, run_cli):
        # the limit is met while the singletons are still being built
        start = time.perf_counter()
        code, out, err = run_cli(["fam", "enum", "schreier", "--max", "2000000"])
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == ("error: more than 100000 members within [1..2000000]; "
                       "lower the bound\n")

    def test_maximal_on_a_long_s2_member_is_quick(self, run_cli):
        # the tail threshold reads the expression only, never the 2^39
        # compositions of the set
        s = "{" + ",".join(map(str, range(40, 80))) + "}"
        start = time.perf_counter()
        code, out, _ = run_cli(["fam", "maximal", "S2", "--s", s])
        assert time.perf_counter() - start < 2
        assert code == 0
        assert '"maximal":false' in out

    def test_member_and_maximal(self, run_cli):
        code, out, _ = run_cli(["fam", "member", "schreier", "--s", "{1,2}"])
        assert code == 0
        assert out == '{"family":"schreier","member":false,"set":[1,2]}\n'
        code, out, _ = run_cli(["fam", "maximal", "schreier", "--s", "{2,3}"])
        assert code == 0
        assert out == '{"family":"schreier","maximal":true,"set":[2,3]}\n'

    def test_syntax_errors_exit_2_with_the_offset(self, run_cli):
        code, out, err = run_cli(["fam", "parse", "prod(schreier)"])
        assert (code, out) == (2, "")
        assert err == "error: expected ',' (offset 14)\n"

    @staticmethod
    def nested_products(depth):
        return "prod(schreier, " * depth + "schreier" + ")" * depth

    def test_nesting_up_to_100_levels_is_answered(self, run_cli):
        code, out, err = run_cli(["fam", "member", self.nested_products(100),
                                  "--s", "{3,4,5}"])
        assert (code, err) == (0, "")
        assert out.endswith('"member":true,"set":[3,4,5]}\n')

    @pytest.mark.parametrize("cmd,depth", [("member", 101), ("member", 3000),
                                           ("parse", 101), ("parse", 3000)])
    def test_deeper_nesting_exits_2_with_the_offset(self, run_cli, cmd, depth):
        argv = ["fam", cmd, self.nested_products(depth)]
        if cmd == "member":
            argv += ["--s", "{3,4,5}"]
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        # the offset points at the opening word of the 101st level
        offset = len("prod(schreier, ") * 100 + 1
        assert err == ("error: family nested deeper than 100 levels "
                       f"(offset {offset})\n")


class TestTheta:
    def test_eval_golden(self, run_cli):
        code, out, _ = run_cli(["theta", "eval", "--s", "{2,5,8}",
                                "--t", "{2,3,5,8,9}"])
        assert code == 0
        assert out == ('{"blocks":[[2,3],[5,8,9]],"inner":2,'
                       '"s":[2,5,8],"t":[2,3,5,8,9],"theta":1}\n')

    def test_decompose_golden(self, run_cli):
        code, out, _ = run_cli(["theta", "decompose", "--t", "{2,3,5,8,9}"])
        assert code == 0
        assert out == '{"blocks":[[2,3],[5,8,9]],"minima":[2,5],"t":[2,3,5,8,9]}\n'

    def test_undecomposable_set_exits_2(self, run_cli):
        code, out, err = run_cli(["theta", "decompose", "--t", "{1,2}"])
        assert (code, out) == (2, "")
        assert err == "error: block minima of (1, 2) exceed the schreier bound\n"


class TestCompacta:
    def test_matrix_defaults_to_csv(self, run_cli):
        code, out, _ = run_cli(["compacta", "matrix", "--mode", "K",
                                "--alpha", "1", "--rows", "3", "--cols", "3"])
        assert code == 0 and out == CSV_3X3

    def test_matrix_json(self, run_cli):
        code, out, _ = run_cli(["compacta", "matrix", "--mode", "K",
                                "--alpha", "1", "--rows", "2", "--cols", "2",
                                "--format", "json"])
        assert code == 0
        got = json.loads(out)
        assert got == {"alpha": "1", "col_bound": 2, "cols": [[], [1], [2]],
                       "entries": [[1, 1, 1], [1, 0, 1], [1, 1, 0]],
                       "index": "all", "mode": "K", "row_bound": 2,
                       "rows": [[], [1], [2]]}

    @pytest.mark.parametrize("mode, sha", [
        ("K", "a720e8e797bee76b53997f4cbd723f6479cf0c5b677859ae4a46704071f4139a"),
        ("L", "511d708fb46484995863acb2ed82ce505ed47e61e767394e7dbebce047429434"),
    ])
    def test_matrix_json_bytes(self, run_cli, mode, sha):
        code, out, _ = run_cli(["compacta", "matrix", "--mode", mode,
                                "--alpha", "w", "--rows", "7", "--cols", "7",
                                "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    def test_matrix_export_holds_about_one_grid(self, tmp_path, monkeypatch):
        # a stdout that keeps nothing, as a pipe to a reader does
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            code = cli.main(["compacta", "matrix", "--mode", "K",
                             "--alpha", "w", "--rows", "14", "--cols", "14",
                             "--pbm", str(tmp_path / "m.pbm")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # the 987 x 6718 grid is 6.3 MiB; rendering either text whole, as
        # one str plus its copies, peaks at 49.6 MiB
        assert peak < 24 * 2**20, peak

    def test_matrix_pbm_file(self, run_cli, tmp_path):
        target = tmp_path / "m.pbm"
        code, out, _ = run_cli(["compacta", "matrix", "--mode", "K",
                                "--alpha", "1", "--rows", "3", "--cols", "3",
                                "--pbm", str(target)])
        assert code == 0 and out == CSV_3X3
        assert target.read_text() == ("P1\n5 4\n1 1 1 1 1\n1 0 1 1 1\n"
                                      "1 1 0 1 0\n1 1 1 0 0\n")

    def test_witness_golden(self, run_cli):
        code, out, _ = run_cli(["compacta", "witness", "--s0", "{2,8}",
                                "--s1", "{2,16}"])
        assert code == 0
        assert out == ('{"s0":[2,8],"s1":[2,16],"theta0":1,"theta1":0,'
                       '"witness":[2,3,8,9,10,11,12,13,14,15]}\n')

    def test_search_golden(self, run_cli):
        code, out, _ = run_cli(["compacta", "search", "--t0", "{2,3}",
                                "--t1", "{2,4}"])
        assert code == 0
        assert out == '{"bound":4,"separator":[3],"t0":[2,3],"t1":[2,4]}\n'

    @pytest.mark.parametrize("big", [10 ** 12, 10 ** 30])
    def test_search_with_a_large_element_answers_at_once(self, run_cli, big):
        # neither the rows nor the kernel grid grow with the elements; an
        # array sized by these elements would fail to allocate at once
        for bound in ([], ["--bound", "3"]):
            code, out, _ = run_cli(["compacta", "search", "--t0", "{2}",
                                    "--t1", "{%d}" % big] + bound)
            assert code == 0
            assert out == ('{"bound":%d,"separator":[2],"t0":[2],"t1":[%d]}\n'
                           % (big if not bound else 3, big))

    def test_inject_golden(self, run_cli):
        code, out, _ = run_cli(["compacta", "inject", "--mode", "K",
                                "--alpha", "1", "--rows", "3", "--cols", "3"])
        assert code == 0
        assert out == ('{"all_distinct":true,"classes":[[[]],[[1]],[[2]],[[3]]],'
                       '"col_bound":3,"truncation_artifact":'
                       '[false,false,false,false]}\n')


class TestTree:
    def test_check_golden(self, run_cli):
        code, out, _ = run_cli(["tree", "check", "--n", "3", "--s", "{4,6}",
                                "--m", "9"])
        assert code == 0
        got = json.loads(out)
        assert got["value"] == "1"
        assert got["chain"] == [list(range(8, 16)), list(range(16, 32))]
        assert got["t1"] == list(range(8, 64))
        assert got["generator"] == "canonical"

    def test_check_seeded_is_reproducible(self, run_cli):
        argv = ["tree", "check", "--n", "2", "--s", "{3}", "--m", "5",
                "--seed", "7"]
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
        code, out, _ = first
        assert code == 0
        got = json.loads(out)
        assert got["value"] == "-1" and got["generator"] == "seeded(7)"

    def test_sweep_reports_per_support(self, run_cli):
        code, out, _ = run_cli(["tree", "sweep", "--n", "2",
                                "--support-max", "5", "--m-max", "7"])
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 6
        assert lines[0] == {"cases": 7, "failures": [], "n": 2, "ok": True,
                            "s": [], "sign": 1}
        assert all(line["ok"] and not line["failures"] for line in lines)
        assert [line["sign"] for line in lines] == [1, -1, -1, -1, -1, -1]

    def test_sweep_matches_the_benchmark_golden(self, run_cli):
        golden = json.loads((Path(__file__).parents[1] / "bench"
                             / "golden.json").read_text())["sweep"]
        code, out, _ = run_cli(["tree", "sweep", "--n", "4", "--support-max",
                                "9", "--m-max", "12", "--seeds", "30"])
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == golden["sha256"][0])

    def test_sweep_past_the_chain_limit_exits_2_quickly(self, run_cli):
        # about 4.4e11 chain sets: refused before any is built
        start = time.perf_counter()
        code, out, err = run_cli(["tree", "sweep", "--n", "12", "--support-max",
                                  "60", "--m-max", "61"])
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err == ("error: the sweep would build 435878172349 chains, more "
                       "than the limit 100000; lower --n, --support-max or "
                       "--seeds\n")

    def test_sweep_at_the_chain_limit_runs(self, run_cli):
        # at level 1 only the empty chain set is swept, once per generator
        argv = ["tree", "sweep", "--n", "1", "--m-max", "0", "--seeds"]
        code, out, _ = run_cli(argv + ["99999"])
        assert (code, out) == (0, '{"cases":0,"failures":[],"n":1,"ok":true,'
                                  '"s":[],"sign":1}\n')
        code, out, _ = run_cli(argv + ["100000"])
        assert (code, out) == (2, "")

    def test_sweep_past_the_case_limit_exits_2_quickly(self, run_cli):
        # one chain, but 1,000,001 values of m: refused before it is built
        start = time.perf_counter()
        code, out, err = run_cli(["tree", "sweep", "--n", "1", "--m-max",
                                  "1000001"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("error: the sweep would check up to 1000001 cases, more "
                       "than the limit 1000000; lower --m-max, --n, "
                       "--support-max or --seeds\n")
        code, out, _ = run_cli(["tree", "sweep", "--n", "1", "--m-max",
                                "1000000001"])
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("flag", ["--seeds", "--support-max", "--m-max"])
    def test_sweep_rejects_negative_counts(self, run_cli, flag):
        code, out, err = run_cli(["tree", "sweep", "--n", "2", flag, "-1"])
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be >= 0, got -1\n"

    def test_invalid_chain_exits_2(self, run_cli):
        code, out, err = run_cli(["tree", "check", "--n", "1", "--s", "{3,5}",
                                  "--m", "9"])
        assert code == 2 and out == ""
        assert err == "error: level 1 admits chains of length <= 1\n"


class TestVerifyCommand:
    def test_single_suite_reports_to_stdout(self, run_cli):
        code, out, err = run_cli(["verify", "--suite",
                                  "finset.interval_structure", "--max", "6"])
        assert code == 0
        assert out == ('{"cases":462,"failures":[],'
                       '"suite":"finset.interval_structure"}\n')
        # timing goes to stderr so stdout stays byte-stable
        assert re.fullmatch(r"finset\.interval_structure: 462 cases, "
                            r"0 failures, \d+\.\d\ds, \d+ cases/s\n", err)

    def test_zero_wall_time_reports_a_zero_rate(self, run_cli, monkeypatch):
        report = verify_mod.VerifyReport("finset.interval_structure", 5, [])
        monkeypatch.setattr(verify_mod, "run_suite", lambda name, cap: report)
        code, _, err = run_cli(["verify", "--suite",
                                "finset.interval_structure"])
        assert code == 0
        assert err == ("finset.interval_structure: 5 cases, 0 failures, "
                       "0.00s, 0 cases/s\n")

    def test_unknown_suite_exits_2_and_lists_names(self, run_cli):
        code, out, err = run_cli(["verify", "--suite", "nope"])
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown suite 'nope'")
        assert "averaging.cancellation_exact" in err


class TestHarness:
    def test_help_exits_0(self, run_cli):
        code, out, _ = run_cli(["--help"])
        assert code == 0 and out.startswith("usage")

    def test_unknown_command_exits_2(self, run_cli):
        code, _, _ = run_cli(["bogus"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["compacta", "matrix", "--mode", "K", "--alpha", "w",
         "--rows", "14", "--cols", "14"],
        ["fam", "enum", "schreier", "--max", "18"],
    ])
    def test_closed_stdout_exits_0_without_a_traceback(self, argv):
        # both outputs are far larger than a pipe's buffer, so the command
        # is still writing when the reader goes away
        proc = subprocess.Popen([sys.executable, "-m", "schreier_kit", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(20)
        proc.stdout.close()
        try:
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert len(head) == 20
        assert (code, err) == (0, b"")

    def test_unwritable_output_file_exits_2_without_a_traceback(self, tmp_path):
        target = tmp_path / "missing" / "x.pbm"
        r = subprocess.run([sys.executable, "-m", "schreier_kit", "compacta",
                            "matrix", "--mode", "K", "--alpha", "1", "--rows",
                            "3", "--cols", "3", "--pbm", str(target)],
                           capture_output=True, text=True)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith("error: ") and str(target) in r.stderr
        assert "Traceback" not in r.stderr

    def test_module_entry_point(self):
        r = subprocess.run([sys.executable, "-m", "schreier_kit",
                            "fam", "parse", "S2"],
                           capture_output=True, text=True)
        assert r.returncode == 0
        assert r.stdout == '{"canonical":"S2"}\n'

    @pytest.mark.parametrize("argv", [
        ["compacta", "matrix", "--mode", "K", "--alpha", "2",
         "--rows", "7", "--cols", "7"],
        ["verify", "--suite", "kernel.sign_formula", "--max", "8"],
    ])
    def test_stdout_bytes_ignore_the_thread_count(self, argv):
        outs = set()
        for threads in ("1", "4"):
            env = dict(os.environ, SCHREIER_KIT_THREADS=threads)
            r = subprocess.run([sys.executable, "-m", "schreier_kit"] + argv,
                               capture_output=True, env=env)
            assert r.returncode == 0
            outs.add(r.stdout)
        assert len(outs) == 1
