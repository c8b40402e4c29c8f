"""The command-line surface: output bytes, exit codes, error routing."""

import dataclasses
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from schreier_kit import averaging, cli, compacta, verify as verify_mod
from schreier_kit.averaging import CanonicalBlocks, SeededBlocks, build_chain
from schreier_kit.family import All, format_index
from schreier_kit.finset import FinSet

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

    @pytest.mark.parametrize("text", [
        "restrict(restrict(schreier, ap(3,2)), ap(2,4))",
        # no power of 2 is a multiple of 1000003
        "restrict(restrict(schreier, powers(2)), ap(1000003,1000003))",
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rank_of_an_empty_meet_is_1(self, run_cli, text, fmt):
        # the meet leaves the leaf no element: the family is {∅}
        code, out, _ = run_cli(["fam", "rank", text, "--format", fmt])
        assert code == 0
        if fmt == "text":
            assert out == "1\n"
        else:
            assert json.loads(out) == {"family": text, "rank": "1",
                                       "rule_derived": False}

    @pytest.mark.parametrize("text", [
        "restrict(prod(schreier, restrict(schreier, powers(3))), powers(2))",
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rank_of_a_finite_meet_exits_2(self, run_cli, text, fmt):
        code, out, err = run_cli(["fam", "rank", text, "--format", fmt])
        assert (code, out) == (2, "")
        assert err == ("error: rank needs an infinite index set at every "
                       "restriction\n")

    def test_rank_of_an_infinite_meet_is_answered(self, run_cli):
        code, out, _ = run_cli(["fam", "rank", "restrict(S2, powers(2))"])
        assert code == 0 and out == "w^2+1\n"

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


# One malformed value for each argument that takes a literal, with the
# byte offset its error must report.
@pytest.mark.parametrize("argv,offset", [
    pytest.param(["fam", "parse", "cube(²,1)"], 6, id="expr"),
    pytest.param(["fam", "member", "schreier", "--s", "{1,+2}"], 4, id="s"),
    pytest.param(["theta", "eval", "--s", "{2}", "--t", "{1_0}"], 3, id="t"),
    pytest.param(["compacta", "search", "--t0", "{٣}", "--t1", "{4}"], 2,
                 id="t0"),
    pytest.param(["compacta", "search", "--t0", "{3}", "--t1", "∅ 3"], 5,
                 id="t1"),
    pytest.param(["compacta", "witness", "--s0", "{0,2}", "--s1", "{2,16}"], 2,
                 id="s0"),
    pytest.param(["compacta", "witness", "--s0", "{2,8}", "--s1", "{2,\n16}"],
                 4, id="s1"),
    pytest.param(["compacta", "matrix", "--mode", "K", "--alpha", "1",
                  "--index", "powers(٣)"], 8, id="index"),
    pytest.param(["compacta", "inject", "--mode", "L", "--alpha", "3_0"], 2,
                 id="alpha"),
])
def test_malformed_literals_exit_2_with_the_byte_offset(run_cli, argv, offset):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(f"(offset {offset})\n"), err


# A valid command line around each integer flag; its value goes last.
INTEGER_FLAGS = {
    "--max": ["fam", "enum", "schreier"],
    "--rows": ["compacta", "matrix", "--mode", "K", "--alpha", "1"],
    "--cols": ["compacta", "inject", "--mode", "K", "--alpha", "1"],
    "--bound": ["compacta", "search", "--t0", "{1}", "--t1", "{2}"],
    "--n": ["tree", "check", "--s", "{}", "--m", "3"],
    "--m": ["tree", "check", "--n", "1", "--s", "{}"],
    "--seed": ["tree", "check", "--n", "1", "--s", "{}", "--m", "3"],
    "--support-max": ["tree", "sweep", "--n", "2"],
    "--m-max": ["tree", "sweep", "--n", "2"],
    "--seeds": ["tree", "sweep", "--n", "2"],
}


@pytest.mark.parametrize("value,offset", [
    ("x", 1), ("1_0", 2), ("٣", 1), ("+3", 1), ("", 1), ("3 4", 3),
    ("-", 2), ("2.0", 2)])
@pytest.mark.parametrize("flag", list(INTEGER_FLAGS))
def test_integer_flags_follow_the_lexical_rule(run_cli, flag, value, offset):
    code, out, err = run_cli(INTEGER_FLAGS[flag] + [flag, value])
    assert (code, out) == (2, "")
    assert f"argument {flag}: " in err
    assert err.endswith(f"(offset {offset})\n"), err


@pytest.mark.parametrize("flag", list(INTEGER_FLAGS))
def test_integer_flags_read_their_value(run_cli, flag):
    code, _, _ = run_cli(INTEGER_FLAGS[flag] + [flag, "2"])
    assert code == 0


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

    def test_matrix_json_prints_the_parsed_level(self, run_cli):
        argv = ["compacta", "matrix", "--mode", "K", "--rows", "2",
                "--cols", "2", "--format", "json", "--alpha"]
        code, out, _ = run_cli(argv + ["03"])
        assert (code, out) == run_cli(argv + ["3"])[:2]
        assert json.loads(out)["alpha"] == "3"

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
        # the 987 x 6718 grid is 6.3 MiB at one byte per entry; rendering
        # either text whole, as one str plus its copies, peaks at 49.6 MiB
        assert peak < 24 * 2**20, peak

    def test_matrix_export_holds_the_grid_at_one_bit(self, tmp_path,
                                                     monkeypatch):
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
        # packed, the grid is 0.8 MiB; at one byte per entry the export
        # peaks near 15 MiB
        assert peak < 12 * 2**20, peak

    @pytest.mark.parametrize("shape", ["no rows", "no columns", "1x1",
                                       "14x14"])
    def test_matrix_json_is_the_dump_of_its_dict(self, run_cli, monkeypatch,
                                                 k14, shape):
        m = {"no rows": lambda: compacta.matrix_from_sets(
                 "K", [], [FinSet((2, 3))]),
             "no columns": lambda: compacta.matrix_from_sets(
                 "L", [FinSet((2, 3))] * 3, []),
             "1x1": lambda: compacta.build_matrix("K", 1, All(), 0, 0),
             "14x14": lambda: k14}[shape]()
        monkeypatch.setattr(cli, "_build_matrix_from_args", lambda args: m)
        code, out, _ = run_cli(["compacta", "matrix", "--mode", m.mode,
                                "--alpha", "w", "--format", "json"])
        # the dict that the grid once went out in, whole, through ``_emit``
        whole = {"alpha": str(m.alpha), "col_bound": m.col_bound,
                 "cols": [list(c.elems) for c in m.cols],
                 "entries": m.entries.tolist(),
                 "index": format_index(m.index), "mode": m.mode,
                 "row_bound": m.row_bound,
                 "rows": [list(r.elems) for r in m.rows]}
        assert code == 0
        assert out == json.dumps(whole, sort_keys=True,
                                 separators=(",", ":")) + "\n"

    def test_matrix_json_export_streams(self, monkeypatch, k14):
        # the whole JSON line, keys included (``compacta.write`` alone is
        # held to a few pieces in test_compacta): the grid and its set
        # labels exist before tracing starts, and above the export of the
        # same columns and no rows, the 14x14 export may hold a few text
        # pieces, not its 13 MB of text or a list of its 6.6 M entries
        monkeypatch.setattr(sys, "stdout", _Discard())

        def peak(m):
            monkeypatch.setattr(cli, "_build_matrix_from_args",
                                lambda args: m)
            tracemalloc.start()
            try:
                assert cli.main(["compacta", "matrix", "--mode", "K",
                                 "--alpha", "w", "--format", "json"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        no_rows = dataclasses.replace(k14, rows=(), bits=k14.bits[:0])
        above = peak(k14) - peak(no_rows)
        assert above <= 4 * compacta._PIECE_BYTES, above

    def test_matrix_labels_stream(self, monkeypatch, k14):
        # with no rows, the 14x14 K export is its 6,718 column labels; the
        # CSV header and the JSON "cols" go out a few pieces at a time, not
        # as one string of every label (0.58 MB and 4.0 MB whole), and so
        # do the JSON "rows" of the same sets as rows with no columns
        monkeypatch.setattr(sys, "stdout", _Discard())
        no_rows = dataclasses.replace(k14, rows=(), bits=k14.bits[:0])
        no_cols = dataclasses.replace(
            k14, rows=k14.cols, cols=(),
            bits=k14.bits[:1, :0].repeat(len(k14.cols), 0))

        def peak(export):
            tracemalloc.start()
            try:
                export()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def json_export(m):
            monkeypatch.setattr(cli, "_build_matrix_from_args",
                                lambda args: m)
            assert cli.main(["compacta", "matrix", "--mode", "K",
                             "--alpha", "w", "--format", "json"]) == 0

        bound = 4 * compacta._PIECE_BYTES
        got = peak(lambda: compacta.write(no_rows, "csv", sys.stdout))
        assert got <= bound, got
        got = peak(lambda: json_export(no_rows))
        assert got <= bound, got
        got = peak(lambda: json_export(no_cols))
        assert got <= bound, got

    def test_matrix_pbm_file(self, run_cli, tmp_path):
        target = tmp_path / "m.pbm"
        code, out, _ = run_cli(["compacta", "matrix", "--mode", "K",
                                "--alpha", "1", "--rows", "3", "--cols", "3",
                                "--pbm", str(target)])
        assert code == 0 and out == CSV_3X3
        assert target.read_text() == ("P1\n5 4\n1 1 1 1 1\n1 0 1 1 1\n"
                                      "1 1 0 1 0\n1 1 1 0 0\n")

    def test_matrix_workload_matches_the_benchmark_golden(self, run_cli,
                                                          tmp_path):
        # the bench's matrix workload: matrix stdout, inject stdout, PBM file
        golden = json.loads((Path(__file__).parents[1] / "bench"
                             / "golden.json").read_text())["matrix"]
        pbm = tmp_path / "matrix.pbm"
        code, matrix, _ = run_cli(["compacta", "matrix", "--mode", "K",
                                   "--alpha", "w", "--rows", "14", "--cols",
                                   "14", "--pbm", str(pbm)])
        assert code == 0
        code, inject, _ = run_cli(["compacta", "inject", "--mode", "L",
                                   "--alpha", "w", "--rows", "13", "--cols",
                                   "13"])
        assert code == 0
        digests = [hashlib.sha256(data).hexdigest() for data in
                   (matrix.encode(), inject.encode(), pbm.read_bytes())]
        assert digests == golden["sha256"]

    def test_witness_golden(self, run_cli):
        code, out, _ = run_cli(["compacta", "witness", "--s0", "{2,8}",
                                "--s1", "{2,16}"])
        assert code == 0
        assert out == ('{"s0":[2,8],"s1":[2,16],"theta0":1,"theta1":0,'
                       '"witness":[2,3,8,9,10,11,12,13,14,15]}\n')
        # s1 a proper prefix of s0: the witness follows s0
        code, out, _ = run_cli(["compacta", "witness", "--s0", "{2,8}",
                                "--s1", "{2}"])
        assert code == 0
        assert out == ('{"s0":[2,8],"s1":[2],"theta0":1,"theta1":0,'
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

    @pytest.mark.parametrize("piece_bytes", [1, 1 << 10, None])
    def test_inject_json_is_the_dump_of_its_dict(self, run_cli, monkeypatch,
                                                 piece_bytes):
        # the classes go out in pieces of one, eight and 1,024 labels
        if piece_bytes:
            monkeypatch.setattr(compacta, "_PIECE_BYTES", piece_bytes)
        m = compacta.build_matrix("L", "w", All(), 8, 4)
        report = compacta.injectivity_report(m)
        assert not report.all_distinct
        code, out, _ = run_cli(["compacta", "inject", "--mode", "L",
                                "--alpha", "w", "--rows", "8", "--cols", "4"])
        whole = {"all_distinct": report.all_distinct,
                 "classes": [[list(m.rows[i].elems) for i in cls]
                             for cls in report.classes],
                 "col_bound": report.col_bound,
                 "truncation_artifact": list(report.truncation_artifact)}
        assert code == 0
        assert out == json.dumps(whole, sort_keys=True,
                                 separators=(",", ":")) + "\n"

    def test_inject_golden(self, run_cli):
        code, out, _ = run_cli(["compacta", "inject", "--mode", "K",
                                "--alpha", "1", "--rows", "3", "--cols", "3"])
        assert code == 0
        assert out == ('{"all_distinct":true,"classes":[[[]],[[1]],[[2]],[[3]]],'
                       '"col_bound":3,"truncation_artifact":'
                       '[false,false,false,false]}\n')


def loop_sweep(n, support_max, m_max, seeds):
    """The lines of ``tree sweep`` by the per-m loop that the runs replace,
    kept as a reference: one block and one pairing per m."""
    gens = [CanonicalBlocks()] + [SeededBlocks(s) for s in range(1, seeds + 1)]
    lines = []
    for r in range(min(n, support_max + 1)):
        for els in itertools.combinations(range(1, support_max + 1), r):
            s = FinSet(els)
            sign = (-1) ** len(s)
            cases, bad = 0, []
            for gen in gens:
                chain = build_chain(n, s, gen)
                for m in range(s.max_or_0 + 1, m_max + 1):
                    cases += 1
                    span = averaging._next_span(n, s.elems, chain.spans, m, gen)
                    value = averaging._cancellation_pairing(
                        chain.spans, chain.spans + (span,))
                    if value != sign:
                        bad.append(f"m={m} {gen.describe()}: cancellation "
                                   f"failed at {s} + {m}: got {value}")
            line = {"cases": cases, "failures": bad, "n": n, "ok": not bad,
                    "s": list(els), "sign": sign}
            lines.append(json.dumps(line, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    return "".join(lines)


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

    @pytest.mark.parametrize("n, support_max, m_max, seeds", [
        (1, 0, 4, 1),   # only the empty chain set, one seeded generator
        (4, 2, 6, 2),   # the level asks for more elements than [1..2] has
        (2, 5, 7, 0),   # the canonical generator alone
    ])
    def test_sweep_at_the_clip_edges_matches_the_loop(
            self, run_cli, n, support_max, m_max, seeds):
        code, out, _ = run_cli(["tree", "sweep", "--n", str(n),
                                "--support-max", str(support_max),
                                "--m-max", str(m_max), "--seeds", str(seeds)])
        assert code == 0
        assert out == loop_sweep(n, support_max, m_max, seeds)

    def test_sweep_at_level_0_still_fails(self, run_cli):
        # the empty chain set is always swept, so a bad level is refused
        assert run_cli(["tree", "sweep", "--n", "0", "--support-max", "3"]) == (
            2, "", "error: level must be >= 1\n")

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
        assert err == ("error: the sweep would build more than 100000 chains; "
                       "lower --n, --support-max or --seeds\n")

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
        assert err == ("error: the sweep would check more than 1000000 cases; "
                       "lower --m-max, --n, --support-max or --seeds\n")
        code, out, _ = run_cli(["tree", "sweep", "--n", "1", "--m-max",
                                "1000000001"])
        assert (code, out) == (2, "")

    def test_sweep_at_the_case_limit_runs_in_little_memory(self):
        # a million values of m in one fresh process: the runs are drawn
        # lazily, so the peak stays near the bare interpreter's.  A process
        # spawned from this one may start with this one's peak as its
        # ru_maxrss, so a small interpreter spawns the sweep and reports it.
        spawner = ("import resource, subprocess, sys\n"
                   "r = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE)\n"
                   "peak = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
                   "print(r.returncode, peak.ru_maxrss, r.stdout.decode(), "
                   "end='')\n")
        r = subprocess.run([sys.executable, "-c", spawner, sys.executable,
                            "-m", "schreier_kit", "tree", "sweep", "--n", "1",
                            "--m-max", "1000000"],
                           capture_output=True, text=True)
        code, peak_kb, out = r.stdout.split(" ", 2)
        assert (code, r.stderr) == ("0", "")
        assert out == ('{"cases":1000000,"failures":[],"n":1,"ok":true,'
                       '"s":[],"sign":1}\n')
        assert int(peak_kb) / 1024 < 60  # ru_maxrss is in kilobytes on Linux

    @pytest.mark.parametrize("wrong", [
        lambda spans, extended: extended == ((4, 7),),
        lambda spans, extended: not spans,
    ], ids=["one key", "every empty chain"])
    def test_a_planted_pairing_fault_prints_the_per_m_lines(
            self, run_cli, plant_pairing, wrong):
        plant_pairing(wrong)
        code, out, _ = run_cli(["tree", "sweep", "--n", "3", "--support-max",
                                "5", "--m-max", "20", "--seeds", "2"])
        assert code == 1
        assert out == loop_sweep(3, 5, 20, 2)
        # a failing run of several m prints one line per m
        first = json.loads(out.splitlines()[0])
        assert first["failures"][:3] == [
            f"m={m} canonical: cancellation failed at ∅ + {m}: got 1/3"
            for m in (1, 2, 3)]

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

    def test_check_output_is_bounded(self, run_cli):
        # chain [4, 7] twice plus t1: 8 + 4 + 2^19 elements pass, and one
        # more m doubles the new block past the limit
        code, out, _ = run_cli(["tree", "check", "--n", "2", "--s", "{3}",
                                "--m", str(2 ** 19 - 1)])
        assert code == 0
        assert len(json.loads(out)["t1"]) == 4 + 2 ** 19
        refusal = ("error: tree check would print more than 1000000 "
                   "elements; lower --m, --n or the elements of --s\n")
        for argv in (["--n", "2", "--s", "{3}", "--m", str(2 ** 19)],
                     ["--n", "1000000000", "--s", "{}", "--m", "1"]):
            assert run_cli(["tree", "check", *argv]) == (2, "", refusal)


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

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize(
        "suite", [[], ["--suite", "finset.interval_structure"]],
        ids=["all", "one"])
    def test_cap_below_one_exits_2(self, run_cli, cap, suite):
        assert run_cli(["verify", *suite, "--max", cap]) == (
            2, "", f"error: the verify cap (--max) must be >= 1, got {cap}\n")

    def test_uncapped_verify_stdout_is_pinned(self, run_cli):
        # every suite at its full bounds, the parity grids of
        # kernel.local_constancy, compacta.search_within_bound and
        # averaging.parity_table included; about 7 s
        code, out, _ = run_cli(["verify"])
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == \
            "2c827bea18d85f5cfe959166417a50d6"

    def test_unknown_suite_exits_2_and_lists_names(self, run_cli):
        code, out, err = run_cli(["verify", "--suite", "nope"])
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown suite 'nope'")
        assert "averaging.cancellation_exact" in err


class TestHarness:
    def test_help_exits_0(self, run_cli):
        code, out, _ = run_cli(["--help"])
        assert code == 0 and out.startswith("usage")

    @pytest.mark.parametrize("argv, error", [
        (["compacta", "matrix", "--mode", "K", "--alpha", "2",
          "--rows", "-1", "--cols", "3"],
         "truncation bound must be >= 0, got -1"),
        (["fam", "enum", "schreier", "--max", "-3"],
         "truncation bound must be >= 0, got -3"),
        (["compacta", "search", "--t0", "{2}", "--t1", "{3}", "--bound", "-4"],
         "search bound must be >= 0, got -4"),
        (["compacta", "inject", "--mode", "L", "--alpha", "w",
          "--rows", "3", "--cols", "-2"],
         "truncation bound must be >= 0, got -2"),
    ], ids=["matrix-rows", "enum-max", "search-bound", "inject-cols"])
    def test_negative_bound_exits_2(self, run_cli, argv, error):
        assert run_cli(argv) == (2, "", f"error: the {error}\n")

    def test_search_help_names_the_proved_default_bound(self, run_cli):
        code, out, _ = run_cli(["compacta", "search", "--help"])
        assert code == 0
        text = " ".join(out.split())
        assert "(default max(max t0, max t1)," in text
        assert "2*max+2" not in text

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
