"""Truncated kernel matrices, row injectivity, witnesses, and separators."""

import dataclasses
import hashlib
import itertools
import json
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from schreier_kit import compacta, kernel, verify
from schreier_kit.compacta import (
    ThetaMatrix,
    build_matrix,
    default_search_bound,
    distinguishing_search,
    first_separators,
    injectivity_report,
    matrix_from_sets,
    powers_witness,
    schreier_sets_upto,
    to_csv,
    to_pbm,
)
from schreier_kit.family import (All, Powers, SCHREIER, SCHREIER_SQUARE,
                                 enumerate_members, member)
from schreier_kit.finset import EMPTY, FinSet, interval

CSV_3X3 = (",,1,2,3,2 3\n"
           ",1,1,1,1,1\n"
           "1,1,0,1,1,1\n"
           "2,1,1,0,1,0\n"
           "3,1,1,1,0,0\n")

PBM_3X3 = ("P1\n"
           "5 4\n"
           "1 1 1 1 1\n"
           "1 0 1 1 1\n"
           "1 1 0 1 0\n"
           "1 1 1 0 0\n")

GOLDEN_DIGESTS = [
    ("K", 10, (144, 489),
     "b5efea11ff1acddd344ae21113271ae49a778f764e6ac5312ed2e8becf25ed15",
     "b2d65593f8c9b49d5679f935ac843d817e0c1ac8c4f24fb716e3c093f2f57c8c"),
    ("L", 9, (251, 89),
     "1908385d8f903a8820071581df3c9da763f3ee2e2a18c9f06e1fcaf90fdb3e9d",
     "1855519785975780c42e5e590f8d45aa5e493bccf04776a7353bdcc2163c907f"),
]


class TestMatrixConstruction:
    def test_small_matrix_exports(self):
        m = build_matrix("K", 1, All(), 3, 3)
        assert m.shape == (4, 5)
        assert m.entries.dtype == np.uint8
        assert to_csv(m) == CSV_3X3
        assert to_pbm(m) == PBM_3X3

    @pytest.mark.parametrize("mode", ["K", "L"])
    def test_negative_bounds_are_refused(self, mode):
        assert build_matrix(mode, 2, All(), 0, 0).shape == (1, 1)
        for rows, cols, bad in ((-1, 3, -1), (3, -2, -2)):
            with pytest.raises(ValueError, match=f">= 0, got {bad}"):
                build_matrix(mode, 2, All(), rows, cols)

    def test_entries_are_kernel_values_in_both_modes(self):
        mk = build_matrix("K", 2, All(), 6, 6)
        for i, s in enumerate(mk.rows):
            for j, t in enumerate(mk.cols):
                assert mk.entries[i, j] == kernel.parity(s, t)
        ml = build_matrix("L", 2, All(), 6, 6)
        for i, t in enumerate(ml.rows):
            for j, s in enumerate(ml.cols):
                assert ml.entries[i, j] == kernel.parity(s, t)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9])
    def test_grid_is_held_at_one_bit_per_entry(self, n):
        firsts = list(schreier_sets_upto(5))
        seconds = enumerate_members(SCHREIER_SQUARE, 6)
        for m in (matrix_from_sets("K", firsts, seconds[:n]),
                  matrix_from_sets("L", seconds, firsts[:n])):
            assert m.bits.shape == (len(m.rows), (n + 7) // 8)
            grid = m.entries
            assert grid.dtype == np.uint8 and grid.shape == m.shape
            for i, r in enumerate(m.rows):
                for j, c in enumerate(m.cols):
                    s, t = (r, c) if m.mode == "K" else (c, r)
                    assert grid[i, j] == kernel.parity(s, t)

    def test_empty_row_and_column_are_all_ones(self):
        m = build_matrix("K", "w", All(), 5, 5)
        assert m.rows[0] == EMPTY and m.cols[0] == EMPTY
        assert m.entries[0].min() == 1
        assert m.entries[:, 0].min() == 1

    def test_mode_is_validated(self):
        with pytest.raises(ValueError, match="mode must be"):
            build_matrix("X", 1)
        with pytest.raises(ValueError, match="mode must be"):
            matrix_from_sets("q", [EMPTY], [EMPTY])

    def test_repeated_builds_are_identical(self):
        a = build_matrix("K", "w", All(), 8, 8)
        b = build_matrix("K", "w", All(), 8, 8)
        assert a.rows == b.rows and a.cols == b.cols
        assert a.entries.tobytes() == b.entries.tobytes()

    def test_thread_count_does_not_change_the_bytes(self):
        saved = os.environ.get("SCHREIER_KIT_THREADS")
        outs = set()
        try:
            for threads in ("1", "4"):
                os.environ["SCHREIER_KIT_THREADS"] = threads
                outs.add(to_csv(build_matrix("L", 2, All(), 7, 7)))
        finally:
            if saved is None:
                os.environ.pop("SCHREIER_KIT_THREADS", None)
            else:
                os.environ["SCHREIER_KIT_THREADS"] = saved
        assert len(outs) == 1


class TestSerialization:
    def test_degenerate_shapes(self):
        no_cols = matrix_from_sets("K", [FinSet((2, 3))], [])
        assert to_csv(no_cols) == ",\n2 3,\n"
        assert to_pbm(no_cols) == "P1\n0 1\n\n"
        no_rows = matrix_from_sets("K", [], [FinSet((2, 3))])
        assert to_csv(no_rows) == ",2 3\n"
        assert to_pbm(no_rows) == "P1\n1 0\n"

    def test_unknown_format_is_refused_before_any_text(self):
        m = build_matrix("K", 1, All(), 3, 3)
        parts = []
        with pytest.raises(ValueError, match="format must be 'csv', 'pbm' "
                                             "or 'json', got 'xml'"):
            compacta.write(m, "xml", SimpleNamespace(write=parts.append))
        assert parts == []
        assert (to_csv(m), to_pbm(m)) == (CSV_3X3, PBM_3X3)

    @pytest.mark.parametrize("mode, bound, shape, csv_sha, pbm_sha",
                             GOLDEN_DIGESTS)
    def test_golden_digests(self, mode, bound, shape, csv_sha, pbm_sha):
        m = build_matrix(mode, "w", All(), bound, bound)
        assert m.shape == shape
        assert hashlib.sha256(to_csv(m).encode()).hexdigest() == csv_sha
        assert hashlib.sha256(to_pbm(m).encode()).hexdigest() == pbm_sha


@pytest.mark.parametrize("rows", [1, 7])
class TestSmallBlocks:
    """Fill blocks and text pieces of one and of seven rows give the same
    bytes as the defaults, which hold every matrix here in one block."""

    @staticmethod
    def shrink(monkeypatch, rows, width):
        # both sizes are per block, for a grid of ``width`` columns: a fill
        # block holds packed rows, a text piece two bytes per entry
        nbytes = max((width + 7) // 8, 1)
        monkeypatch.setattr(kernel, "_BLOCK_BYTES", rows * nbytes)
        monkeypatch.setattr(compacta, "_PIECE_BYTES", rows * max(2 * width, 1))

    @staticmethod
    def pieces(m, fmt):
        return list(compacta._pieces(m, fmt))

    def row_pieces(self, m):
        # the CSV header comes in pieces of its own, ending in a "\n" piece
        csv = self.pieces(m, "csv")
        return csv[csv.index("\n") + 1:]

    def json_rows(self, m):
        # the JSON pieces join to the compact dump of the 0/1 rows
        got = "".join(self.pieces(m, "json"))
        assert got == json.dumps(m.entries.tolist(), separators=(",", ":"))
        return got

    def test_small_and_degenerate_shapes(self, monkeypatch, rows):
        self.shrink(monkeypatch, rows, 5)
        m = build_matrix("K", 1, All(), 3, 3)
        assert (to_csv(m), to_pbm(m)) == (CSV_3X3, PBM_3X3)
        assert len(self.row_pieces(m)) == -(-4 // rows)
        assert self.json_rows(m) == ("[[1,1,1,1,1],[1,0,1,1,1],[1,1,0,1,0],"
                                     "[1,1,1,0,0]]")
        self.shrink(monkeypatch, rows, 0)
        no_cols = matrix_from_sets("K", [FinSet((2, 3))] * 9, [])
        assert to_csv(no_cols) == ",\n" + "2 3,\n" * 9
        assert to_pbm(no_cols) == "P1\n0 9\n" + "\n" * 9
        assert len(self.pieces(no_cols, "pbm")) == 1 + -(-9 // rows)
        assert self.json_rows(no_cols) == "[" + ",".join(["[]"] * 9) + "]"
        self.shrink(monkeypatch, rows, 1)
        no_rows = matrix_from_sets("K", [], [FinSet((2, 3))])
        assert (to_csv(no_rows), to_pbm(no_rows)) == (",2 3\n", "P1\n1 0\n")
        assert self.json_rows(no_rows) == "[]"
        one = matrix_from_sets("K", [FinSet((2,))], [FinSet((2, 3))])
        assert self.json_rows(one) == "[[0]]"

    @pytest.mark.parametrize("mode, bound, shape, csv_sha, pbm_sha",
                             GOLDEN_DIGESTS)
    def test_golden_digests(self, monkeypatch, rows, mode, bound, shape,
                            csv_sha, pbm_sha):
        self.shrink(monkeypatch, rows, shape[1])
        m = build_matrix(mode, "w", All(), bound, bound)
        csv = self.pieces(m, "csv")
        assert len(self.row_pieces(m)) == -(-shape[0] // rows)
        assert hashlib.sha256("".join(csv).encode()).hexdigest() == csv_sha
        assert hashlib.sha256(to_pbm(m).encode()).hexdigest() == pbm_sha
        self.json_rows(m)

    def test_exports_match_an_entry_oracle(self, monkeypatch, rows):
        # every width mod 8, labels with multi-digit elements; the oracle
        # formats each entry and label on its own
        big = [FinSet((10 ** 12,)), FinSet((10, 11)), FinSet((3, 10 ** 12))]
        firsts = big + list(schreier_sets_upto(6))
        seconds = big + enumerate_members(SCHREIER_SQUARE, 5)
        for w in range(18):
            self.shrink(monkeypatch, rows, w)
            for h in (0, 1, 9):
                for m in (matrix_from_sets("K", firsts[:h], seconds[:w]),
                          matrix_from_sets("L", seconds[:h], firsts[:w])):
                    assert m.shape == (h, w)
                    grid = m.entries.tolist()
                    assert to_csv(m) == (
                        "," + ",".join(c.csv_cell() for c in m.cols) + "\n"
                        + "".join(r.csv_cell() + "," + ",".join(map(str, row))
                                  + "\n" for r, row in zip(m.rows, grid)))
                    assert to_pbm(m) == f"P1\n{w} {h}\n" + "".join(
                        " ".join(map(str, row)) + "\n" for row in grid)
                    assert "".join(self.pieces(m, "json")) == \
                        json.dumps(grid, separators=(",", ":"))

    def test_write_sends_the_pieces(self, monkeypatch, rows):
        self.shrink(monkeypatch, rows, 5)
        m = build_matrix("K", 1, All(), 3, 3)
        parts = []
        # a stream with only ``write``, like the bench's stdout stand-in
        compacta.write(m, "pbm", SimpleNamespace(write=parts.append))
        assert parts == self.pieces(m, "pbm")
        assert "".join(parts) == PBM_3X3


@pytest.mark.parametrize("fmt", ["csv", "pbm", "json"])
def test_export_holds_a_few_pieces(k14, fmt):
    # the grid and its set labels exist before tracing starts; above the
    # export of the same columns and no rows (the CSV header), the 14x14
    # export may hold a few text pieces, not its 13 MB of text or its
    # 6.6 MB unpacked
    def peak(m):
        tracemalloc.start()
        try:
            compacta.write(m, fmt, SimpleNamespace(write=len))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    no_rows = dataclasses.replace(k14, rows=(), bits=k14.bits[:0])
    above = peak(k14) - peak(no_rows)
    assert above <= 4 * compacta._PIECE_BYTES, above


class TestInjectivity:
    def test_second_coordinate_rows_separate_at_a_deep_truncation(self):
        m = build_matrix("L", "w", All(), 8, 10)
        assert m.shape == (128, 144)
        rep = injectivity_report(m)
        assert rep.all_distinct
        assert rep.col_bound == 10

    def test_powers_rows_collide_under_truncation(self):
        m = build_matrix("K", "w", Powers(2), 64, 128)
        rep = injectivity_report(m)
        assert not rep.all_distinct
        named = [tuple(str(m.rows[i]) for i in cls)
                 for cls in rep.collision_classes]
        assert ("{2}", "{2,4}") in named
        assert ("{4,8}", "{4,8,16}", "{4,8,32}", "{4,8,64}",
                "{4,8,16,32}", "{4,8,16,64}", "{4,8,32,64}") in named
        assert len(rep.collision_classes) == 7
        # every row label fits inside the column window, so none of these
        # collisions can be blamed on the truncation
        assert not any(rep.truncation_artifact)

    @pytest.mark.parametrize("same_hash", [False, True])
    def test_classes_of_repeated_rows(self, monkeypatch, same_hash):
        if same_hash:
            # every row in one hash bucket: only the row comparison splits it
            monkeypatch.setattr(compacta, "hash", lambda _: 0, raising=False)
        m = build_matrix("K", "w", Powers(2), 64, 128)
        rows = [0, 3, 1, 3, 0, 2, 1, 3] * 8 + list(range(len(m.rows)))
        m = ThetaMatrix(m.mode, m.alpha, m.index, m.row_bound, m.col_bound,
                        tuple(m.rows[i] for i in rows), m.cols,
                        m.bits[rows])
        by_bytes = {}
        for i, row in enumerate(m.entries):
            by_bytes.setdefault(row.tobytes(), []).append(i)
        rep = injectivity_report(m)
        assert rep.classes == tuple(map(tuple, sorted(by_bytes.values())))
        assert len(rep.collision_classes) == \
            sum(len(c) > 1 for c in by_bytes.values())

    def test_truncation_artifacts_are_flagged(self):
        rows = [EMPTY, FinSet((12,)), FinSet((13,))]
        cols = enumerate_members(SCHREIER_SQUARE, 10)
        rep = injectivity_report(matrix_from_sets("K", rows, cols))
        assert rep.classes == ((0, 1, 2),)
        assert rep.truncation_artifact == (True,)
        assert rep.col_bound == 10


class TestPowersWitness:
    def test_golden_witnesses(self):
        w = powers_witness(FinSet((2, 8)), FinSet((2, 16)))
        assert w == FinSet((2, 3)) | interval(8, 15)
        assert powers_witness(FinSet((1,)), FinSet((2,))) == FinSet((1,))
        # one set a prefix of the other: the witness tracks the longer one
        assert powers_witness(FinSet((2,)), FinSet((2, 8))) == \
            FinSet((2, 3)) | interval(8, 15)
        # mirrored, s1 a proper prefix of s0: the same witness
        assert powers_witness(FinSet((2, 8)), FinSet((2,))) == \
            powers_witness(FinSet((2,)), FinSet((2, 8)))

    def test_witness_separates(self):
        s0, s1 = FinSet((2, 8)), FinSet((2, 16))
        w = powers_witness(s0, s1)
        assert kernel.parity(s0, w) != kernel.parity(s1, w)

    def test_rejections(self):
        with pytest.raises(ValueError, match="must differ"):
            powers_witness(FinSet((2, 4)), FinSet((2, 4)))
        with pytest.raises(ValueError, match="powers of two"):
            powers_witness(FinSet((2, 3)), FinSet((2, 4)))
        with pytest.raises(ValueError, match="not schreier"):
            powers_witness(FinSet((1, 2)), FinSet((4,)))

    @pytest.mark.parametrize("cold", [True, False])
    def test_every_call_refuses_after_its_sets_were_accepted(self, cold):
        if cold:
            compacta._exponents.cache_clear()
            compacta._dyadic.cache_clear()
        refused = [
            ((FinSet((2, 4)), FinSet((2, 4))), "the two sets must differ"),
            ((FinSet((2, 4)), FinSet((2, 3))),
             "{2,3} is not a set of powers of two"),
            ((FinSet((2, 3)), FinSet((2, 4))),
             "{2,3} is not a set of powers of two"),
            ((FinSet((4,)), FinSet((1, 2))), "{1,2} is not schreier"),
            ((FinSet((1, 2)), FinSet((4,))), "{1,2} is not schreier"),
        ]
        # the sets {2,4} and {4} are accepted first, in other pairs
        assert powers_witness(FinSet((2, 4)), FinSet((2, 8))) == \
            FinSet((2, 3, 4, 5, 6, 7))
        assert powers_witness(FinSet((4,)), FinSet((8,))) == interval(4, 7)
        for _ in range(3):
            for pair, message in refused:
                with pytest.raises(ValueError) as info:
                    powers_witness(*pair)
                assert str(info.value) == message, pair

    def test_memoized_witnesses_equal_a_build_from_scratch(self):
        rows = verify._powers_schreier(6, 4)
        compacta._exponents.cache_clear()
        compacta._dyadic.cache_clear()
        for _ in range(2):      # cold, then from the memos
            for s0, s1 in itertools.combinations(rows, 2):
                want = witness_from_scratch(s0, s1)
                assert powers_witness(s0, s1) == want, (s0, s1)
                assert powers_witness(s1, s0) == want, (s1, s0)
                assert kernel.parity(s0, want) != kernel.parity(s1, want)
        # one memo entry per set and per distinct witness
        assert compacta._exponents.cache_info().currsize == len(rows)
        distinct = {witness_from_scratch(s0, s1)
                    for s0, s1 in itertools.combinations(rows, 2)}
        assert compacta._dyadic.cache_info().currsize == len(distinct)


def witness_from_scratch(s0, s1):
    """The dyadic witness from its definition, with no memo: the intervals
    [2^e, 2^(e+1)-1] for the exponents of the set holding the smaller (or
    only) element at the first divergence, up to and including it."""
    e0 = [m.bit_length() - 1 for m in s0]
    e1 = [m.bit_length() - 1 for m in s1]
    k = next((i for i, (a, b) in enumerate(zip(e0, e1)) if a != b),
             min(len(e0), len(e1)))
    if k == len(e0):
        chosen = e1
    elif k == len(e1):
        chosen = e0
    else:
        chosen = min(e0, e1, key=lambda es: es[k])
    return FinSet(tuple(m for e in chosen[:k + 1]
                        for m in range(1 << e, 1 << (e + 1))))


class TestSearch:
    def test_golden_separators(self):
        assert distinguishing_search(FinSet((2, 3)), FinSet((2, 4))) == FinSet((3,))
        assert distinguishing_search(FinSet((12,)), FinSet((13,))) == FinSet((12,))
        assert distinguishing_search(EMPTY, FinSet((2,))) == FinSet((2,))

    def test_separator_actually_separates(self):
        t0, t1 = FinSet((2, 3)), FinSet((2, 4))
        s = distinguishing_search(t0, t1)
        assert kernel.parity(s, t0) != kernel.parity(s, t1)

    def test_tight_bound_returns_none(self):
        assert distinguishing_search(FinSet((2,)), FinSet((3,)), bound=1) is None

    def test_equal_inputs_are_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            distinguishing_search(FinSet((2,)), FinSet((2,)))

    def test_negative_bound_is_refused_and_zero_finds_nothing(self):
        ts = (FinSet((2,)), FinSet((3,)))
        assert first_separators(ts, 0) == [None]
        for bound in (-1, -4):
            with pytest.raises(ValueError, match=f">= 0, got {bound}"):
                first_separators(ts, bound)
            with pytest.raises(ValueError, match=f">= 0, got {bound}"):
                distinguishing_search(*ts, bound)

    def test_default_bound_heuristic(self):
        assert default_search_bound(FinSet((2, 3)), FinSet((2, 4))) == 4
        assert default_search_bound(EMPTY, FinSet((3,))) == 3

    def test_a_larger_bound_finds_the_same_first_separator(self):
        # the proof of ``default_search_bound``: nothing above it can matter
        ts = enumerate_members(SCHREIER_SQUARE, 6)
        for t0, t1 in itertools.combinations(ts, 2):
            s = distinguishing_search(t0, t1)
            assert s is not None and s.max <= default_search_bound(t0, t1)
            assert distinguishing_search(t0, t1, 13) == s

    def test_a_t_outside_s2_is_refused_at_any_bound(self):
        for bound in (0, 5):
            with pytest.raises(kernel.NotInS2Error):
                distinguishing_search(FinSet((1, 2)), FinSet((3,)), bound)

    def test_batched_search_matches_a_scalar_loop(self):
        # every pair of S2 members in [1..9] against the first separator
        # found by a loop over the scalar kernel, None results included
        ts = enumerate_members(SCHREIER_SQUARE, 9)
        pairs = list(itertools.combinations(range(len(ts)), 2))
        for bound in (3, 6, 20):
            rows = [s for s in schreier_sets_upto(bound) if s]
            values = []  # values[r][j] == kernel.parity(rows[r], ts[j])

            def value(r):
                while len(values) <= r:
                    values.append([kernel.parity(rows[len(values)], t)
                                   for t in ts])
                return values[r]

            got = first_separators(ts, bound)
            assert len(got) == len(pairs)
            nones = 0
            for (i, j), els in zip(pairs, got):
                want = next((s.elems for r, s in enumerate(rows)
                             if value(r)[i] != value(r)[j]), None)
                assert els == want, (ts[i], ts[j], bound)
                nones += want is None
            assert (nones > 0) == (bound < 9), bound


class TestSchreierHelpers:
    def test_membership(self):
        assert member(SCHREIER, EMPTY)
        assert member(SCHREIER, FinSet((2, 3)))
        assert not member(SCHREIER, FinSet((1, 2)))

    def test_enumeration_is_length_then_lex(self):
        got = [str(s) for s in schreier_sets_upto(4)]
        assert got == ["∅", "{1}", "{2}", "{3}", "{4}",
                       "{2,3}", "{2,4}", "{3,4}"]

    def test_counts_match_family_enumeration(self):
        from schreier_kit.family import SCHREIER
        assert len(list(schreier_sets_upto(12))) == \
            len(enumerate_members(SCHREIER, 12)) == 377
