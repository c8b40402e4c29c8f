"""Truncated kernel matrices, row injectivity, witnesses, and separators."""

import hashlib
import itertools
import os
from types import SimpleNamespace

import numpy as np
import pytest

from schreier_kit import compacta, kernel
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

    def test_entries_are_kernel_values_in_both_modes(self):
        mk = build_matrix("K", 2, All(), 6, 6)
        for i, s in enumerate(mk.rows):
            for j, t in enumerate(mk.cols):
                assert mk.entries[i, j] == kernel.parity(s, t)
        ml = build_matrix("L", 2, All(), 6, 6)
        for i, t in enumerate(ml.rows):
            for j, s in enumerate(ml.cols):
                assert ml.entries[i, j] == kernel.parity(s, t)

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
        # both sizes are per block, for a grid of ``width`` columns
        monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", rows * max(width, 1))
        monkeypatch.setattr(compacta, "_PIECE_BYTES", rows * max(2 * width, 1))

    @staticmethod
    def pieces(m, fmt):
        return list(compacta._pieces(m, fmt))

    def test_small_and_degenerate_shapes(self, monkeypatch, rows):
        self.shrink(monkeypatch, rows, 5)
        m = build_matrix("K", 1, All(), 3, 3)
        assert (to_csv(m), to_pbm(m)) == (CSV_3X3, PBM_3X3)
        assert len(self.pieces(m, "csv")) == 1 + -(-4 // rows)
        self.shrink(monkeypatch, rows, 0)
        no_cols = matrix_from_sets("K", [FinSet((2, 3))] * 9, [])
        assert to_csv(no_cols) == ",\n" + "2 3,\n" * 9
        assert to_pbm(no_cols) == "P1\n0 9\n" + "\n" * 9
        assert len(self.pieces(no_cols, "pbm")) == 1 + -(-9 // rows)
        self.shrink(monkeypatch, rows, 1)
        no_rows = matrix_from_sets("K", [], [FinSet((2, 3))])
        assert (to_csv(no_rows), to_pbm(no_rows)) == (",2 3\n", "P1\n1 0\n")

    @pytest.mark.parametrize("mode, bound, shape, csv_sha, pbm_sha",
                             GOLDEN_DIGESTS)
    def test_golden_digests(self, monkeypatch, rows, mode, bound, shape,
                            csv_sha, pbm_sha):
        self.shrink(monkeypatch, rows, shape[1])
        m = build_matrix(mode, "w", All(), bound, bound)
        csv = self.pieces(m, "csv")
        assert len(csv) == 1 + -(-shape[0] // rows)
        assert hashlib.sha256("".join(csv).encode()).hexdigest() == csv_sha
        assert hashlib.sha256(to_pbm(m).encode()).hexdigest() == pbm_sha

    def test_write_sends_the_pieces(self, monkeypatch, rows):
        self.shrink(monkeypatch, rows, 5)
        m = build_matrix("K", 1, All(), 3, 3)
        parts = []
        # a stream with only ``write``, like the bench's stdout stand-in
        compacta.write(m, "pbm", SimpleNamespace(write=parts.append))
        assert parts == self.pieces(m, "pbm")
        assert "".join(parts) == PBM_3X3


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
                        m.entries[rows])
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
