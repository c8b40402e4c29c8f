"""Truncated kernel matrices, row injectivity, witnesses, and separators."""

import hashlib
import os

import numpy as np
import pytest

from schreier_kit import kernel
from schreier_kit.compacta import (
    build_matrix,
    default_search_bound,
    distinguishing_search,
    injectivity_report,
    matrix_from_sets,
    member_schreier,
    powers_witness,
    schreier_sets_upto,
    to_csv,
    to_pbm,
)
from schreier_kit.family import All, Powers, SCHREIER_SQUARE, enumerate_members
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

    @pytest.mark.parametrize("mode, bound, shape, csv_sha, pbm_sha", [
        ("K", 10, (144, 489),
         "b5efea11ff1acddd344ae21113271ae49a778f764e6ac5312ed2e8becf25ed15",
         "b2d65593f8c9b49d5679f935ac843d817e0c1ac8c4f24fb716e3c093f2f57c8c"),
        ("L", 9, (251, 89),
         "1908385d8f903a8820071581df3c9da763f3ee2e2a18c9f06e1fcaf90fdb3e9d",
         "1855519785975780c42e5e590f8d45aa5e493bccf04776a7353bdcc2163c907f"),
    ])
    def test_golden_digests(self, mode, bound, shape, csv_sha, pbm_sha):
        m = build_matrix(mode, "w", All(), bound, bound)
        assert m.shape == shape
        assert hashlib.sha256(to_csv(m).encode()).hexdigest() == csv_sha
        assert hashlib.sha256(to_pbm(m).encode()).hexdigest() == pbm_sha


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
        assert default_search_bound(FinSet((2, 3)), FinSet((2, 4))) == 10
        assert default_search_bound(EMPTY, FinSet((3,))) == 8


class TestSchreierHelpers:
    def test_membership(self):
        assert member_schreier(EMPTY)
        assert member_schreier(FinSet((2, 3)))
        assert not member_schreier(FinSet((1, 2)))

    def test_enumeration_is_length_then_lex(self):
        got = [str(s) for s in schreier_sets_upto(4)]
        assert got == ["∅", "{1}", "{2}", "{3}", "{4}",
                       "{2,3}", "{2,4}", "{3,4}"]

    def test_max_size_cap(self):
        got = list(schreier_sets_upto(6, max_size=1))
        assert got == [EMPTY] + [FinSet((m,)) for m in range(1, 7)]

    def test_counts_match_family_enumeration(self):
        from schreier_kit.family import SCHREIER
        assert len(list(schreier_sets_upto(12))) == \
            len(enumerate_members(SCHREIER, 12)) == 377
