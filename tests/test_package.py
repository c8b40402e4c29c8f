"""The package namespace and what a command loads: ``verify`` and the
names it exports are served on first use, and only the ``verify``
command imports the suites."""

import subprocess
import sys

import pytest

import schreier_kit

PACKAGE_NAMES = [
    "AP", "All", "BlockAverage", "CanonicalBlocks", "ChainError", "Cube",
    "Decomposition", "DegenerateIndexError", "DeltaChain", "Derived", "EMPTY",
    "Explicit", "FamilySyntaxError", "FinSet", "From", "InjectivityReport",
    "NotAMemberError", "NotInS2Error", "OMEGA", "ONE", "Ordinal",
    "OrdinalSyntaxError", "Powers", "Product", "Restrict", "SCHREIER",
    "SCHREIER_SQUARE", "Schreier", "SeededBlocks", "TextSyntaxError",
    "ThetaMatrix", "UnionFunctional", "VerifyReport", "ZERO", "averaging",
    "base_family", "block_average", "block_sets", "build_chain",
    "build_matrix", "cancellation_runs", "cancellation_value", "compacta",
    "decompose", "dependency_radius", "derivative", "distinguishing_search",
    "enumerate_members", "evaluate", "evaluate_enumerated",
    "extension_admissible", "family", "finset", "format_family",
    "format_index", "injectivity_report", "inner", "interval", "is_maximal",
    "iterated_derivative", "kernel", "matrix_from_sets", "member",
    "member_by_composition_search", "ordinal", "parity", "parse_family",
    "parse_index", "powers_witness", "product_family", "rank",
    "rank_is_rule_derived", "restricted", "run_all", "run_suite",
    "self_pairing", "tail_threshold", "to_csv", "to_pbm", "union_functional",
    "verify",
]

# One fresh process runs four non-verify commands in process and reports
# whether the suites were loaded, then runs one verify suite.
STARTUP = """
import contextlib, io, sys
import schreier_kit, schreier_kit.cli
from schreier_kit import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

codes = [run("fam", "member", "schreier", "--s", "{2,3}"),
         run("theta", "eval", "--s", "{2,3}", "--t", "{4,5}"),
         run("tree", "sweep", "--n", "2", "--support-max", "5",
             "--m-max", "6", "--seeds", "2"),
         run("compacta", "matrix", "--mode", "K", "--alpha", "2",
             "--rows", "4", "--cols", "4")]
before = "schreier_kit.verify" in sys.modules
codes.append(run("verify", "--suite", "cli.suite_coverage"))
print(codes, before, "schreier_kit.verify" in sys.modules)
"""


def test_only_verify_loads_the_suites():
    r = subprocess.run([sys.executable, "-c", STARTUP], capture_output=True,
                       text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[0, 0, 0, 0, 0] False True\n"


class TestNamespace:
    def test_all_keeps_every_public_name(self):
        assert sorted(schreier_kit.__all__) == PACKAGE_NAMES
        assert "__all__" in dir(schreier_kit)
        assert set(PACKAGE_NAMES) <= set(dir(schreier_kit))

    def test_star_import_binds_the_verify_names(self):
        ns = {}
        exec("from schreier_kit import *", ns)
        assert ns["verify"] is schreier_kit.verify
        for name in ("run_all", "run_suite", "VerifyReport"):
            assert ns[name] is getattr(schreier_kit.verify, name)

    def test_verify_resolves_through_the_package(self):
        assert "cli.suite_coverage" in schreier_kit.verify.SUITES

    def test_unknown_attribute_is_refused(self):
        assert not hasattr(schreier_kit, "nope")
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            schreier_kit.nope
