"""Hereditary set families, their ordinal ranks, the block parity kernel,
truncated 0/1 compacta, and exact-rational averaging identities.

The invariant suites, ``verify``, load on first use (PEP 562): the
package's ``__getattr__`` imports the submodule when ``verify``,
``VerifyReport``, ``run_all`` or ``run_suite`` is first read.  Only the
``verify`` command runs a suite, and without bytecode caches compiling
the module would add about 12 ms to every other command's start-up.
"""

from importlib import import_module as _import_module

from .averaging import (BlockAverage, CanonicalBlocks, ChainError, DeltaChain,
                        SeededBlocks, UnionFunctional, block_average,
                        build_chain, cancellation_runs, cancellation_value,
                        evaluate, evaluate_enumerated, self_pairing,
                        union_functional)
from .compacta import (InjectivityReport, ThetaMatrix, build_matrix,
                       distinguishing_search, injectivity_report,
                       matrix_from_sets, powers_witness, to_csv, to_pbm)
from .family import (AP, All, Cube, DegenerateIndexError, Derived, Explicit,
                     FamilySyntaxError, From, NotAMemberError, Powers, Product,
                     Restrict, SCHREIER, SCHREIER_SQUARE, Schreier,
                     base_family, derivative, enumerate_members,
                     extension_admissible, format_family, format_index,
                     is_maximal, iterated_derivative, member,
                     member_by_composition_search, parse_family, parse_index,
                     product_family, rank, rank_is_rule_derived, restricted,
                     tail_threshold)
from .finset import EMPTY, FinSet, TextSyntaxError, interval
from .ordinal import OMEGA, ONE, Ordinal, OrdinalSyntaxError, ZERO
from .kernel import (Decomposition, NotInS2Error, block_sets, decompose,
                     dependency_radius, inner, parity)

# The names of ``verify`` that the package serves through ``__getattr__``.
_FROM_VERIFY = ("VerifyReport", "run_all", "run_suite")

__version__ = "0.1.0"

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["verify", *_FROM_VERIFY])


def __getattr__(name: str):
    if name != "verify" and name not in _FROM_VERIFY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not ``from . import verify``: that statement asks this function for
    # ``verify`` again and recurses.  Importing the submodule binds
    # ``verify`` here, so later reads of it skip this function.
    verify = _import_module(__name__ + ".verify")
    return verify if name == "verify" else getattr(verify, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
