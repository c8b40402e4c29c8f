"""Hereditary set families, their ordinal ranks, the block parity kernel,
truncated 0/1 compacta, and exact-rational averaging identities."""

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
from .verify import VerifyReport, run_all, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
