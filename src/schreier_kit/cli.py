"""The ``schreier-kit`` executable.

Subcommand groups mirror the library modules: ``fam`` for family
expressions, ``theta`` for the parity kernel, ``compacta`` for matrix
exports, ``tree`` for averaging chains, ``verify`` for the invariant
suites.  Results go to standard output as JSON lines (CSV for matrices),
diagnostics to standard error.  Exit status: 0 on success, 1 when a
verification fails, 2 on bad input or usage.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Optional

from . import compacta, verify as verify_mod
from .averaging import (CanonicalBlocks, ChainError, SeededBlocks,
                        build_chain, cancellation_value, union_functional)
from .family import (DegenerateIndexError, FamilySyntaxError,
                     NotAMemberError, enumerate_members, format_family,
                     format_index, is_maximal, member, parse_family,
                     parse_index, rank, rank_is_rule_derived)
from .finset import FinSet
from .ordinal import OrdinalSyntaxError
from .kernel import NotInS2Error, decompose, inner, parity

# Most chains (chain sets times generators) one ``tree sweep`` may build.
# The largest sweep in the tests, demos and bench workloads builds 4,030
# (130 chain sets, 31 generators) in about 0.25 s.
_SWEEP_LIMIT = 100_000
# Most cases one ``tree sweep`` may check, bounded above by chains times
# --m-max; the bench sweep's bound is 4,030 x 12 = 48,360.
_CASE_LIMIT = 1_000_000


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _elems(s: FinSet) -> list[int]:
    return list(s.elems)


def _parse_alpha(text: str):
    if text == "w":
        return "w"
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"level must be a positive integer or 'w', got {text!r}")
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    return n


# ---------------------------------------------------------------------------
# fam
# ---------------------------------------------------------------------------


def _cmd_fam_parse(args) -> int:
    expr = parse_family(args.expr)
    _emit({"canonical": format_family(expr)})
    return 0


def _cmd_fam_enum(args) -> int:
    expr = parse_family(args.expr)
    members = enumerate_members(expr, args.max)
    rows = [(s, is_maximal(expr, s)) for s in members]
    if args.format == "csv":
        print("set,maximal")
        for s, mx in rows:
            print(f"{s.csv_cell()},{'true' if mx else 'false'}")
    else:
        for s, mx in rows:
            _emit({"maximal": mx, "set": _elems(s)})
    return 0


def _cmd_fam_member(args) -> int:
    expr = parse_family(args.expr)
    s = FinSet.parse(args.s)
    _emit({"family": format_family(expr), "member": member(expr, s),
           "set": _elems(s)})
    return 0


def _cmd_fam_maximal(args) -> int:
    expr = parse_family(args.expr)
    s = FinSet.parse(args.s)
    _emit({"family": format_family(expr), "maximal": is_maximal(expr, s),
           "set": _elems(s)})
    return 0


def _cmd_fam_rank(args) -> int:
    expr = parse_family(args.expr)
    value = rank(expr)
    if args.format == "json":
        _emit({"family": format_family(expr), "rank": str(value),
               "rule_derived": rank_is_rule_derived(expr)})
    else:
        print(value)
    return 0


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def _cmd_theta_eval(args) -> int:
    s = FinSet.parse(args.s)
    t = FinSet.parse(args.t)
    blocks = [_elems(b) for b in decompose(t).blocks] if t else []
    _emit({"blocks": blocks, "inner": inner(s, t), "s": _elems(s),
           "t": _elems(t), "theta": parity(s, t)})
    return 0


def _cmd_theta_decompose(args) -> int:
    t = FinSet.parse(args.t)
    d = decompose(t)
    _emit({"blocks": [_elems(b) for b in d.blocks],
           "minima": _elems(d.minima), "t": _elems(t)})
    return 0


# ---------------------------------------------------------------------------
# compacta
# ---------------------------------------------------------------------------


def _build_matrix_from_args(args) -> compacta.ThetaMatrix:
    return compacta.build_matrix(args.mode, _parse_alpha(args.alpha),
                                 parse_index(args.index),
                                 args.rows, args.cols)


def _cmd_compacta_matrix(args) -> int:
    m = _build_matrix_from_args(args)
    if args.pbm:
        with open(args.pbm, "w") as fh:
            fh.write(compacta.to_pbm(m))
    if args.format == "json":
        _emit({"alpha": args.alpha, "col_bound": m.col_bound,
               "cols": [_elems(c) for c in m.cols],
               "entries": [[int(x) for x in row] for row in m.entries],
               "index": format_index(m.index), "mode": m.mode,
               "row_bound": m.row_bound,
               "rows": [_elems(r) for r in m.rows]})
    else:
        sys.stdout.write(compacta.to_csv(m))
    return 0


def _cmd_compacta_witness(args) -> int:
    s0 = FinSet.parse(args.s0)
    s1 = FinSet.parse(args.s1)
    t = compacta.powers_witness(s0, s1)
    _emit({"s0": _elems(s0), "s1": _elems(s1), "theta0": parity(s0, t),
           "theta1": parity(s1, t), "witness": _elems(t)})
    return 0


def _cmd_compacta_inject(args) -> int:
    m = _build_matrix_from_args(args)
    report = compacta.injectivity_report(m)
    _emit({"all_distinct": report.all_distinct,
           "classes": [[_elems(m.rows[i]) for i in cls]
                       for cls in report.classes],
           "col_bound": report.col_bound,
           "truncation_artifact": list(report.truncation_artifact)})
    return 0


def _cmd_compacta_search(args) -> int:
    t0 = FinSet.parse(args.t0)
    t1 = FinSet.parse(args.t1)
    bound = args.bound
    if bound is None:
        bound = compacta.default_search_bound(t0, t1)
    s = compacta.distinguishing_search(t0, t1, bound)
    _emit({"bound": bound, "separator": None if s is None else _elems(s),
           "t0": _elems(t0), "t1": _elems(t1)})
    return 0


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------


def _generator_from(seed: Optional[int]):
    return CanonicalBlocks() if seed is None else SeededBlocks(seed)


def _cmd_tree_check(args) -> int:
    gen = _generator_from(args.seed)
    chain = build_chain(args.n, FinSet.parse(args.s), gen)
    extended = chain.extend(args.m)
    value = cancellation_value(chain, args.m)
    _emit({"chain": [_elems(b) for b in chain.blocks],
           "generator": gen.describe(), "m": args.m, "n": args.n,
           "s": _elems(chain.support),
           "t0": _elems(union_functional(chain).support),
           "t1": _elems(union_functional(extended).support),
           "value": str(value)})
    return 0


def _cmd_tree_sweep(args) -> int:
    for flag in ("support_max", "m_max", "seeds"):
        value = getattr(args, flag)
        if value < 0:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
    # chain sets are the subsets of [1..support_max] with fewer than n
    # elements; the empty one is always swept, so a bad level still fails
    sizes = range(min(max(args.n, 1), args.support_max + 1))
    chains = sum(math.comb(args.support_max, r) for r in sizes) * (args.seeds + 1)
    if chains > _SWEEP_LIMIT:
        raise ValueError(f"the sweep would build {chains} chains, more than "
                         f"the limit {_SWEEP_LIMIT}; lower --n, --support-max "
                         "or --seeds")
    if chains * args.m_max > _CASE_LIMIT:
        raise ValueError(f"the sweep would check up to {chains * args.m_max} "
                         f"cases, more than the limit {_CASE_LIMIT}; lower "
                         "--m-max, --n, --support-max or --seeds")
    gens = [CanonicalBlocks()]
    gens += [SeededBlocks(seed) for seed in range(1, args.seeds + 1)]
    failed = False
    for els in itertools.chain.from_iterable(
            itertools.combinations(range(1, args.support_max + 1), r)
            for r in sizes):
        s = FinSet(els)
        cases = 0
        bad: list[str] = []
        for gen in gens:
            chain = build_chain(args.n, s, gen)
            for m in range(s.max_or_0 + 1, args.m_max + 1):
                cases += 1
                try:
                    cancellation_value(chain, m)
                except AssertionError as exc:
                    bad.append(f"m={m} {gen.describe()}: {exc}")
        sign = (-1) ** len(s)
        _emit({"cases": cases, "failures": bad, "n": args.n,
               "ok": not bad, "s": _elems(s), "sign": sign})
        failed = failed or bool(bad)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.suite is not None and args.suite not in verify_mod.SUITES:
        known = ", ".join(verify_mod.SUITES)
        print(f"error: unknown suite {args.suite!r}; one of: {known}",
              file=sys.stderr)
        return 2
    if args.suite is not None:
        reports = [verify_mod.run_suite(args.suite, args.max)]
    else:
        reports = verify_mod.run_all(args.max)
    for rep in reports:
        print(rep.to_json())
        rate = rep.cases / rep.wall_time if rep.wall_time > 0 else 0.0
        print(f"{rep.suite}: {rep.cases} cases, {len(rep.failures)} failures, "
              f"{rep.wall_time:.2f}s, {rate:.0f} cases/s", file=sys.stderr)
    return 0 if all(rep.ok for rep in reports) else 1


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser, choices, default) -> None:
    p.add_argument("--format", choices=choices, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schreier-kit",
        description="Hereditary set families, parity kernels, and exact "
                    "averaging identities.")
    top = parser.add_subparsers(dest="group", required=True)

    fam = top.add_parser("fam", help="family expressions")
    fam_sub = fam.add_subparsers(dest="command", required=True)
    p = fam_sub.add_parser("parse", help="canonicalize an expression")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_fam_parse)
    p = fam_sub.add_parser("enum", help="members within a truncation")
    p.add_argument("expr")
    p.add_argument("--max", type=int, required=True,
                   help="largest element considered")
    _add_format(p, ("json", "csv"), "json")
    p.set_defaults(handler=_cmd_fam_enum)
    p = fam_sub.add_parser("member", help="membership of one set")
    p.add_argument("expr")
    p.add_argument("--s", required=True, help='set literal, e.g. "{2,5,8}"')
    p.set_defaults(handler=_cmd_fam_member)
    p = fam_sub.add_parser("maximal", help="maximality of a member")
    p.add_argument("expr")
    p.add_argument("--s", required=True)
    p.set_defaults(handler=_cmd_fam_maximal)
    p = fam_sub.add_parser("rank", help="symbolic rank")
    p.add_argument("expr")
    _add_format(p, ("text", "json"), "text")
    p.set_defaults(handler=_cmd_fam_rank)

    theta = top.add_parser("theta", help="parity kernel")
    theta_sub = theta.add_subparsers(dest="command", required=True)
    p = theta_sub.add_parser("eval", help="kernel value on a pair")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.set_defaults(handler=_cmd_theta_eval)
    p = theta_sub.add_parser("decompose", help="canonical block splitting")
    p.add_argument("--t", required=True)
    p.set_defaults(handler=_cmd_theta_decompose)

    comp = top.add_parser("compacta", help="truncated 0/1 matrices")
    comp_sub = comp.add_subparsers(dest="command", required=True)

    def _matrix_flags(q, rows_default=8, cols_default=8):
        q.add_argument("--mode", choices=("K", "L"), required=True)
        q.add_argument("--alpha", required=True,
                       help="family level: positive integer or 'w'")
        q.add_argument("--index", default="all",
                       help="index-set expression, default 'all'")
        q.add_argument("--rows", type=int, default=rows_default,
                       help="row truncation bound")
        q.add_argument("--cols", type=int, default=cols_default,
                       help="column truncation bound")

    p = comp_sub.add_parser("matrix", help="export a kernel matrix")
    _matrix_flags(p)
    _add_format(p, ("csv", "json"), "csv")
    p.add_argument("--pbm", metavar="FILE",
                   help="also write a P1 bitmap to FILE")
    p.set_defaults(handler=_cmd_compacta_matrix)
    p = comp_sub.add_parser("witness", help="powers-of-two separator")
    p.add_argument("--s0", required=True)
    p.add_argument("--s1", required=True)
    p.set_defaults(handler=_cmd_compacta_witness)
    p = comp_sub.add_parser("inject", help="equal-row report")
    _matrix_flags(p)
    p.set_defaults(handler=_cmd_compacta_inject)
    p = comp_sub.add_parser("search", help="first-coordinate separator")
    p.add_argument("--t0", required=True)
    p.add_argument("--t1", required=True)
    p.add_argument("--bound", type=int, default=None,
                   help="largest element tried (default 2*max+2)")
    p.set_defaults(handler=_cmd_compacta_search)

    tree = top.add_parser("tree", help="averaging chains")
    tree_sub = tree.add_subparsers(dest="command", required=True)
    p = tree_sub.add_parser("check", help="one cancellation identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="seeded block generator instead of canonical")
    p.set_defaults(handler=_cmd_tree_check)
    p = tree_sub.add_parser("sweep", help="cancellation across a grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--support-max", type=int, default=9,
                   help="chain sets range over subsets of [1..this]")
    p.add_argument("--m-max", type=int, default=12,
                   help="extension points tried up to this")
    p.add_argument("--seeds", type=int, default=0,
                   help="number of seeded generators besides canonical")
    p.set_defaults(handler=_cmd_tree_sweep)

    ver = top.add_parser("verify", help="run invariant suites")
    ver.add_argument("--suite", default=None, help="run one suite by name")
    ver.add_argument("--max", type=int, default=None,
                     help="cap all truncation bounds")
    ver.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (FamilySyntaxError, OrdinalSyntaxError, NotInS2Error,
            NotAMemberError, DegenerateIndexError, ChainError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
