"""The ``schreier-kit`` executable.

Subcommand groups mirror the library modules: ``fam`` for family
expressions, ``theta`` for the parity kernel, ``compacta`` for matrix
exports, ``tree`` for averaging chains, ``verify`` for the invariant
suites.  Results go to standard output as JSON lines (CSV for matrices),
diagnostics to standard error.  Exit status: 0 on success, 1 when a
verification fails, 2 on bad input or usage.

The invariant suites are imported by the ``verify`` handler when it
starts, so no other command compiles or loads them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import compacta
from .averaging import (CanonicalBlocks, SeededBlocks, build_chain,
                        cancellation_error, cancellation_runs,
                        cancellation_value, sweep_generators)
from .family import (Cube, enumerate_members, format_family, format_index,
                     is_maximal, member, parse_family, parse_index, rank,
                     rank_is_rule_derived)
from .finset import FinSet, Scanner, TextSyntaxError
from .kernel import decompose, inner, parity

# Most chains (chain sets times generators) one ``tree sweep`` may build.
# The largest sweep in the tests, demos and bench workloads builds 4,030
# (130 chain sets, 31 generators) in about 0.1 s.
_SWEEP_LIMIT = 100_000
# Most cases one ``tree sweep`` may check, bounded above by chains times
# --m-max; the bench sweep's bound is 4,030 x 12 = 48,360.
_CASE_LIMIT = 1_000_000
# Most elements one ``tree check`` may print: the chain blocks, t0 and t1.
_PRINT_LIMIT = 1_000_000


_json = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _emit(obj) -> None:
    print(_json(obj))


def _elems(s: FinSet) -> list[int]:
    return list(s.elems)


def _json_label(strs: compacta.ElementStrings):
    """The function s -> ``_json(_elems(s))``, which builds no list and
    reads each element's string from the table ``strs``."""
    get = strs.__getitem__
    return lambda s: "[" + ",".join(map(get, s.elems)) + "]"


def _write_array(items) -> None:
    """Write the JSON array of ``items``, each a JSON text, to stdout a
    piece at a time, never holding all of it."""
    sys.stdout.write("[")
    for piece in compacta.comma_pieces(items):
        sys.stdout.write(piece)
    sys.stdout.write("]")


def _parse_alpha(text: str):
    p = Scanner(text, "level must be a positive integer or 'w': ")
    level = "w" if p.take("w") else p.nat(1, "got 0")
    p.end()
    return level


def _integer(text: str) -> int:
    """An integer flag: an optional leading '-', then ASCII digits, under
    the literals' lexical rule; argparse reports a refusal with its
    offset and exits 2."""
    p = Scanner(text)
    try:
        sign = -1 if p.take("-") else 1
        n = sign * p.nat()
        p.end()
    except TextSyntaxError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
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
            compacta.write(m, "pbm", fh)
    if args.format == "json":
        # the ``_emit`` line, with the labels and the grid streamed: "cols"
        # sorts last of the keys before "entries", "rows" last of those after
        head = _json({"alpha": str(m.alpha), "col_bound": m.col_bound,
                      "cols": []})
        sys.stdout.write(head[:-3])
        label = _json_label(compacta.ElementStrings())
        _write_array(map(label, m.cols))
        sys.stdout.write(',"entries":')
        compacta.write(m, "json", sys.stdout)
        tail = _json({"index": format_index(m.index), "mode": m.mode,
                      "row_bound": m.row_bound, "rows": []})
        sys.stdout.write("," + tail[1:-3])
        _write_array(map(label, m.rows))
        sys.stdout.write("}\n")
    else:
        compacta.write(m, "csv", sys.stdout)
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
    # the ``_emit`` line, with the classes streamed: "classes" sorts after
    # "all_distinct" and before the other keys
    sys.stdout.write(_json({"all_distinct": report.all_distinct,
                            "classes": []})[:-3])
    label = _json_label(compacta.ElementStrings())
    _write_array("[" + ",".join([label(m.rows[i]) for i in cls]) + "]"
                 for cls in report.classes)
    tail = _json({"col_bound": report.col_bound,
                  "truncation_artifact": list(report.truncation_artifact)})
    sys.stdout.write("," + tail[1:] + "\n")
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


def _cmd_tree_check(args) -> int:
    gen = CanonicalBlocks() if args.seed is None else SeededBlocks(args.seed)
    chain = build_chain(args.n, FinSet.parse(args.s), gen)
    extended = chain.extend(args.m)
    # blocks and t0 list the chain's spans, t1 the extension's; counted on
    # the spans, before any block is built
    printed = sum(2 * (b - a + 1) for a, b in chain.spans)
    printed += sum(b - a + 1 for a, b in extended.spans)
    if printed > _PRINT_LIMIT:
        raise ValueError(f"tree check would print more than {_PRINT_LIMIT} "
                         "elements; lower --m, --n or the elements of --s")
    value = cancellation_value(chain, args.m)
    _emit({"chain": [_elems(b) for b in chain.blocks],
           "generator": gen.describe(), "m": args.m, "n": args.n,
           "s": _elems(chain.support),
           "t0": _elems(chain.union()), "t1": _elems(extended.union()),
           "value": str(value)})
    return 0


def _cmd_tree_sweep(args) -> int:
    for flag in ("support_max", "m_max", "seeds"):
        value = getattr(args, flag)
        if value < 0:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
    # chain sets are the members of cube(1, n - 1) in [1..support_max]; the
    # empty one is always swept, so a bad level still fails
    sizes = range(min(max(args.n, 1), args.support_max + 1))
    # counted per size before any set is listed, so a huge sweep stops
    # after a few binomials; a refusal prints no count, which may be huge
    chains = 0
    for r in sizes:
        chains += math.comb(args.support_max, r) * (args.seeds + 1)
        if chains > _SWEEP_LIMIT:
            raise ValueError(f"the sweep would build more than {_SWEEP_LIMIT} "
                             "chains; lower --n, --support-max or --seeds")
    if chains * args.m_max > _CASE_LIMIT:
        raise ValueError(f"the sweep would check more than {_CASE_LIMIT} "
                         "cases; lower --m-max, --n, --support-max or --seeds")
    gens = sweep_generators(args.seeds)
    failed = False
    for s in enumerate_members(Cube(1, len(sizes) - 1), args.support_max):
        sign = (-1) ** len(s)
        cases = 0
        bad: list[str] = []
        for gen in gens:
            chain = build_chain(args.n, s, gen)
            for run, value in cancellation_runs(chain, s.max_or_0 + 1,
                                                args.m_max + 1):
                cases += len(run)
                if value != sign:
                    bad.extend(f"m={m} {gen.describe()}: "
                               f"{cancellation_error(s, m, value)}"
                               for m in run)
        _emit({"cases": cases, "failures": bad, "n": args.n,
               "ok": not bad, "s": _elems(s), "sign": sign})
        failed = failed or bool(bad)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    from . import verify as verify_mod  # the one command that runs suites

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


# Built once per process: building takes about 2 ms, and ``verify`` and
# the bench call ``main`` several times in one process.  Parsing leaves
# the parser unchanged, and argparse looks up sys.stdout and sys.stderr
# when it prints, so a redirected stream still gets help and usage text.
@functools.cache
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
    p.add_argument("--max", type=_integer, required=True,
                   help="largest element considered")
    p.add_argument("--format", choices=("json", "csv"), default="json")
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
    p.add_argument("--format", choices=("text", "json"), default="text")
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

    def _matrix_flags(q):
        q.add_argument("--mode", choices=("K", "L"), required=True)
        q.add_argument("--alpha", required=True,
                       help="family level: positive integer or 'w'")
        q.add_argument("--index", default="all",
                       help="index-set expression, default 'all'")
        q.add_argument("--rows", type=_integer, default=8,
                       help="row truncation bound")
        q.add_argument("--cols", type=_integer, default=8,
                       help="column truncation bound")

    p = comp_sub.add_parser("matrix", help="export a kernel matrix")
    _matrix_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
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
    p.add_argument("--bound", type=_integer, default=None,
                   help="largest element tried (default max(max t0, max t1), "
                        "which finds the first separator if one exists)")
    p.set_defaults(handler=_cmd_compacta_search)

    tree = top.add_parser("tree", help="averaging chains")
    tree_sub = tree.add_subparsers(dest="command", required=True)
    p = tree_sub.add_parser("check", help="one cancellation identity")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--seed", type=_integer, default=None,
                   help="seeded block generator instead of canonical")
    p.set_defaults(handler=_cmd_tree_check)
    p = tree_sub.add_parser("sweep", help="cancellation across a grid")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--support-max", type=_integer, default=9,
                   help="chain sets range over subsets of [1..this]")
    p.add_argument("--m-max", type=_integer, default=12,
                   help="extension points tried up to this")
    p.add_argument("--seeds", type=_integer, default=0,
                   help="number of seeded generators besides canonical")
    p.set_defaults(handler=_cmd_tree_sweep)

    ver = top.add_parser("verify", help="run invariant suites")
    ver.add_argument("--suite", default=None, help="run one suite by name")
    ver.add_argument("--max", type=_integer, default=None,
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
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point stdout at
        # devnull, so the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (OSError, ValueError) as exc:  # after BrokenPipeError, an OSError
        # an output file that cannot be written (--pbm), or a library error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
