"""Named verification suites, one per library invariant.

Every suite replays one documented invariant, exhaustively at a truncation
that a laptop handles in seconds.  ``run_suite`` returns a report whose
serialized form is byte-stable across runs; wall time is carried on the
report object but never serialized.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Optional

import numpy as np

from . import averaging, compacta, family, ordinal
from .family import (SCHREIER, SCHREIER_SQUARE, All, Cube, Powers, Restrict,
                     enumerate_members, member, member_by_composition_search,
                     product_family, tail_threshold)
from .finset import EMPTY, FinSet, interval
from .ordinal import Ordinal
from .kernel import NotInS2Error, decompose, inner, parity, parity_matrix

_MAX_RECORDED_FAILURES = 20
# Padded columns per parity grid in ``kernel.local_constancy``, which bounds
# its comparison temporaries; a multiple of its 97-pad spot-check stride.
_PAD_COLUMNS = 97 * 40


@dataclass
class VerifyReport:
    suite: str
    cases: int
    failures: list[dict]
    wall_time: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        """Stable serialization: wall time deliberately left out."""
        return json.dumps({"suite": self.suite, "cases": self.cases,
                           "failures": self.failures},
                          sort_keys=True, separators=(",", ":"))


class _Collector:
    """Counts cases and records failures; ``label`` is a zero-argument
    callable, so a case's text is built only when it is recorded."""

    def __init__(self):
        self.cases = 0
        self.failures: list[dict] = []

    def check(self, ok: bool, label: Callable[[], str], expected, actual):
        self.cases += 1
        if not ok:
            self.fail(label, expected, actual)

    def fail(self, label: Callable[[], str], expected, actual):
        """Record a failure of a case already counted."""
        if len(self.failures) < _MAX_RECORDED_FAILURES:
            self.failures.append({"case": label(), "expected": str(expected),
                                  "actual": str(actual)})


def _eff(default: int, cap: Optional[int]) -> int:
    return default if cap is None else max(1, min(default, cap))


@cache
def _members(expr, bound: int) -> tuple[FinSet, ...]:
    return tuple(enumerate_members(expr, bound))


# ---------------------------------------------------------------------------
# ordinal
# ---------------------------------------------------------------------------


def _ordinal_corpus(cap: Optional[int] = None) -> list[Ordinal]:
    """Every normal form with exponents from {0,1,2}, coefficients 1..3,
    and at most three terms; the first ``max(4, 4 * cap)`` under a cap."""
    exps = [Ordinal.zero(), Ordinal.nat(1), Ordinal.nat(2)]
    out = [Ordinal.zero()]
    for r in (1, 2, 3):
        for es in itertools.combinations(sorted(exps, reverse=True), r):
            for cs in itertools.product((1, 2, 3), repeat=r):
                out.append(Ordinal(tuple(zip(es, cs))))
    return out if cap is None else out[:max(4, cap * 4)]


def _suite_ordinal_associativity(cap):
    col = _Collector()
    corpus = _ordinal_corpus(cap)
    # b + c and b * c do not depend on a: one row of them per b
    rows = [[(c, b + c, b * c) for c in corpus] for b in corpus]
    for a in corpus:
        for b, row in zip(corpus, rows):
            ab_add = a + b
            ab_mul = a * b
            for c, bc_add, bc_mul in row:
                lhs, rhs = ab_add + c, a + bc_add
                col.check(lhs == rhs, lambda: f"add {a}|{b}|{c}", rhs, lhs)
                lhs, rhs = ab_mul * c, a * bc_mul
                col.check(lhs == rhs, lambda: f"mul {a}|{b}|{c}", rhs, lhs)
    return col


def _suite_ordinal_distributivity(cap):
    col = _Collector()
    corpus = _ordinal_corpus(cap)
    # b + c does not depend on a, and a * c not on b
    rows = [[b + c for c in corpus] for b in corpus]
    for a in corpus:
        products = [a * c for c in corpus]
        for b, ab, row in zip(corpus, products, rows):
            for c, ac, bc in zip(corpus, products, row):
                lhs = a * bc
                rhs = ab + ac
                col.check(lhs == rhs, lambda: f"{a}|{b}|{c}", rhs, lhs)
    return col


def _suite_ordinal_order(cap):
    col = _Collector()
    corpus = _ordinal_corpus(cap)
    for a in corpus:
        for b in corpus:
            lt, gt, eq = a < b, b < a, a == b
            col.check(lt + gt + eq == 1, lambda: f"trichotomy {a}|{b}",
                      "exactly one of <,>,=", f"{lt},{gt},{eq}")
    # transitivity on a thinner slice to stay quadratic-ish
    small = corpus[::3]
    for a in small:
        for b in small:
            if not a < b:
                continue
            for c in small:
                if b < c:
                    col.check(a < c, lambda: f"transitivity {a}|{b}|{c}",
                              True, False)
    for a in corpus:
        for b in corpus:
            for c in corpus:
                if b < c:
                    ok = a + b < a + c
                    col.check(ok, lambda: f"monotone {a}|{b}|{c}", True, ok)
    return col


def _random_ordinal(rng: random.Random, depth: int = 2) -> Ordinal:
    if depth == 0:
        return Ordinal.nat(rng.randrange(0, 5))
    n_terms = rng.randrange(0, 4)
    exps: set = set()
    while len(exps) < n_terms:
        exps.add(_random_ordinal(rng, depth - 1))
    terms = tuple((e, rng.randrange(1, 6))
                  for e in sorted(exps, reverse=True))
    return Ordinal(terms)


def _suite_ordinal_roundtrip(cap):
    col = _Collector()
    rng = random.Random(4020)
    n = _eff(1000, None if cap is None else cap * 80)
    for _ in range(n):
        x = _random_ordinal(rng)
        text = str(x)
        back = Ordinal.parse(text)
        col.check(back == x, lambda: text, x, back)
    return col


# ---------------------------------------------------------------------------
# finset
# ---------------------------------------------------------------------------


def _suite_precedes_transitive(cap):
    bound = _eff(8, cap)
    col = _Collector()
    subs = [FinSet(e) for e in family._powerset(range(1, bound + 1))]
    nonempty = [s for s in subs if s]
    mx = np.array([s.max for s in nonempty])
    mn = np.array([s.min for s in nonempty])
    P = mx[:, None] < mn[None, :]          # precedes on nonempty sets
    reach2 = (P.astype(np.uint8) @ P.astype(np.uint8)) > 0
    bad = reach2 & ~P
    col.cases += len(nonempty) ** 3
    for i, j in zip(*np.nonzero(bad)):
        col.fail(lambda: f"{nonempty[i]} .. {nonempty[j]}",
                 "two-step precedes implies precedes", "violated")
    for s in subs:
        col.check(EMPTY.precedes(s), lambda: f"empty precedes {s}",
                  True, False)
        if s:
            col.check(not s.precedes(EMPTY), lambda: f"{s} precedes empty",
                      False, True)
    return col


def _suite_interval_structure(cap):
    bound = _eff(12, cap)
    col = _Collector()
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            iv = interval(a, b)
            ok = len(iv) == b - a + 1 and iv.min == a and iv.max == b
            col.check(ok, lambda: f"[{a},{b}]", "size/min/max consistent", iv)
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            for c in range(1, bound + 1):
                for d in range(c, bound + 1):
                    got = interval(a, b).precedes(interval(c, d))
                    col.check(got == (b < c),
                              lambda: f"[{a},{b}] vs [{c},{d}]", b < c, got)
    return col


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------


def _family_corpus() -> list:
    out = [SCHREIER, SCHREIER_SQUARE,
           Restrict(SCHREIER, Powers(2)), Restrict(SCHREIER_SQUARE, Powers(2))]
    for n in range(1, 5):
        out.append(Cube(n, n))
        out.append(product_family(n))
    return out


def _suite_family_hereditary(cap):
    bound = _eff(10, cap)
    col = _Collector()
    for expr in _family_corpus():
        for s in _members(expr, bound):
            for r in range(len(s) + 1):
                for sub in itertools.combinations(s.elems, r):
                    col.check(family._member(expr, sub),
                              lambda: f"{family.format_family(expr)}: "
                              f"{FinSet(sub)} under {s}", True, False)
    return col


def _suite_family_tail_uniformity(cap):
    bound = _eff(10, cap)
    horizon = _eff(40, None if cap is None else cap * 4)
    col = _Collector()
    for expr in _family_corpus():
        idx = family.effective_index(expr)
        for elems in family._powerset(range(1, bound + 1)):
            s = FinSet(elems)
            lo = max(s.max_or_0, tail_threshold(expr, s))
            probes = family.index_elements_between(idx, lo, horizon)
            vals = {family._member(expr, elems + (m,)) for m in probes}
            col.check(len(vals) <= 1,
                      lambda: f"{family.format_family(expr)}: {s}",
                      "constant tail membership", sorted(vals))
    return col


def _suite_family_enumeration(cap):
    bound = _eff(12, cap)
    col = _Collector()
    for expr in _family_corpus():
        fast = list(_members(expr, bound))
        naive = family.enumerate_members_naive(expr, bound)
        col.check(fast == naive, lambda: family.format_family(expr),
                  f"{len(naive)} members", f"{len(fast)} members")
        sizes = [len(_members(expr, m)) for m in range(1, bound + 1)]
        col.check(all(x <= y for x, y in zip(sizes, sizes[1:])),
                  lambda: f"{family.format_family(expr)} monotone counts",
                  "nondecreasing", sizes)
    return col


def _suite_family_rank_consistency(cap):
    bound = _eff(12, cap)
    col = _Collector()
    for n in range(1, 5):
        expr = Cube(n, n)
        at_n = enumerate_members(family.iterated_derivative(expr, n), bound)
        col.check(at_n == [EMPTY],
                  lambda: f"cube({n},{n}) after {n} derivatives",
                  "only the empty set", [str(s) for s in at_n])
        at_n1 = enumerate_members(family.iterated_derivative(expr, n + 1), bound)
        col.check(at_n1 == [],
                  lambda: f"cube({n},{n}) after {n + 1} derivatives",
                  "empty", [str(s) for s in at_n1])
    small = _eff(10, cap)
    for a, k in ((1, 3), (2, 2), (3, 4)):
        lhs = enumerate_members(family.derivative(Cube(a, k)), small)
        rhs = enumerate_members(Cube(a, k - 1), small)
        col.check(lhs == rhs, lambda: f"derivative of cube({a},{k})",
                  f"cube({a},{k - 1})", f"{len(lhs)} members")
    golds = [(SCHREIER, "w+1"), (SCHREIER_SQUARE, "w^2+1")]
    golds += [(Cube(n, n), str(n + 1)) for n in range(1, 7)]
    golds += [(product_family(1), "w+1")]
    golds += [(product_family(n), f"w*{n}+1") for n in range(2, 7)]
    golds += [(Restrict(SCHREIER_SQUARE, Powers(2)), "w^2+1")]
    for expr, want in golds:
        got = str(family.rank(expr))
        col.check(got == want, lambda: family.format_family(expr), want, got)
    return col


def _suite_family_level_union(cap):
    bound = _eff(12, cap)
    col = _Collector()
    s_all = set(_members(SCHREIER, bound))
    s2_all = set(_members(SCHREIER_SQUARE, bound))
    base_union: set = set()
    prod_union: set = set()
    for n in range(1, bound + 1):
        base_n = set(_members(Cube(n, n), bound))
        prod_n = set(_members(product_family(n), bound))
        col.check(base_n <= s_all, lambda: f"cube({n},{n}) inside schreier",
                  "subset", sorted(str(s) for s in base_n - s_all)[:3])
        col.check(prod_n <= s2_all, lambda: f"level-{n} product inside S2",
                  "subset", sorted(str(s) for s in prod_n - s2_all)[:3])
        base_union |= base_n
        prod_union |= prod_n
    col.check(base_union == s_all, lambda: "union of cube levels",
              f"{len(s_all)} sets", f"{len(base_union)} sets")
    col.check(prod_union == s2_all, lambda: "union of product levels",
              f"{len(s2_all)} sets", f"{len(prod_union)} sets")
    return col


# ---------------------------------------------------------------------------
# parity kernel
# ---------------------------------------------------------------------------


def _valid_composition(blocks: list[tuple[int, ...]]) -> bool:
    for i, b in enumerate(blocks):
        final = i == len(blocks) - 1
        if final:
            if len(b) > b[0]:
                return False
        elif len(b) != b[0]:
            return False
    mins = [b[0] for b in blocks]
    return len(mins) <= mins[0]


def _suite_parity_decomposition_unique(cap):
    bound = _eff(12, cap)
    col = _Collector()
    for elems in family._powerset(range(1, bound + 1)):
        if not elems:
            continue
        valid = []
        n = len(elems)
        for cuts in itertools.product((0, 1), repeat=n - 1):
            blocks, start = [], 0
            for i, c in enumerate(cuts, start=1):
                if c:
                    blocks.append(elems[start:i])
                    start = i
            blocks.append(elems[start:])
            if _valid_composition(blocks):
                valid.append(tuple(blocks))
        is_member = member(SCHREIER_SQUARE, FinSet(elems))
        col.check(len(valid) == (1 if is_member else 0),
                  lambda: f"{FinSet(elems)}", "one composition iff member",
                  f"member={is_member}, {len(valid)} compositions")
        if is_member and valid:
            got = tuple(b.elems for b in decompose(FinSet(elems)).blocks)
            col.check(got == valid[0], lambda: f"greedy at {FinSet(elems)}",
                      valid[0], got)
    return col


def _pads_for(t: FinSet, hi: int):
    """Singleton and dyadic-interval pads whose elements all exceed max t."""
    lo = t.max_or_0
    for a in range(lo + 1, hi + 1):
        yield FinSet((a,))
    a = lo + 1
    while 2 * a - 1 <= hi:
        yield interval(a, 2 * a - 1)
        a += 1


def _suite_parity_local_constancy(cap):
    bound = _eff(12, cap)
    horizon = _eff(40, None if cap is None else cap * 4)
    col = _Collector()
    ss = list(compacta.schreier_sets_upto(bound))
    ts = list(_members(SCHREIER_SQUARE, bound))
    grid = parity_matrix(ss, ts)

    # the kernel reads each coordinate only inside [1..max] of the other: s
    # cut at max t is a schreier prefix, a row of the grid; t cut at max s is
    # in S2, a column.  g[i, j] is at (xs[i], ys[j]); cut[i, j] indexes ys[j]
    # cut at max xs[i].
    for x, xs, y, ys, g in (("t", ts, "s", ss, grid.T),
                            ("s", ss, "t", ts, grid)):
        where = {v.elems: k for k, v in enumerate(ys)}
        cuts = [[where[v.elems[:bisect.bisect_right(v.elems, m)]] for v in ys]
                for m in range(bound + 1)]
        cut = np.array(cuts, dtype=np.intp)[[u.max_or_0 for u in xs]]
        want = g[np.arange(len(xs))[:, None], cut]
        col.cases += want.size
        for i, j in zip(*np.nonzero(want != g)):
            col.fail(lambda: f"{x}={xs[i]}, {y}={ys[j]} vs {y}'={ys[cut[i, j]]}",
                     want[i, j], g[i, j])

    # padding the second coordinate beyond max s never moves the kernel:
    # every padded t2 is a column of a second grid, which must equal t's
    # column of the first on the rows of the s below the pad
    order = sorted(range(len(ss)), key=lambda i: ss[i].max_or_0)
    ss_by_max = [ss[i] for i in order]
    maxes = [s.max_or_0 for s in ss_by_max]
    base = grid[order]
    src, pads, t2s = [], [], []
    for j, t in enumerate(ts):
        for pad in _pads_for(t, horizon):
            t2 = t | pad
            if member(SCHREIER_SQUARE, t2):
                src.append(j)
                pads.append(pad)
                t2s.append(t2)
    cuts = np.array([bisect.bisect_left(maxes, pad.min) for pad in pads],
                    dtype=np.intp)
    col.cases += int(cuts.sum())
    rows = np.arange(len(ss))[:, None]
    for k0 in range(0, len(t2s), _PAD_COLUMNS):
        ks = slice(k0, k0 + _PAD_COLUMNS)
        padded = parity_matrix(ss_by_max, t2s[ks])
        unpadded = base[:, src[ks]]
        bad = (padded != unpadded) & (rows < cuts[ks])
        for k, i in zip(*np.nonzero(bad.T)):
            col.fail(lambda: f"s={ss_by_max[i]}, t={ts[src[k0 + k]]}, "
                     f"pad={pads[k0 + k]}", unpadded[i, k], padded[i, k])
        # every 97th pad, one entry against the scalar kernel (the empty s
        # is below every pad, so no cut is 0)
        for k in range(96, padded.shape[1], 97):
            i = (k0 + k + 1) % cuts[k0 + k]
            want = parity(ss_by_max[i], t2s[k0 + k])
            col.check(padded[i, k] == want, lambda: "vector spot-check "
                      f"s={ss_by_max[i]}, t2={t2s[k0 + k]}", want,
                      int(padded[i, k]))
    return col


def _suite_parity_sign_formula(cap):
    bound = _eff(12, cap)
    col = _Collector()
    ss = list(compacta.schreier_sets_upto(bound))
    ts = list(_members(SCHREIER_SQUARE, bound))
    for t in ts:
        if not t:
            continue
        d = decompose(t)
        for s in ss:
            c = inner(s, d)
            col.check((c + 1) % 2 == ((-1) ** c + 1) // 2,
                      lambda: f"s={s}, t={t}", "congruent forms", c)
    return col


def _suite_parity_decompose_member(cap):
    bound = _eff(12, cap)
    col = _Collector()
    for elems in family._powerset(range(1, bound + 1)):
        if not elems:
            continue
        t = FinSet(elems)
        greedy = member(SCHREIER_SQUARE, t)
        exhaustive = member_by_composition_search(SCHREIER_SQUARE, t)
        col.check(greedy == exhaustive, lambda: f"{t} membership routes",
                  exhaustive, greedy)
        try:
            d = decompose(t)
            ok = greedy and d.support == t
            col.check(ok, lambda: f"{t} decompose",
                      "member and support preserved",
                      f"member={greedy}, support={d.support}")
        except NotInS2Error:
            col.check(not greedy, lambda: f"{t} decompose refused",
                      "non-member", f"member={greedy}")
    return col


# ---------------------------------------------------------------------------
# compacta
# ---------------------------------------------------------------------------


def _powers_schreier(top_exp: int, max_size: int) -> list[FinSet]:
    powers = [1 << e for e in range(top_exp + 1)]
    out = [EMPTY]
    for r in range(1, max_size + 1):
        for els in itertools.combinations(powers, r):
            s = FinSet(els)
            if len(s) <= s.min:
                out.append(s)
    return out


def _suite_compacta_witness_separates(cap):
    top = _eff(10, cap)
    col = _Collector()
    rows = _powers_schreier(top, 4)
    for s0, s1 in itertools.combinations(rows, 2):
        try:
            t = compacta.powers_witness(s0, s1)
        except (ValueError, AssertionError) as e:
            col.check(False, lambda: f"{s0} vs {s1}", "witness", repr(e))
            continue
        ok = member(SCHREIER_SQUARE, t)
        d = decompose(t)
        sep = parity(s0, d) != parity(s1, d)
        col.check(ok and sep, lambda: f"{s0} vs {s1}",
                  "witness in S2 and separating", f"in_S2={ok}, separates={sep}")
    return col


def _suite_compacta_witness_matrix(cap):
    top = _eff(6, cap)
    col = _Collector()
    rows = _powers_schreier(top, 4)
    cols_set = []
    seen = set()
    for s0, s1 in itertools.combinations(rows, 2):
        t = compacta.powers_witness(s0, s1)
        if t not in seen:
            seen.add(t)
            cols_set.append(t)
    m = compacta.matrix_from_sets("K", rows, cols_set)
    rep = compacta.injectivity_report(m)
    col.check(rep.all_distinct,
              lambda: f"{len(rows)} rows x {len(cols_set)} witnesses",
              "pairwise distinct rows",
              f"{len(rep.collision_classes)} collision classes")
    col.cases = len(rows) * (len(rows) - 1) // 2
    return col


def _suite_compacta_matrix_determinism(cap):
    col = _Collector()
    outputs = []
    for _ in range(2):
        m1 = compacta.build_matrix("K", 2, All(), _eff(8, cap), _eff(8, cap))
        m2 = compacta.build_matrix("L", "w", Powers(2),
                                   _eff(16, cap), _eff(16, cap))
        outputs.append((compacta.to_csv(m1), compacta.to_pbm(m1),
                        compacta.to_csv(m2), compacta.to_pbm(m2)))
    col.check(outputs[0] == outputs[1], lambda: "run 1 vs run 2",
              "identical bytes", "diverged")
    col.cases = sum(len(x) for x in outputs[0])
    return col


def _suite_compacta_search_bound(cap):
    t_bound = _eff(10, cap)
    s_bound = min(22, 2 * t_bound + 2)
    col = _Collector()
    ts = _members(SCHREIER_SQUARE, t_bound)
    # every pair at once, in itertools.combinations order
    found = compacta.first_separators(ts, s_bound)
    col.cases += len(found)
    for (t0, t1), s in zip(itertools.combinations(ts, 2), found):
        # the first separator lies within the proved bound
        bound = compacta.default_search_bound(t0, t1)
        if s is None or s[-1] > bound:
            col.fail(lambda: f"{t0} vs {t1}", f"separator within {bound}",
                     "none found" if s is None else FinSet(s))
    return col


# ---------------------------------------------------------------------------
# averaging trees
# ---------------------------------------------------------------------------


def _chain_supports(bound: int, max_size: int) -> list[FinSet]:
    out = []
    for r in range(1, max_size + 1):
        out.extend(FinSet(e) for e in itertools.combinations(
            range(1, bound + 1), r))
    return out


def _suite_averaging_level_parity(cap):
    bound = _eff(7, cap)
    seeds = _eff(100, cap)
    col = _Collector()
    gens = [averaging.CanonicalBlocks()]
    gens += [averaging.SeededBlocks(seed) for seed in range(1, seeds + 1)]
    supports = _chain_supports(bound, 4)
    for gen in gens:
        for s in supports:
            chain = averaging.build_chain(4, s, gen)
            for j in range(chain.depth + 1):
                # a prefix of a valid chain is valid: pair its spans alone
                spans = chain.spans[:j]
                got = averaging._span_pairing(spans, spans)
                want = Fraction(1 if j % 2 == 0 else 0)
                col.check(got == want,
                          lambda: f"{gen.describe()} s={s} level {j}",
                          want, got)
    return col


def _suite_averaging_cancellation(cap):
    bound = _eff(9, cap)
    m_hi = _eff(12, cap)
    seeds = _eff(100, cap)
    col = _Collector()
    gens = [averaging.CanonicalBlocks()]
    gens += [averaging.SeededBlocks(seed) for seed in range(1, seeds + 1)]
    empty_chain = averaging.build_chain(1, EMPTY)
    base = averaging.evaluate(averaging.union_functional(empty_chain),
                              averaging.block_average(empty_chain))
    col.check(base == 1, lambda: "empty functional on empty average", 1, base)
    for n in range(1, 5):
        supports = [EMPTY] + _chain_supports(bound, n - 1)
        for s in supports:
            for gen in gens:
                chain = averaging.build_chain(n, s, gen)
                for m in range(s.max_or_0 + 1, m_hi + 1):
                    label = lambda: f"n={n} s={s} m={m} {gen.describe()}"
                    try:
                        got = averaging.cancellation_value(chain, m)
                    except AssertionError as e:
                        col.check(False, label, f"(-1)^{len(s)}", repr(e))
                        continue
                    want = Fraction(-1) ** len(s)
                    col.check(got == want, label, want, got)
    return col


def _suite_averaging_parity_table(cap):
    bound = _eff(6, cap)
    col = _Collector()
    gens = [averaging.CanonicalBlocks(),
            averaging.SeededBlocks(7), averaging.SeededBlocks(99)]
    for n in range(1, 4):
        supports = [EMPTY] + _chain_supports(bound, n - 1)
        for s in supports:
            for gen in gens:
                chain = averaging.build_chain(n, s, gen)
                m = s.max_or_0 + 1
                ext = chain.extend(m)
                if (averaging.block_average(ext).index_count > 10_000):
                    continue
                k = chain.depth
                # the union functionals are the kernel at the unions: one
                # grid per average, its picks against those second coordinates
                t1 = ext.union()
                t0 = chain.union()
                want_v = 1 if k % 2 == 0 else 0
                picks = list(averaging.block_average(chain).picks())
                got = parity_matrix(picks, [t0, t1])
                col.cases += len(picks)
                for r in np.flatnonzero((got != want_v).any(axis=1)):
                    col.fail(lambda: f"n={n} s={s} v={FinSet(picks[r])} "
                             f"{gen.describe()}", want_v,
                             (int(got[r, 0]), int(got[r, 1])))
                want_w = 1 if k % 2 == 1 else 0
                picks = list(averaging.block_average(ext).picks())
                got = parity_matrix(picks, [t1])[:, 0]
                col.cases += len(picks)
                for r in np.flatnonzero(got != want_w):
                    col.fail(lambda: f"n={n} s={s} w={FinSet(picks[r])} "
                             f"{gen.describe()}", want_w, int(got[r]))
    return col


def _suite_averaging_evaluator_equivalence(cap):
    trials = _eff(200, None if cap is None else cap * 16)
    col = _Collector()
    rng = random.Random(90125)
    done = 0
    attempt = 0
    while done < trials:
        attempt += 1
        n = rng.randrange(1, 5)
        size_v = rng.randrange(0, n + 1)
        size_f = rng.randrange(0, n + 1)
        sv = FinSet.of(rng.sample(range(1, 10), size_v))
        sf = FinSet.of(rng.sample(range(1, 10), size_f))
        gen_v = averaging.SeededBlocks(rng.randrange(1, 10 ** 6))
        gen_f = averaging.SeededBlocks(rng.randrange(1, 10 ** 6))
        v = averaging.block_average(averaging.build_chain(n, sv, gen_v))
        if v.index_count > 10_000:
            continue
        f = averaging.union_functional(averaging.build_chain(n, sf, gen_f))
        fast = averaging.evaluate(f, v)
        slow = averaging.evaluate_enumerated(f, v)
        col.check(fast == slow,
                  lambda: f"n={n} v-blocks={[str(b) for b in v.blocks]} "
                  f"f={f.support}", slow, fast)
        done += 1
        if attempt > trials * 50:
            col.check(False, lambda: "generation", "enough small cases",
                      "starved")
            break
    return col


def _suite_averaging_convexity(cap):
    bound = _eff(6, cap)
    col = _Collector()
    for n in (2, 3):
        for s in _chain_supports(bound, n):
            chain = averaging.build_chain(n, s, averaging.SeededBlocks(5))
            v = averaging.block_average(chain)
            if v.index_count > 10_000:
                continue
            table = v.explicit()
            total = sum(table.values(), Fraction(0))
            ok = (len(table) == v.index_count
                  and all(w > 0 for w in table.values()) and total == 1)
            col.check(ok, lambda: f"n={n} s={s}",
                      "positive weights summing to 1",
                      f"count={len(table)}, sum={total}")
    return col


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _capture_cli(argv: list[str]) -> tuple[int, str]:
    import contextlib
    import io

    from . import cli

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _suite_cli_byte_determinism(cap):
    col = _Collector()
    commands = [
        ["compacta", "matrix", "--mode", "K", "--alpha", "2",
         "--rows", str(_eff(7, cap)), "--cols", str(_eff(7, cap)),
         "--format", "csv"],
        ["fam", "enum", "restrict(schreier, powers(2))",
         "--max", str(_eff(16, cap))],
        ["theta", "eval", "--s", "{2,5,8}", "--t", "{2,3,5,8,9}"],
        ["verify", "--suite", "finset.interval_structure", "--max", "6"],
    ]
    for argv in commands:
        first, second = _capture_cli(list(argv)), _capture_cli(list(argv))
        col.check(first == second, lambda: " ".join(argv),
                  "one output across runs", "2")
    return col


def _suite_cli_coverage(cap):
    col = _Collector()
    col.check(tuple(SUITES) == EXPECTED_SUITES, lambda: "registry",
              list(EXPECTED_SUITES), list(SUITES))
    return col


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

SUITES: dict[str, Callable] = {
    "ordinal.associativity": _suite_ordinal_associativity,
    "ordinal.left_distributivity": _suite_ordinal_distributivity,
    "ordinal.order_and_monotonicity": _suite_ordinal_order,
    "ordinal.parse_roundtrip": _suite_ordinal_roundtrip,
    "finset.precedes_transitive": _suite_precedes_transitive,
    "finset.interval_structure": _suite_interval_structure,
    "family.hereditary": _suite_family_hereditary,
    "family.tail_uniformity": _suite_family_tail_uniformity,
    "family.enumeration_agreement": _suite_family_enumeration,
    "family.rank_consistency": _suite_family_rank_consistency,
    "family.level_union": _suite_family_level_union,
    "kernel.decomposition_unique": _suite_parity_decomposition_unique,
    "kernel.local_constancy": _suite_parity_local_constancy,
    "kernel.sign_formula": _suite_parity_sign_formula,
    "kernel.decompose_member_coherence": _suite_parity_decompose_member,
    "compacta.witness_separates": _suite_compacta_witness_separates,
    "compacta.witness_matrix_injective": _suite_compacta_witness_matrix,
    "compacta.matrix_determinism": _suite_compacta_matrix_determinism,
    "compacta.search_within_bound": _suite_compacta_search_bound,
    "averaging.level_parity": _suite_averaging_level_parity,
    "averaging.cancellation_exact": _suite_averaging_cancellation,
    "averaging.parity_table": _suite_averaging_parity_table,
    "averaging.evaluator_equivalence": _suite_averaging_evaluator_equivalence,
    "averaging.convexity": _suite_averaging_convexity,
    "cli.byte_determinism": _suite_cli_byte_determinism,
    "cli.suite_coverage": _suite_cli_coverage,
}

EXPECTED_SUITES = tuple(SUITES)


def run_suite(name: str, cap: Optional[int] = None) -> VerifyReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    started = time.perf_counter()
    col = SUITES[name](cap)
    return VerifyReport(suite=name, cases=col.cases, failures=col.failures,
                        wall_time=time.perf_counter() - started)


def run_all(cap: Optional[int] = None) -> list[VerifyReport]:
    return [run_suite(name, cap) for name in SUITES]
