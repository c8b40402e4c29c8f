"""Named verification suites, one per library invariant.

Every suite replays one documented invariant, exhaustively at a truncation
that a laptop handles in seconds.  Each suite fills the report that
``run_suite`` hands it, whose serialized form is byte-stable across runs;
wall time is carried on the report object but never serialized.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import averaging, compacta, family, ordinal
from .family import (SCHREIER, SCHREIER_SQUARE, All, Cube, Powers, Restrict,
                     enumerate_members, member, member_by_composition_search,
                     product_family, tail_threshold)
from .finset import EMPTY, FinSet, interval
from .ordinal import ZERO, Ordinal
from .kernel import NotInS2Error, decompose, inner, parity, parity_matrix

_MAX_RECORDED_FAILURES = 20
# Padded columns per parity grid in ``kernel.local_constancy``, which bounds
# its comparison temporaries; a multiple of its 97-pad spot-check stride.
_PAD_COLUMNS = 97 * 40


@dataclass
class VerifyReport:
    """One suite run: the suite counts its cases and records its failures
    here; ``label`` is a zero-argument callable, so a case's text is built
    only when it is recorded."""

    suite: str
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    wall_time: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        """Stable serialization: wall time deliberately left out."""
        return json.dumps({"suite": self.suite, "cases": self.cases,
                           "failures": self.failures},
                          sort_keys=True, separators=(",", ":"))

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
    return default if cap is None else min(default, cap)


# Enumerations kept: capped verify asks 113 distinct (expression, bound)
# keys and uncapped verify 169.
@lru_cache(maxsize=256)
def _members(expr, bound: int) -> tuple[FinSet, ...]:
    return tuple(enumerate_members(expr, bound))


# ---------------------------------------------------------------------------
# ordinal
# ---------------------------------------------------------------------------


def _ordinal_corpus(cap: Optional[int] = None) -> list[Ordinal]:
    """Every normal form with exponents from {0,1,2}, coefficients 1..3,
    and at most three terms; the first ``max(4, 4 * cap)`` under a cap."""
    exps = [ZERO, Ordinal.nat(1), Ordinal.nat(2)]
    out = [ZERO]
    for r in (1, 2, 3):
        for es in itertools.combinations(sorted(exps, reverse=True), r):
            for cs in itertools.product((1, 2, 3), repeat=r):
                out.append(Ordinal(tuple(zip(es, cs))))
    return out if cap is None else out[:max(4, cap * 4)]


def _ids(values: dict, xs) -> np.ndarray:
    """The ids of ``xs`` in ``values``, a dict from value to id that gains
    each new value with the next id.  Ordinals are interned, so equal
    values are one object and share one id."""
    return np.array([values.setdefault(x, len(values)) for x in xs],
                    dtype=np.intp)


def _table(op, xs, ys, values: dict) -> np.ndarray:
    """Ids of ``op(x, y)`` for every x in ``xs`` and y in ``ys``, each
    asked once, in a (len(xs), len(ys)) array."""
    return _ids(values, [op(x, y) for x in xs for y in ys]).reshape(
        len(xs), len(ys))


def _first(bad: np.ndarray) -> list[list[int]]:
    """The indices of the first recorded failures among the True entries
    of ``bad``, in row-major order: the order of the loops it replaces."""
    return np.argwhere(bad)[:_MAX_RECORDED_FAILURES].tolist()


def _suite_ordinal_associativity(col, cap):
    corpus = _ordinal_corpus(cap)
    n = len(corpus)
    each = np.arange(n)
    sides = []
    for op in (operator.add, operator.mul):
        values: dict = {}
        ab = _table(op, corpus, corpus, values)  # b op c too: same table
        # (a op b) op c and a op (b op c) from one ask per distinct a op b
        distinct = list(values)
        left = _table(op, distinct, corpus, values)
        right = _table(op, corpus, distinct, values)
        sides.append((list(values), left[ab[:, :, None], each],
                      right[each[:, None, None], ab]))
    col.cases += 2 * n ** 3
    # failures in (a, b, c) order, the sum before the product
    bad = np.stack([lhs != rhs for _, lhs, rhs in sides], axis=-1)
    for a, b, c, k in _first(bad):
        values, lhs, rhs = sides[k]
        col.fail(lambda: f"{('add', 'mul')[k]} {corpus[a]}|{corpus[b]}|"
                 f"{corpus[c]}", values[rhs[a, b, c]], values[lhs[a, b, c]])


def _suite_ordinal_distributivity(col, cap):
    corpus = _ordinal_corpus(cap)
    n = len(corpus)
    values: dict = {}
    bc = _table(operator.add, corpus, corpus, values)
    # a * (b + c) once per distinct b + c
    lhs = _table(operator.mul, corpus, list(values), values)[:, bc]
    # a*b + a*c once per pair of distinct products of a
    rhs = np.empty((n, n, n), dtype=np.intp)
    for a, x in enumerate(corpus):
        products: dict = {}
        at = _ids(products, [x * c for c in corpus])
        sums = _table(operator.add, list(products), list(products), values)
        rhs[a] = sums[at[:, None], at]
    col.cases += n ** 3
    values = list(values)
    for a, b, c in _first(lhs != rhs):
        col.fail(lambda: f"{corpus[a]}|{corpus[b]}|{corpus[c]}",
                 values[rhs[a, b, c]], values[lhs[a, b, c]])


def _suite_ordinal_order(col, cap):
    corpus = _ordinal_corpus(cap)
    n = len(corpus)
    # each ordered pair asked of < once
    lt = np.array([[a < b for b in corpus] for a in corpus])
    eq = np.array([[a == b for b in corpus] for a in corpus])
    col.cases += n * n
    for a, b in _first(lt.astype(int) + lt.T + eq != 1):
        col.fail(lambda: f"trichotomy {corpus[a]}|{corpus[b]}",
                 "exactly one of <,>,=",
                 f"{bool(lt[a, b])},{bool(lt[b, a])},{bool(eq[a, b])}")
    # transitivity on a thinner slice, every a < c read from the asked pairs
    small = corpus[::3]
    lt3 = lt[::3, ::3]
    chains = lt3[:, :, None] & lt3[None, :, :]
    col.cases += int(chains.sum())
    for a, b, c in _first(chains & ~lt3[:, None, :]):
        col.fail(lambda: f"transitivity {small[a]}|{small[b]}|{small[c]}",
                 True, False)
    # a + b < a + c for every b < c, asked once per distinct pair of sums
    values: dict = {}
    sums = _table(operator.add, corpus, corpus, values)
    a, b, c = np.nonzero(np.broadcast_to(lt, (n, n, n)))
    pairs, which = np.unique(np.stack([sums[a, b], sums[a, c]], axis=1),
                             axis=0, return_inverse=True)
    values = list(values)
    asked = np.array([values[x] < values[y] for x, y in pairs.tolist()],
                     dtype=bool)
    ok = asked[which.reshape(-1)]
    col.cases += ok.size
    for (k,) in _first(~ok):
        col.fail(lambda: f"monotone {corpus[a[k]]}|{corpus[b[k]]}|"
                 f"{corpus[c[k]]}", True, False)


def _random_ordinal(rng: random.Random, depth: int = 2) -> Ordinal:
    if depth == 0:
        return Ordinal.nat(rng.randrange(0, 5))
    n_terms = rng.randrange(0, 4)
    # a list in draw order: a set of interned ordinals iterates in
    # identity-hash order, and sorting it would then make a different
    # number of comparisons in each process
    exps: list = []
    while len(exps) < n_terms:
        e = _random_ordinal(rng, depth - 1)
        if e not in exps:
            exps.append(e)
    terms = tuple((e, rng.randrange(1, 6))
                  for e in sorted(exps, reverse=True))
    return Ordinal(terms)


def _suite_ordinal_roundtrip(col, cap):
    rng = random.Random(4020)
    n = _eff(1000, None if cap is None else cap * 80)
    for _ in range(n):
        x = _random_ordinal(rng)
        text = str(x)
        back = Ordinal.parse(text)
        col.check(back == x, lambda: text, x, back)


# ---------------------------------------------------------------------------
# finset
# ---------------------------------------------------------------------------


def _suite_precedes_transitive(col, cap):
    bound = _eff(8, cap)
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


def _suite_interval_structure(col, cap):
    bound = _eff(12, cap)
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


def _suite_family_hereditary(col, cap):
    bound = _eff(10, cap)
    for expr in _family_corpus():
        for s in _members(expr, bound):
            for r in range(len(s) + 1):
                for sub in itertools.combinations(s.elems, r):
                    col.check(family._member(expr, sub),
                              lambda: f"{family.format_family(expr)}: "
                              f"{FinSet(sub)} under {s}", True, False)


def _suite_family_tail_uniformity(col, cap):
    bound = _eff(10, cap)
    horizon = _eff(40, None if cap is None else cap * 4)
    for expr in _family_corpus():
        idx = family.effective_index(expr)
        step = family._stepper(expr)[1]
        threshold = tail_threshold(expr)
        for elems in family._powerset(range(1, bound + 1)):
            s = FinSet(elems)
            lo = max(s.max_or_0, threshold)
            probes = family.index_elements_between(idx, lo, horizon)
            # one step per probe from the state of s; a non-member s has no
            # member extension, the corpus being hereditary
            state = family._state_of(expr, elems)
            vals = {state is not None and step(state, m) is not None
                    for m in probes}
            col.check(len(vals) <= 1,
                      lambda: f"{family.format_family(expr)}: {s}",
                      "constant tail membership", sorted(vals))


def _suite_family_enumeration(col, cap):
    bound = _eff(12, cap)
    for expr in _family_corpus():
        fast = list(_members(expr, bound))
        naive = family.enumerate_members_naive(expr, bound)
        col.check(fast == naive, lambda: family.format_family(expr),
                  f"{len(naive)} members", f"{len(fast)} members")
        sizes = [len(_members(expr, m)) for m in range(1, bound + 1)]
        col.check(all(x <= y for x, y in zip(sizes, sizes[1:])),
                  lambda: f"{family.format_family(expr)} monotone counts",
                  "nondecreasing", sizes)


def _suite_family_rank_consistency(col, cap):
    bound = _eff(12, cap)
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


def _suite_family_level_union(col, cap):
    bound = _eff(12, cap)
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


# ---------------------------------------------------------------------------
# parity kernel
# ---------------------------------------------------------------------------


def _suite_parity_decomposition_unique(col, cap):
    bound = _eff(12, cap)
    for elems in family._powerset(range(1, bound + 1)):
        if not elems:
            continue
        # schreier blocks, every block before the last maximal, and the
        # block minima schreier
        valid = [bs for bs in family._compositions(
                     elems, lambda b: len(b) <= b[0])
                 if all(len(b) == b[0] for b in bs[:-1])
                 and len(bs) <= bs[0][0]]
        is_member = member(SCHREIER_SQUARE, FinSet(elems))
        col.check(len(valid) == (1 if is_member else 0),
                  lambda: f"{FinSet(elems)}", "one composition iff member",
                  f"member={is_member}, {len(valid)} compositions")
        if is_member and valid:
            got = tuple(b.elems for b in decompose(FinSet(elems)).blocks)
            col.check(got == valid[0], lambda: f"greedy at {FinSet(elems)}",
                      valid[0], got)


def _pads_for(t: FinSet, hi: int):
    """Singleton and dyadic-interval pads whose elements all exceed max t."""
    lo = t.max_or_0
    for a in range(lo + 1, hi + 1):
        yield FinSet((a,))
    a = lo + 1
    while 2 * a - 1 <= hi:
        yield interval(a, 2 * a - 1)
        a += 1


def _suite_parity_local_constancy(col, cap):
    bound = _eff(12, cap)
    horizon = _eff(40, None if cap is None else cap * 4)
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


def _suite_parity_sign_formula(col, cap):
    bound = _eff(12, cap)
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


def _suite_parity_decompose_member(col, cap):
    bound = _eff(12, cap)
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


# ---------------------------------------------------------------------------
# compacta
# ---------------------------------------------------------------------------


def _powers_schreier(top_exp: int, max_size: int) -> list[FinSet]:
    """The schreier sets of the powers 1, 2, ..., 2^top_exp with at most
    ``max_size`` elements, ∅ first, in length-then-lex order."""
    members = _members(Restrict(SCHREIER, Powers(2)), 1 << top_exp)
    return [s for s in members if len(s) <= max_size]


def _suite_compacta_witness_separates(col, cap):
    top = _eff(10, cap)
    rows = _powers_schreier(top, 4)
    i0, i1 = np.triu_indices(len(rows), 1)  # itertools.combinations order
    # each pair's witness, or the error that refused it
    witnesses = []
    for s0, s1 in itertools.combinations(rows, 2):
        try:
            witnesses.append(compacta.powers_witness(s0, s1))
        except (ValueError, AssertionError) as e:
            witnesses.append(e)
    # one grid column per distinct witness in S2, each asked of member once
    distinct = dict.fromkeys(t for t in witnesses if isinstance(t, FinSet))
    members = [t for t in distinct if member(SCHREIER_SQUARE, t)]
    column = {t: j for j, t in enumerate(members)}
    grid = parity_matrix(rows, members)
    at = np.array([column.get(t, -1) for t in witnesses], dtype=np.intp)
    ok = at >= 0
    sep = np.zeros(len(witnesses), dtype=bool)
    sep[ok] = grid[i0[ok], at[ok]] != grid[i1[ok], at[ok]]
    col.cases += len(witnesses)
    for (k,) in _first(~sep):
        t = witnesses[k]
        label = lambda: f"{rows[i0[k]]} vs {rows[i1[k]]}"
        if isinstance(t, Exception):
            col.fail(label, "witness", repr(t))
        else:
            col.fail(label, "witness in S2 and separating",
                     f"in_S2={ok[k]}, separates={sep[k]}")


def _suite_compacta_witness_matrix(col, cap):
    top = _eff(6, cap)
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


def _suite_compacta_matrix_determinism(col, cap):
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


def _suite_compacta_search_bound(col, cap):
    t_bound = _eff(10, cap)
    s_bound = min(22, 2 * t_bound + 2)
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


# ---------------------------------------------------------------------------
# averaging trees
# ---------------------------------------------------------------------------


def _chain_supports(bound: int, max_size: int) -> list[FinSet]:
    """The nonempty subsets of [1..bound] with at most ``max_size``
    elements, in length-then-lex order."""
    return list(_members(Cube(1, max_size), bound)[1:])


def _suite_averaging_level_parity(col, cap):
    bound = _eff(7, cap)
    seeds = _eff(100, cap)
    gens = averaging.sweep_generators(seeds)
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


def _suite_averaging_cancellation(col, cap):
    bound = _eff(9, cap)
    m_hi = _eff(12, cap)
    seeds = _eff(100, cap)
    gens = averaging.sweep_generators(seeds)
    empty_chain = averaging.build_chain(1, EMPTY)
    base = averaging.evaluate(averaging.union_functional(empty_chain),
                              averaging.block_average(empty_chain))
    col.check(base == 1, lambda: "empty functional on empty average", 1, base)
    for n in range(1, 5):
        for s in _members(Cube(1, n - 1), bound):
            want = (-1) ** len(s)
            for gen in gens:
                chain = averaging.build_chain(n, s, gen)
                for run, got in averaging.cancellation_runs(
                        chain, s.max_or_0 + 1, m_hi + 1):
                    col.cases += len(run)
                    if got == want:
                        continue
                    for m in run:
                        col.fail(lambda: f"n={n} s={s} m={m} {gen.describe()}",
                                 f"(-1)^{len(s)}",
                                 repr(averaging.cancellation_error(s, m, got)))


def _suite_averaging_parity_table(col, cap):
    bound = _eff(6, cap)
    gens = [averaging.CanonicalBlocks(),
            averaging.SeededBlocks(7), averaging.SeededBlocks(99)]
    for n in range(1, 4):
        for s in _members(Cube(1, n - 1), bound):
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


def _suite_averaging_evaluator_equivalence(col, cap):
    trials = _eff(200, None if cap is None else cap * 16)
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


def _suite_averaging_convexity(col, cap):
    bound = _eff(6, cap)
    for n in (2, 3):
        for s in _chain_supports(bound, n):
            chain = averaging.build_chain(n, s, averaging.SeededBlocks(5))
            v = averaging.block_average(chain)
            if v.index_count > 10_000:
                continue
            table = v.explicit()
            # the exact total over the weights' common denominator
            weights = table.values()
            den = math.lcm(*{w.denominator for w in weights})
            num = sum(w.numerator * (den // w.denominator) for w in weights)
            ok = (len(table) == v.index_count
                  and all(w.numerator > 0 for w in weights) and num == den)
            col.check(ok, lambda: f"n={n} s={s}",
                      "positive weights summing to 1",
                      f"count={len(table)}, sum={Fraction(num, den)}")


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


def _suite_cli_byte_determinism(col, cap):
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


def _suite_cli_coverage(col, cap):
    col.check(tuple(SUITES) == EXPECTED_SUITES, lambda: "registry",
              list(EXPECTED_SUITES), list(SUITES))


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

# the registry's names in order, spelled out so that the coverage suite
# compares the registry with a list kept apart from it
EXPECTED_SUITES = tuple("""
ordinal.associativity ordinal.left_distributivity
ordinal.order_and_monotonicity ordinal.parse_roundtrip
finset.precedes_transitive finset.interval_structure family.hereditary
family.tail_uniformity family.enumeration_agreement family.rank_consistency
family.level_union kernel.decomposition_unique kernel.local_constancy
kernel.sign_formula kernel.decompose_member_coherence
compacta.witness_separates compacta.witness_matrix_injective
compacta.matrix_determinism compacta.search_within_bound
averaging.level_parity averaging.cancellation_exact averaging.parity_table
averaging.evaluator_equivalence averaging.convexity cli.byte_determinism
cli.suite_coverage
""".split())


def run_suite(name: str, cap: Optional[int] = None) -> VerifyReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; one of: {', '.join(SUITES)}")
    if cap is not None and cap < 1:
        raise ValueError(f"the verify cap (--max) must be >= 1, got {cap}")
    report = VerifyReport(name)
    started = time.perf_counter()
    SUITES[name](report, cap)
    report.wall_time = time.perf_counter() - started
    return report


def run_all(cap: Optional[int] = None) -> list[VerifyReport]:
    return [run_suite(name, cap) for name in SUITES]
