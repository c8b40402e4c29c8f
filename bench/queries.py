"""The ``queries`` workload: a seeded stream of single-answer requests.

Each request is what one CLI handler does for one command, made through the
same library calls (``cli.main`` itself is left out: it rebuilds the
argparse parser on every call, which would swamp the library work).

The generator draws family expressions over the whole grammar, nested
``restrict`` with ``ap``, ``powers`` and explicit index sets and ``prod``
with non-Schreier right factors included, and screens out nothing.  About
half of the family requests reuse an expression drawn earlier, so the memo
caches are shared between requests.  The generator is pure Python and never
imports ``schreier_kit``: one seed gives one list of plain tuples.

``check`` replays every answer through the slow oracle routes after the
timed pass, so neither the oracle work nor the caches it fills enter any
timing.
"""

from __future__ import annotations

import random

# Refusals the library documents; the CLI turns them into exit 2.
DOCUMENTED_ERRORS = ("NotAMemberError", "DegenerateIndexError", "NotInS2Error",
                     "ChainError", "FamilySyntaxError", "ValueError")

# Request kinds and their weights in the stream (family requests dominate).
KINDS = (("fam_member", 24), ("fam_maximal", 16), ("fam_enum", 14),
         ("fam_rank", 10), ("fam_parse", 6), ("theta_eval", 10),
         ("theta_decompose", 5), ("compacta_search", 7), ("tree_check", 8))

# Brute-force maximality probes every one-point extension up to this value.
MAXIMAL_HORIZON = 256


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def _index_text(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.1:
        return "all"
    if r < 0.25:
        return f"from({rng.randint(1, 6)})"
    if r < 0.5:
        return f"powers({rng.randint(2, 4)})"
    if r < 0.75:
        return f"ap({rng.randint(1, 5)},{rng.randint(1, 4)})"
    k = rng.randint(0, 6)
    return "{" + ",".join(map(str, sorted(rng.sample(range(1, 17), k)))) + "}"


def family_text(rng: random.Random, depth: int = 3) -> str:
    """One family expression, at most ``depth`` constructors deep."""
    r = rng.random() if depth > 0 else rng.random() * 0.5
    if r < 0.2:
        return "schreier"
    if r < 0.3:
        return "S2"
    if r < 0.5:
        return f"cube({rng.randint(1, 4)},{rng.randint(0, 4)})"
    if r < 0.75:
        return (f"restrict({family_text(rng, depth - 1)}, "
                f"{_index_text(rng)})")
    return f"prod({family_text(rng, depth - 1)}, {family_text(rng, depth - 1)})"


def _set_text(rng: random.Random, hi: int = 12, most: int = 5) -> str:
    k = rng.randint(0, most)
    return "{" + ",".join(map(str, sorted(rng.sample(range(1, hi + 1), k)))) + "}"


def _s2_like_text(rng: random.Random) -> str:
    """A set that usually decomposes: small consecutive-ish blocks."""
    out: list[int] = []
    m = rng.randint(1, 4)
    for _ in range(rng.randint(0, 6)):
        out.append(m)
        m += rng.randint(1, 3)
    return "{" + ",".join(map(str, out)) + "}"


def generate(seed: int, count: int) -> list[tuple]:
    """``count`` requests for ``seed``: the same seed gives the same list."""
    rng = random.Random(seed)
    names = [k for k, _ in KINDS]
    weights = [w for _, w in KINDS]
    pool: list[str] = []
    out: list[tuple] = []
    for _ in range(count):
        kind = rng.choices(names, weights)[0]
        if kind.startswith("fam"):
            if pool and rng.random() < 0.5:
                expr = rng.choice(pool)
            else:
                expr = family_text(rng)
                pool.append(expr)
            if kind in ("fam_member", "fam_maximal"):
                out.append((kind, expr, _set_text(rng)))
            elif kind == "fam_enum":
                out.append((kind, expr, rng.randint(3, 10)))
            else:
                out.append((kind, expr))
        elif kind == "theta_eval":
            out.append((kind, _set_text(rng, 14), _s2_like_text(rng)))
        elif kind == "theta_decompose":
            out.append((kind, _s2_like_text(rng)))
        elif kind == "compacta_search":
            out.append((kind, _s2_like_text(rng), _s2_like_text(rng)))
        else:
            n = rng.randint(1, 4)
            k = rng.randint(0, n)
            s = sorted(rng.sample(range(1, 10), k))
            m = (s[-1] if s else 0) + rng.randint(1, 4)
            seed_arg = None if rng.random() < 0.3 else rng.randint(1, 10**6)
            out.append((kind, n, "{" + ",".join(map(str, s)) + "}", m, seed_arg))
    return out


# ---------------------------------------------------------------------------
# serving one request
# ---------------------------------------------------------------------------


def serve(sk, req: tuple):
    """The answer to one request, computed as the matching CLI handler
    computes it.  ``sk`` is the imported ``schreier_kit`` package."""
    kind = req[0]
    fam = sk.family
    if kind == "fam_parse":
        return fam.format_family(fam.parse_family(req[1]))
    if kind == "fam_member":
        return fam.member(fam.parse_family(req[1]), sk.FinSet.parse(req[2]))
    if kind == "fam_maximal":
        return fam.is_maximal(fam.parse_family(req[1]), sk.FinSet.parse(req[2]))
    if kind == "fam_enum":
        expr = fam.parse_family(req[1])
        return [(s.elems, fam.is_maximal(expr, s))
                for s in fam.enumerate_members(expr, req[2])]
    if kind == "fam_rank":
        return str(fam.rank(fam.parse_family(req[1])))
    if kind == "theta_eval":
        return sk.kernel.parity(sk.FinSet.parse(req[1]), sk.FinSet.parse(req[2]))
    if kind == "theta_decompose":
        d = sk.kernel.decompose(sk.FinSet.parse(req[1]))
        return tuple(b.elems for b in d.blocks)
    if kind == "compacta_search":
        t0, t1 = sk.FinSet.parse(req[1]), sk.FinSet.parse(req[2])
        bound = sk.compacta.default_search_bound(t0, t1)
        s = sk.compacta.distinguishing_search(t0, t1, bound)
        return None if s is None else s.elems
    if kind == "tree_check":
        _, n, s_text, m, seed = req
        gen = (sk.averaging.CanonicalBlocks() if seed is None
               else sk.averaging.SeededBlocks(seed))
        chain = sk.averaging.build_chain(n, sk.FinSet.parse(s_text), gen)
        return sk.averaging.cancellation_value(chain, m)
    raise ValueError(f"unknown request kind {kind!r}")


def run_one(sk, req: tuple) -> tuple[str, object]:
    """("ok", answer), ("refused", error name) or ("error", description)."""
    try:
        return "ok", serve(sk, req)
    except Exception as exc:  # a request must never take the stream down
        name = type(exc).__name__
        if name in DOCUMENTED_ERRORS:
            return "refused", name
        return "error", f"{name}: {exc}"


# ---------------------------------------------------------------------------
# oracle checks, after the timed pass
# ---------------------------------------------------------------------------


def _brute_decompose(elems: tuple[int, ...]):
    """The unique valid block composition of ``elems``, by trying all."""
    import itertools

    found = []
    for cuts in itertools.product((0, 1), repeat=len(elems) - 1):
        blocks, start = [], 0
        for i, c in enumerate(cuts, start=1):
            if c:
                blocks.append(elems[start:i])
                start = i
        blocks.append(elems[start:])
        ok = all(len(b) == b[0] for b in blocks[:-1])
        ok = ok and len(blocks[-1]) <= blocks[-1][0]
        if ok and len(blocks) <= blocks[0][0]:
            found.append(tuple(blocks))
    return found


def _oracle_parity(s_elems, blocks) -> int:
    hits = sum(1 for i, m in enumerate(s_elems[:len(blocks)]) if m in blocks[i])
    return (hits + 1) % 2


def _oracle_maximal(sk, expr, elems: tuple[int, ...]) -> bool:
    slow = sk.family.member_by_composition_search
    for m in range(1, MAXIMAL_HORIZON + 1):
        if m not in elems and slow(expr, sk.FinSet(tuple(sorted(elems + (m,))))):
            return False
    return True


def expected(sk, req: tuple, outcome: tuple[str, object]) -> str | None:
    """None when ``outcome`` agrees with the oracles, else why not."""
    status, answer = outcome
    if status == "error":
        return str(answer)
    kind = req[0]
    fam = sk.family
    if status == "refused":
        return None
    if kind == "fam_parse":
        again = fam.format_family(fam.parse_family(answer))
        return None if again == answer else f"reparse gives {again}"
    if kind == "fam_member":
        want = fam.member_by_composition_search(fam.parse_family(req[1]),
                                                sk.FinSet.parse(req[2]))
        return None if want == answer else f"composition search says {want}"
    if kind == "fam_maximal":
        expr = fam.parse_family(req[1])
        want = _oracle_maximal(sk, expr, sk.FinSet.parse(req[2]).elems)
        return None if want == answer else f"extension probe says {want}"
    if kind == "fam_enum":
        expr = fam.parse_family(req[1])
        naive = [s.elems for s in fam.enumerate_members_naive(expr, req[2])]
        if naive != [els for els, _ in answer]:
            return f"naive enumeration has {len(naive)} members"
        for els, mx in answer:
            if _oracle_maximal(sk, expr, els) != mx:
                return f"extension probe disagrees at {els}"
        return None
    if kind == "fam_rank":
        return None if answer == str(sk.Ordinal.parse(answer)) else "reparse"
    if kind in ("theta_eval", "theta_decompose"):
        t = sk.FinSet.parse(req[-1]).elems
        if not t:
            blocks = ()
        else:
            found = _brute_decompose(t)
            if len(found) != 1:
                return f"{len(found)} valid compositions"
            blocks = found[0]
        if kind == "theta_decompose":
            return None if blocks == answer else f"brute force gives {blocks}"
        s = sk.FinSet.parse(req[1])
        d = sk.kernel.Decomposition(tuple(sk.FinSet(b) for b in blocks)) \
            if blocks else sk.FinSet()
        want = (sk.kernel.inner(s, d) + 1) % 2
        if want != _oracle_parity(s.elems, blocks):
            return "inner disagrees with the hit count"
        return None if want == answer else f"inner gives parity {want}"
    if kind == "compacta_search":
        t0, t1 = sk.FinSet.parse(req[1]), sk.FinSet.parse(req[2])
        b0 = _brute_decompose(t0.elems)[0] if t0 else ()
        b1 = _brute_decompose(t1.elems)[0] if t1 else ()
        bound = sk.compacta.default_search_bound(t0, t1)
        for s in sk.compacta.schreier_sets_upto(bound):
            if s and _oracle_parity(s.elems, b0) != _oracle_parity(s.elems, b1):
                return None if s.elems == answer else f"first separator {s}"
        return None if answer is None else "no separator exists"
    if kind == "tree_check":
        _, n, s_text, m, seed = req
        want = (-1) ** len(sk.FinSet.parse(s_text))
        if answer != want:
            return f"cancellation value {answer}, want {want}"
        gen = (sk.averaging.CanonicalBlocks() if seed is None
               else sk.averaging.SeededBlocks(seed))
        chain = sk.averaging.build_chain(n, sk.FinSet.parse(s_text), gen)
        ext = chain.extend(m)
        avg0, avg1 = (sk.averaging.block_average(c) for c in (chain, ext))
        if max(avg0.index_count, avg1.index_count) > 20_000:
            return None
        f = sk.averaging.union_functional(ext)
        slow = (sk.averaging.evaluate_enumerated(f, avg0)
                - sk.averaging.evaluate_enumerated(f, avg1))
        return None if slow == answer else f"enumerated evaluation gives {slow}"
    return f"no oracle for {kind}"


def check(sk, requests, outcomes) -> list[dict]:
    """Every request whose outcome disagrees with the oracles."""
    bad = []
    for i, (req, outcome) in enumerate(zip(requests, outcomes)):
        try:
            why = expected(sk, req, outcome)
        except Exception as exc:  # an oracle crash is a finding, not a pass
            why = f"oracle raised {type(exc).__name__}: {exc}"
        if why is not None:
            bad.append({"index": i, "request": list(req), "why": why})
    return bad
