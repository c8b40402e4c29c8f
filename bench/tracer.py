"""Span tracing of the ``schreier_kit`` layers from outside the package.

``Tracer.install`` replaces the functions that the modules import from one
another, and the class methods on the hot paths, with wrappers; it restores
every one of them in ``uninstall``.  The modules use ``from .x import y``,
so a function is replaced in every module namespace that holds it, not only
where it is defined.

Spans are aggregated in memory by (span, parent span): call count, total
nanoseconds and nanoseconds spent in child spans.  No record is kept per
call, because the hottest leaf runs millions of times in one pass.  A
layer's self time is the sum over its spans of total minus child time.
Leaves marked ``sample`` run millions of times and cost less than a
microsecond each, so timing every call would mostly time the tracer.  They
are counted on every call and timed on every ``SAMPLE_EVERY``-th; their
estimated time (sampled time less the calibrated cost of the timer, scaled
by the call count) moves from the caller's layer to theirs.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# (layer, module, attribute, mode).  ``Class.method`` names a method; mode
# is "span" (every call timed) or "sample" (counted, every n-th call timed).
TARGETS = (
    ("ordinal", "ordinal", "Ordinal.__add__", "span"),
    ("ordinal", "ordinal", "Ordinal.__mul__", "span"),
    ("ordinal", "ordinal", "Ordinal.__lt__", "sample"),
    ("ordinal", "ordinal", "Ordinal.__str__", "span"),
    ("finset", "finset", "FinSet.__post_init__", "span"),
    ("finset", "finset", "FinSet.union", "span"),
    ("finset", "finset", "FinSet.with_element", "span"),
    ("finset", "finset", "interval", "span"),
    ("family", "family", "parse_family", "span"),
    ("family", "family", "parse_index", "span"),
    ("family", "family", "format_family", "span"),
    ("family", "family", "member", "span"),
    ("family", "family", "member_by_composition_search", "span"),
    ("family", "family", "is_maximal", "span"),
    ("family", "family", "tail_threshold", "span"),
    ("family", "family", "enumerate_members", "span"),
    ("family", "family", "enumerate_members_naive", "span"),
    ("family", "family", "rank", "span"),
    ("family", "family", "derivative", "span"),
    ("family", "family", "iterated_derivative", "span"),
    ("family", "family", "extension_admissible", "span"),
    ("kernel", "kernel", "decompose", "span"),
    ("kernel", "kernel", "inner", "span"),
    ("kernel", "kernel", "parity", "span"),
    ("kernel", "kernel", "block_sets", "span"),
    ("kernel", "kernel", "_parity_blocks", "sample"),
    ("compacta", "compacta", "build_matrix", "span"),
    ("compacta", "compacta", "matrix_from_sets", "span"),
    ("compacta", "compacta", "_fill", "span"),
    ("compacta", "_threads", "map_ordered", "span"),
    ("compacta", "compacta", "to_csv", "span"),
    ("compacta", "compacta", "to_pbm", "span"),
    ("compacta", "compacta", "injectivity_report", "span"),
    ("compacta", "compacta", "powers_witness", "span"),
    ("compacta", "compacta", "distinguishing_search", "span"),
    ("averaging", "averaging", "build_chain", "span"),
    ("averaging", "averaging", "DeltaChain.__post_init__", "span"),
    ("averaging", "averaging", "DeltaChain.extend", "span"),
    ("averaging", "averaging", "DeltaChain.union", "span"),
    ("averaging", "averaging", "union_functional", "span"),
    ("averaging", "averaging", "block_average", "span"),
    ("averaging", "averaging", "evaluate", "span"),
    ("averaging", "averaging", "evaluate_enumerated", "span"),
    ("averaging", "averaging", "cancellation_value", "span"),
    ("averaging", "averaging", "self_pairing", "span"),
    ("averaging", "averaging", "BlockAverage.explicit", "span"),
    ("verify", "verify", "run_suite", "span"),
    ("cli", "cli", "main", "span"),
)

# Memo caches read through cache_info() when the pass ends.
CACHES = (("family", "_member"), ("family", "_member_exhaustive"),
          ("family", "_tail_threshold"), ("kernel", "_decompose_elems"),
          ("verify", "_members"))

ROOT = "<root>"
SAMPLE_EVERY = 64


@dataclass
class Tracer:
    """Aggregated spans and counts for one traced pass."""

    package: object                       # the imported schreier_kit package
    spans: dict = field(default_factory=dict)    # (name, parent) -> [n, ns, child ns]
    samples: dict = field(default_factory=dict)  # (name, parent) -> [n, timed, ns]
    results: dict = field(default_factory=dict)  # name -> list of result hooks' data
    timer_ns: int = 0                            # calibrated cost of one timing
    _saved: list = field(default_factory=list)   # (owner, attr, original)
    _names: list = field(default_factory=lambda: [ROOT])
    _childs: list = field(default_factory=lambda: [0])

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, name: str, hook=None):
        names, childs, spans = self._names, self._childs, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            names.append(name)
            childs.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                names.pop()
                child = childs.pop()
                key = (name, names[-1])
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += child
                childs[-1] += dt
            if hook is not None:
                hook(out)
            return out

        return wrapper

    def _sample(self, fn, name: str):
        names, samples = self._names, self.samples
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            key = (name, names[-1])
            rec = samples.get(key)
            if rec is None:
                rec = samples[key] = [0, 0, 0]
            rec[0] += 1
            if rec[0] % SAMPLE_EVERY:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] += clock() - t0
                rec[1] += 1

        return wrapper

    def _hook(self, name: str):
        """Result hooks that turn return values into work counts."""
        sink = self.results.setdefault(name, [])
        if name == "compacta._fill":
            return lambda m: sink.append(m.entries.size)
        if name in ("compacta.to_csv", "compacta.to_pbm"):
            return lambda text: sink.append(len(text))
        if name == "family.enumerate_members":
            return lambda members: sink.append(len(members))
        if name == "verify.run_suite":
            return lambda rep: sink.append((rep.suite, rep.cases, rep.wall_time))
        return None

    def _calibrate(self) -> int:
        """Mean nanoseconds that a sampled timing of a no-op reads."""
        probe = Tracer(self.package)
        noop = probe._sample(lambda: None, "calibrate")
        for _ in range(SAMPLE_EVERY * 2001):
            noop()
        rec = probe.samples[("calibrate", ROOT)]
        return rec[2] // rec[1]

    def _wrap(self, fn, name: str, mode: str):
        if mode == "sample":
            return self._sample(fn, name)
        return self._span(fn, name, self._hook(name))

    # -- install / uninstall -------------------------------------------

    def _modules(self) -> list:
        prefix = self.package.__name__
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for _layer, mod_name, _attr, _mode in TARGETS:
            importlib.import_module(f"{self.package.__name__}.{mod_name}")
        modules = self._modules()
        self.timer_ns = self._calibrate()
        for layer, mod_name, attr, mode in TARGETS:
            mod = getattr(self.package, mod_name)
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                wrapped = self._wrap(original, name, mode)
                self._saved.append((owner, meth, original))
                setattr(owner, meth, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(original, name, mode)
            for m in modules:
                for gname, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, gname, original))
                        setattr(m, gname, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------

    def cache_info(self) -> dict:
        out = {}
        for mod_name, attr in CACHES:
            info = getattr(getattr(self.package, mod_name), attr).cache_info()
            out[f"{mod_name}.{attr}"] = {"hits": info.hits, "misses": info.misses,
                                         "currsize": info.currsize}
        return out

    def layer_self_ns(self) -> dict:
        out: dict = {}
        for (name, _parent), (_n, total, child) in self.spans.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + total - child
        for (name, parent), (n, timed, ns) in self.samples.items():
            est = max(0, ns - timed * self.timer_ns) * n // timed if timed else 0
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + est
            if parent != ROOT:
                caller = parent.split(".", 1)[0]
                out[caller] = out.get(caller, 0) - est
        return out

    def calls(self, name: str) -> int:
        recs = [*self.spans.items(), *self.samples.items()]
        return sum(rec[0] for (n, _p), rec in recs if n == name)

    def total_ns(self, name: str) -> int:
        """Inclusive time of a span, counting each outermost call once."""
        return sum(rec[1] for (n, p), rec in self.spans.items()
                   if n == name and p != name)

    def dump(self) -> dict:
        """Everything recorded, JSON-ready."""
        return {
            "spans": [{"span": n, "parent": p, "count": c, "total_ns": t,
                       "child_ns": ch}
                      for (n, p), (c, t, ch) in sorted(self.spans.items())],
            "samples": [{"span": n, "parent": p, "count": c, "timed": k,
                         "timed_ns": t}
                        for (n, p), (c, k, t) in sorted(self.samples.items())],
            "sample_every": SAMPLE_EVERY,
            "timer_ns": self.timer_ns,
            "caches": self.cache_info(),
            "layer_self_ns": self.layer_self_ns(),
        }
