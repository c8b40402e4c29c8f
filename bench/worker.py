"""One measured pass of one workload, in a fresh process.

Run from the root of a checkout by ``bench/run.py``:

    python3 bench/worker.py --workload matrix --seed 1 --trace 0 --out FILE

The pass imports ``schreier_kit`` (timed as set-up), sends its requests in
a closed loop, one after the other (timed as wall time), reads its own peak
resident memory, and only then checks every answer.  The JSON result goes
to ``--out``.  With ``--setup-only`` the pass stops after the import.

Times are scaled to a reference core speed (see ``SpeedClock``): on a small
shared machine the speed of a core drifts by half or more over tens of
seconds, which no amount of repetition inside one run averages out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"

# Fixed workloads: the CLI commands named in the ROADMAP north star.
COMMANDS = {
    "matrix": [["compacta", "matrix", "--mode", "K", "--alpha", "w",
                "--rows", "14", "--cols", "14", "--pbm", "{pbm}"],
               ["compacta", "inject", "--mode", "L", "--alpha", "w",
                "--rows", "13", "--cols", "13"]],
    "sweep": [["tree", "sweep", "--n", "4", "--support-max", "9",
               "--m-max", "12", "--seeds", "30"]],
    "verify": [["verify", "--max", "8"]],
}
QUERY_COUNT = 2000

LAYERS = ("ordinal", "finset", "family", "kernel", "compacta", "averaging",
          "verify", "cli")

PROBE_EVERY_S = 0.02     # how often the reference loop samples core speed
REF_NS = 300_000         # the reference loop's time at the reference speed


def _reference_loop() -> int:
    s = 0
    for i in range(4000):
        s += i * i % 7
    return s


class SpeedClock:
    """Wall-clock time with probes taken out, scaled to a reference speed.

    While the clock runs, a timer signal interrupts the pass every
    ``PROBE_EVERY_S`` seconds and times a fixed pure-Python loop on the same
    thread, so the probes see the core the pass runs on, at the time it
    runs.  ``elapsed`` leaves out the time spent in probes; ``seconds``
    scales an interval by ``REF_NS`` over the median probe time, giving the
    time the work would have taken on a core where the loop takes
    ``REF_NS``.  Over twelve matrix passes on a 2-core VM, this cut the
    pass-to-pass spread (standard deviation over mean) from 19% to 7%.
    """

    def __init__(self):
        self.probes: list[int] = []
        self.probe_ns = 0

    def _probe(self) -> None:
        t0 = time.perf_counter_ns()
        _reference_loop()
        self.probes.append(time.perf_counter_ns() - t0)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        self._probe()
        self.probe_ns += time.perf_counter_ns() - t0

    def __enter__(self) -> "SpeedClock":
        self._probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def now(self) -> int:
        """Nanoseconds, not counting time spent in probes."""
        return time.perf_counter_ns() - self.probe_ns

    def seconds(self, ns: int) -> float:
        return ns / 1e9 * REF_NS / statistics.median(self.probes)


class _Sink:
    """Stands in for stdout or stderr: hashes and counts what is written and
    keeps the text only when asked."""

    def __init__(self, keep: bool):
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.keep = keep
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha.update(data)
        self.bytes += len(data)
        if self.keep:
            self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def _load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the fixed CLI workloads
# ---------------------------------------------------------------------------


def _run_commands(sk, workload: str, golden: dict) -> dict:
    pbm = os.path.join(OUT_DIR, f"matrix-{os.getpid()}.pbm")
    argvs = [[a.replace("{pbm}", pbm) for a in argv]
             for argv in COMMANDS[workload]]
    cli = sk.cli
    sinks, codes, spans = [], [], []
    real_out, real_err = sys.stdout, sys.stderr
    raw = time.perf_counter()
    try:
        with SpeedClock() as clock:
            for argv in argvs:
                # the 13 MB matrix CSV is not kept, so it is freed as soon as
                # written, as on a real stdout, and stays out of peak_rss_mb
                out, err = _Sink(keep=workload != "matrix"), _Sink(keep=True)
                sys.stdout, sys.stderr = out, err
                t0 = clock.now()
                try:
                    codes.append(cli.main(argv))
                except Exception as exc:  # reported as a failed request below
                    codes.append(f"{type(exc).__name__}: {exc}")
                spans.append(clock.now() - t0)
                sinks.append((out, err))
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    raw = time.perf_counter() - raw
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [clock.seconds(ns) for ns in spans]

    digests = [out.sha.hexdigest() for out, _ in sinks]
    if workload == "matrix" and os.path.exists(pbm):
        digests.append(_file_sha256(pbm))
        os.remove(pbm)
    want = golden[workload]
    problems = []
    for i, (argv, code) in enumerate(zip(argvs, codes)):
        if code != 0:
            problems.append(f"{argv[:2]} exited {code}: "
                            f"{sinks[i][1].text()[-300:]}")
    if digests != want["sha256"]:
        problems.append(f"stdout/pbm digests {digests} != golden {want['sha256']}")
    failed = sum(1 for code in codes if code != 0)
    if workload == "verify":
        problems += _check_verify(sinks[0][0].text(), want["cases"])
    if problems and not failed:
        failed = len(argvs)
    return {"wall_s": sum(latencies), "raw_wall_s": raw,
            "probe_median_ns": statistics.median(clock.probes),
            "peak_rss_mb": rss, "attempted": len(argvs),
            "failed": failed, "problems": problems, "digests": digests,
            "latencies_s": latencies,
            "stdout_bytes": sum(out.bytes for out, _ in sinks)}


def _check_verify(stdout: str, cases: dict) -> list[str]:
    problems = []
    reports = [json.loads(line) for line in stdout.splitlines() if line]
    seen = {r["suite"]: r for r in reports}
    if list(seen) != list(cases):
        problems.append(f"suites {list(seen)} != golden {list(cases)}")
    for name, want in cases.items():
        rep = seen.get(name)
        if rep is None:
            continue
        if rep["failures"]:
            problems.append(f"{name}: {len(rep['failures'])} failures")
        if rep["cases"] != want:
            problems.append(f"{name}: {rep['cases']} cases, golden {want}")
    return problems


# ---------------------------------------------------------------------------
# the queries workload
# ---------------------------------------------------------------------------


def _run_queries(sk, requests: list) -> dict:
    import queries

    outcomes, spans = [], []
    raw = time.perf_counter()
    with SpeedClock() as clock:
        for req in requests:
            t0 = clock.now()
            outcomes.append(queries.run_one(sk, req))
            spans.append(clock.now() - t0)
    raw = time.perf_counter() - raw
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [clock.seconds(ns) for ns in spans]
    return {"wall_s": sum(latencies), "raw_wall_s": raw,
            "probe_median_ns": statistics.median(clock.probes),
            "peak_rss_mb": rss, "attempted": len(requests),
            "latencies_s": latencies, "outcomes": outcomes,
            "digests": [hashlib.sha256(repr(outcomes).encode()).hexdigest()],
            "stdout_bytes": 0}


def _check_queries(sk, requests: list, res: dict) -> None:
    import queries

    outcomes = res.pop("outcomes")
    bad = queries.check(sk, requests, outcomes)
    res["failed"] = len(bad)
    res["refused"] = sum(1 for status, _ in outcomes if status == "refused")
    res["problems"] = ([f"{len(bad)} of {len(requests)} answers disagree "
                        f"with the oracles"] if bad else [])
    res["mismatches"] = bad


# ---------------------------------------------------------------------------
# per-layer metrics of a traced pass
# ---------------------------------------------------------------------------


def layer_metrics(tr, stdout_bytes: int, suites) -> dict:
    """The per-layer metrics of one traced pass, by their benchmark names."""
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for layer, ns in tr.layer_self_ns().items():
        m[f"{layer}.self_s"] = ns / 1e9
    caches = tr.cache_info()

    def calls(cache: str) -> int:
        return caches[cache]["hits"] + caches[cache]["misses"]

    def ratio(cache: str) -> float:
        n = calls(cache)
        return caches[cache]["hits"] / n if n else 0.0

    def total(*names: str) -> int:
        return sum(sum(tr.results.get(n, ())) for n in names)

    m["kernel.parity_evals"] = (tr.calls("kernel._parity_blocks")
                                + tr.calls("kernel.inner"))
    m["kernel.decompositions"] = calls("kernel._decompose_elems")
    m["kernel.decompose_cache_hit_ratio"] = ratio("kernel._decompose_elems")
    m["compacta.fill_s"] = tr.total_ns("compacta._fill") / 1e9
    m["compacta.entries"] = total("compacta._fill")
    m["compacta.serialize_s"] = (tr.total_ns("compacta.to_csv")
                                 + tr.total_ns("compacta.to_pbm")) / 1e9
    m["compacta.serialize_bytes"] = total("compacta.to_csv", "compacta.to_pbm")
    m["compacta.search_s"] = tr.total_ns("compacta.distinguishing_search") / 1e9
    m["averaging.chain_validations"] = tr.calls(
        "averaging.DeltaChain.__post_init__")
    m["averaging.evaluations"] = (tr.calls("averaging.evaluate")
                                  + tr.calls("averaging.evaluate_enumerated"))
    m["averaging.cancellation_checks"] = tr.calls("averaging.cancellation_value")
    m["finset.built"] = tr.calls("finset.FinSet.__post_init__")
    m["ordinal.arith_calls"] = (tr.calls("ordinal.Ordinal.__add__")
                                + tr.calls("ordinal.Ordinal.__mul__"))
    m["ordinal.compare_calls"] = tr.calls("ordinal.Ordinal.__lt__")
    m["ordinal.str_calls"] = tr.calls("ordinal.Ordinal.__str__")
    ran = {suite: (cases, wall) for suite, cases, wall
           in tr.results.get("verify.run_suite", ())}
    m["verify.cases"] = sum(cases for cases, _ in ran.values())
    for suite in suites:
        m[f"verify.suite_s.{suite}"] = ran.get(suite, (0, 0.0))[1]
    m["family.member_calls"] = calls("family._member")
    m["family.member_cache_hit_ratio"] = ratio("family._member")
    m["family.member_cache_size"] = caches["family._member"]["currsize"]
    m["family.tail_threshold_calls"] = calls("family._tail_threshold")
    m["family.maximal_calls"] = tr.calls("family.is_maximal")
    m["family.enum_members"] = total("family.enumerate_members")
    m["cli.requests"] = tr.calls("cli.main")
    m["cli.stdout_bytes"] = stdout_bytes
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(COMMANDS) + ["queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    requests = None
    if args.workload == "queries":
        import queries

        requests = queries.generate(args.seed, QUERY_COUNT)

    with SpeedClock() as clock:
        t0 = clock.now()
        import schreier_kit as sk
        import schreier_kit.cli  # noqa: F401  (the CLI module is set-up too)
        setup = clock.now() - t0
    res: dict = {"setup_s": clock.seconds(setup)}
    if not args.setup_only:
        golden = _load_golden()
        tr = None
        if args.trace:
            from tracer import Tracer

            tr = Tracer(sk).install()
        try:
            if requests is None:
                res.update(_run_commands(sk, args.workload, golden))
            else:
                res.update(_run_queries(sk, requests))
        finally:
            if tr is not None:
                tr.uninstall()
        if tr is not None:
            res["layers"] = layer_metrics(tr, res["stdout_bytes"],
                                          golden["verify"]["cases"])
            res["trace"] = tr.dump()
        if requests is not None:
            _check_queries(sk, requests, res)
    import numpy

    res["numpy"] = numpy.__version__
    res["threads_env"] = os.environ.get("SCHREIER_KIT_THREADS")
    with open(args.out, "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
