"""The schreier-kit benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload matrix --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each is there):

    matrix   compacta matrix K/w 14x14 with a PBM copy, then compacta inject
             L/w 13x13
    sweep    tree sweep --n 4 --support-max 9 --m-max 12 --seeds 30
    verify   verify --max 8 (all 26 suites, capped)
    queries  a seeded stream of single-answer requests; not listed in
             BENCHMARK.json (see bench/README.md)

Every pass runs in a fresh process (``bench/worker.py``) with
``SCHREIER_KIT_THREADS`` unset.  Passes repeat until ``--seconds`` have
gone by, at least one; each end-to-end metric is the median over the
passes.  Set-up is also timed in import-only processes, so that every run
has at least ``SETUP_SAMPLES`` set-up times to take the median of.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, with the tracing overhead.  Every pass checks its answers; the last
line of stdout is the result JSON, the line before it the run's metadata.
Everything a run writes goes under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
WORKLOADS = ("matrix", "sweep", "verify", "queries")
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170          # a run must end within 180 s
QUERY_FAILURES_SHOWN = 20


def _percentile(xs, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    s = sorted(xs)
    return s[max(1, math.ceil(q * len(s))) - 1]


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SCHREIER_KIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def _pass(args, trace: int, setup_only: bool, deadline: float, n: int) -> dict:
    out = os.path.join(OUT_DIR, f"pass-{args.workload}-{os.getpid()}-{n}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the pass started")
    proc = subprocess.run(cmd, env=_worker_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(out) as fh:
        res = json.load(fh)
    os.remove(out)
    res["trace_flag"] = trace
    return res


def _metadata(args, first: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    pkg = os.path.join("src", "schreier_kit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"machine": {"nproc": os.cpu_count(), "cpu_model": cpu,
                        "python": platform.python_version(),
                        "numpy": first.get("numpy"),
                        "SCHREIER_KIT_THREADS_seen":
                            os.environ.get("SCHREIER_KIT_THREADS"),
                        "SCHREIER_KIT_THREADS_in_workers":
                            first.get("threads_env")},
            "run": {"git_commit": commit, "src_sha256": src.hexdigest(),
                    "workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}}


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    setups = [_pass(args, 0, True, deadline, i)["setup_s"]
              for i in range(SETUP_SAMPLES)]
    passes = []
    started = time.monotonic()
    while True:
        trace = args.trace and len(passes) % 2 == 1
        passes.append(_pass(args, int(trace), False, deadline, len(passes)))
        enough = time.monotonic() - started >= args.seconds
        if enough and (not args.trace or len(passes) % 2 == 0):
            break
    plain = [p for p in passes if not p["trace_flag"]]
    traced = [p for p in passes if p["trace_flag"]]
    setups += [p["setup_s"] for p in plain]

    problems = [msg for p in passes for msg in p["problems"]]
    digests = {json.dumps(p["digests"]) for p in passes}
    if len(digests) != 1:
        problems.append("traced and untraced passes printed different bytes")
    attempted = sum(p["attempted"] for p in plain)
    failed = sum(p["failed"] for p in plain)
    meta = _metadata(args, passes[0])
    meta["samples"] = {"setup_s": len(setups), "passes": len(plain),
                       "traced_passes": len(traced)}
    meta["passes"] = [{k: p[k] for k in ("trace_flag", "setup_s", "wall_s",
                                         "raw_wall_s", "probe_median_ns")}
                      for p in passes]
    if args.trace:
        metrics = layer_metrics(plain, traced)
    else:
        metrics = end_to_end_metrics(setups, plain)
    meta["counts"] = {"attempted": attempted, "failed": failed}
    if args.workload == "queries":
        lat = [x * 1e3 for p in plain for x in p["latencies_s"]]
        p99 = _percentile(lat, 0.99)
        if not args.trace:
            metrics["query_p50_ms"] = {"value": _percentile(lat, 0.50),
                                       "unit": "ms"}
            metrics["query_p99_ms"] = {"value": p99, "unit": "ms"}
        meta["queries"] = {
            "latency_samples": len(lat),
            "samples_beyond_p99": sum(1 for x in lat if x > p99),
            "refused": sum(p["refused"] for p in plain),
            "mismatches": [m for p in plain for m in p["mismatches"]]
            [:QUERY_FAILURES_SHOWN]}
    meta["problems"] = problems
    if traced:
        meta["trace_file"] = _write_trace(args, traced)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return meta, result


def end_to_end_metrics(setups: list, plain: list) -> dict:
    """The ``--trace 0`` metrics from set-up times and untraced passes."""
    attempted = sum(p["attempted"] for p in plain)
    failed = sum(p["failed"] for p in plain)
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "wall_s": {"value": median([p["wall_s"] for p in plain]), "unit": "s"},
        "peak_rss_mb": {"value": median([p["peak_rss_mb"] for p in plain]),
                        "unit": "MB"},
        "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }


def _unit(name: str) -> str:
    if name.endswith("_s") or ".suite_s." in name:
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def layer_metrics(plain: list, traced: list) -> dict:
    """The ``--trace 1`` metrics: per layer, the median over traced passes,
    and the tracing overhead against the untraced passes."""
    metrics = {name: {"value": median([p["layers"][name] for p in traced]),
                      "unit": _unit(name)}
               for name in traced[0]["layers"]}
    untraced = median([p["wall_s"] for p in plain])
    with_trace = median([p["wall_s"] for p in traced])
    for name, value in (("trace.overhead_frac", with_trace / untraced - 1),
                        ("trace.untraced_wall_s", untraced),
                        ("trace.traced_wall_s", with_trace)):
        metrics[name] = {"value": value, "unit": _unit(name)}
    return metrics


def _write_trace(args, traced: list) -> str:
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump([{"wall_s": p["wall_s"], "layers": p["layers"],
                    "trace": p["trace"]} for p in traced], fh, indent=1)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="schreier-kit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "schreier_kit", "__init__.py")):
        print("error: run from the root of a schreier-kit checkout "
              "(src/schreier_kit not found)", file=sys.stderr)
        return 2
    try:
        meta, result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
