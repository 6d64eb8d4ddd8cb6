"""Benchmark for sectormeans: verification sweeps and compute calls.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-all --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout. With ``--trace 0``
the run measures the end-to-end metrics with tracing off; with
``--trace 1`` it runs the same rounds twice, untraced and traced, and
reports the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: the runner's own thread pool already uses both cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("SECTORMEANS_THREADS", None)  # run the program at its defaults

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import workloads
from tracing import TRACED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_TAIL_SAMPLES = 10  # samples beyond op_p95_ms
# whole traced rounds per workload in a --trace 1 run
TRACE_ROUNDS = {"sweep-all": 8, "sweep-noradius": 16, "sweep-flip": 10, "compute-calls": 4}


def load_package():
    if not (SRC / "sectormeans" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sectormeans package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import sectormeans
    import sectormeans.cli

    if Path(sectormeans.__file__).resolve().parent != SRC / "sectormeans":
        sys.exit(f"perfbench: imported sectormeans from {sectormeans.__file__}, not from {SRC}")
    warnings.simplefilter("ignore", sectormeans.NonAccretiveWarning)
    return sectormeans


def environment() -> str:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SECTORMEANS_THREADS")}
    return (f"nproc={os.cpu_count()} blas={blas.get('name')} {blas.get('version')} "
            f"python={sys.version.split()[0]} numpy={np.__version__} scipy={scipy.__version__} "
            f"threads={threads}")


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing the package and the CLI."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sectormeans, sectormeans.cli"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
    )
    return time.perf_counter() - start


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(work, seconds: float, verdict) -> tuple[dict, int]:
    """Whole rounds until `seconds` of op time and enough tail samples.

    The SETUP_REPEATS fresh-interpreter imports are spread evenly over the
    run, between rounds, so their median does not rest on one stretch of
    machine speed.
    """
    durations: list[float] = []
    setups: list[float] = []
    elapsed = 0.0
    k = 0
    while elapsed < seconds or len(durations) < 20 * MIN_TAIL_SAMPLES:
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(measure_setup())
        ops = work.ops(k)
        workloads.run_round(ops)
        durations += [op.seconds for op in ops]
        elapsed += sum(op.seconds for op in ops)
        work.verify_round(ops, k, verdict)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup())
    p50, p95 = np.percentile(durations, [50, 95])
    beyond = sum(1 for d in durations if d > p95)
    print(f"{work.name}: {k} rounds, {len(durations)} ops in {elapsed:.2f} s, "
          f"{beyond} ops beyond p95", file=sys.stderr)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(len(durations) / elapsed, "1/s"),
        "op_p50_ms": metric(1e3 * float(p50), "ms"),
        "op_p95_ms": metric(1e3 * float(p95), "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }, len(durations)


def run_traced(work, sm, rounds: int, verdict) -> tuple[dict, int]:
    tracer = Tracer(work.refine_nodes)
    cache = sm.means._cached_rule
    walls = {False: 0.0, True: 0.0}
    hits = misses = 0
    attempted = trials = 0
    for k in range(rounds):
        for traced in (False, True):
            ops = work.ops(k)
            cache.cache_clear()  # both passes of a round start from the same cache
            if traced:
                tracer.install(work.checks)
            try:
                workloads.run_round(ops)
            finally:
                tracer.uninstall()
            walls[traced] += sum(op.seconds for op in ops)
            if traced:
                info = cache.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
                attempted += len(ops)
                trials += work.trials_completed(ops)
                work.verify_round(ops, k, verdict)
    totals = tracer.totals()  # (calls, self_s, total_s); zeros for names never called
    out = {}
    for mod, fn, report_calls in TRACED:
        name = f"{mod}.{fn}"
        if report_calls:
            out[f"{name}.calls"] = metric(totals[name][0], "count")
        out[f"{name}.self_s"] = metric(totals[name][1], "s")
    out["means.rule_cache.hit_ratio"] = metric(hits / (hits + misses) if hits + misses else 0.0, "ratio")
    draws = totals["runner.sample_instance"][0]
    out["runner.trials_per_draw"] = metric(trials / draws if draws else 0.0, "ratio")
    out["runner.refine.evals"] = metric(totals["runner.refine"][0], "count")
    for check in sm.catalog() + sm.informational_catalog():
        out[f"checks.{check.id}.busy_s"] = metric(totals[f"checks.{check.id}"][2], "s")
    out["trace.overhead_ratio"] = metric(walls[True] / walls[False], "ratio")
    return out, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    sm = load_package()
    workdir = ROOT / "perfbench" / "work" / f"run-{os.getpid()}"
    work = workloads.make(ns.workload, ns.seed, sm, workdir)
    verdict = workloads.Verdict()
    try:
        work.prepare()
        if ns.trace:
            metrics, attempted = run_traced(work, sm, TRACE_ROUNDS[ns.workload], verdict)
        else:
            metrics, attempted = run_timed(work, ns.seconds, verdict)
    finally:
        work.cleanup()
    for line in [environment(), *work.summary()]:
        print(line, file=sys.stderr)
    for line in verdict.unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not verdict.unexpected,
        "attempted": attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
