#!/usr/bin/env python3
"""Run the full verification sweep and archive reports.

Convenience wrapper over the `sectormeans verify` machinery for the common
workflow: every suite at full trial volume, JSON + CSV side by side,
one directory per run.  Each suite runs once; both files are written from
the same report.

    python3 scripts/run_verification.py --seed 42 --trials 500 --out-dir runs/
"""

import argparse
import json
import pathlib
import sys
import time

from sectormeans import PreconditionError, RunConfig, run_suite
from sectormeans.cli import NODES_HELP, parse_dims, print_report, write_report

SUITES = ("r01", "r12", "rneg", "identities")


def parse_args(argv):
    run = RunConfig()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=run.seed)
    ap.add_argument("--trials", type=int, default=run.trials)
    ap.add_argument("--dims", type=parse_dims, default=(run.dim_min, run.dim_max), metavar="A..B")
    ap.add_argument("--nodes", type=int, default=run.nodes, help=NODES_HELP)
    ap.add_argument("--tol", type=float, default=run.tol)
    ap.add_argument("--out-dir", default="runs")
    args = ap.parse_args(argv)
    try:
        config = RunConfig(seed=args.seed, trials=args.trials, dim_min=args.dims[0],
                           dim_max=args.dims[1], nodes=args.nodes, tol=args.tol)
    except PreconditionError as exc:
        ap.error(str(exc))
    return args, config


def main(argv=None):
    args, config = parse_args(argv)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out_dir = pathlib.Path(args.out_dir) / f"verify-{stamp}-seed{args.seed}"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"precondition failed: cannot write {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    status = 0
    summaries = {}
    for suite in SUITES:
        report = run_suite(suite, config)
        print_report(report)
        for fmt in ("json", "csv"):
            write_report(report, fmt, str(out_dir / f"{suite}.{fmt}"))
        summaries[suite] = report.to_dict()["summary"]
        status = max(status, 0 if report.passed else 3)

    (out_dir / "summary.json").write_text(json.dumps(summaries, indent=2) + "\n")
    total_viol = sum(s["violations"] for s in summaries.values())
    print(f"\nwrote {out_dir}/  (total violations: {total_viol})")
    return status


if __name__ == "__main__":
    sys.exit(main())
