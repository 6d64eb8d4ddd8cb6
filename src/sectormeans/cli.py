"""Command-line front end.

Two command families:

  sectormeans compute {power,mean,sector,wradius,norm} ...
  sectormeans verify {all,r01,r12,rneg,identities} ...

Exit codes: 0 success, 1 usage error, 2 precondition failure (bad input
matrix, a report path that cannot be written, an --r outside a check's
intervals, hypothesis violation, or a result that fails its certificate,
such as a numerical radius outside ||A||/2 <= w <= ||A||), 3 verification
failure (a check reported violations, or a trial raised an error, such as
needing more quadrature nodes than the budget).  A replayed trial exits as
its run did: 3 when it was violated or raised an error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import os
import re
import sys
import warnings
from typing import Optional, Sequence

from .checks import SUITE_NAMES, suite_checks
from .linalg import PreconditionError
from .matrixio import dumps_matrix, parse_matrix
from .means import ENGINES, geometric_mean, principal_power
from .norms import norm_table, numerical_radius
from .runner import RunConfig, SuiteReport, replay_trial, run_suite
from .sectors import is_accretive, sector_angle

__all__ = ["main", "entrypoint", "parse_dims", "print_report", "write_report"]

NODES_HELP = (
    "node budget: the most Gauss-Jacobi nodes a quadrature route may use "
    "(default %(default)s); a trial that needs more is recorded as an error "
    "and fails the run (exit 3)"
)
CSV_HEADER = ["check_id", "paper_anchor", "trials", "violations", "worst_margin", "worst_seed"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def parse_dims(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if m:
        return int(m.group(1)), int(m.group(2))
    if text.isdigit():
        return int(text), int(text)
    raise argparse.ArgumentTypeError(f"expected A..B (e.g. 2..8), got {text!r}")


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by every later
    `main` call in the process; parsing keeps no state on it."""
    parser = _Parser(prog="sectormeans", description=__doc__.splitlines()[0])
    run = RunConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="evaluate one operation on matrix files")
    comp_sub = comp.add_subparsers(dest="op", required=True)

    p_power = comp_sub.add_parser("power", help="principal fractional power A^r")
    p_power.add_argument("matrix", help="path to the input matrix json")
    p_power.add_argument("--r", type=float, required=True, help="exponent in (-1,2)")
    p_power.add_argument("--engine", choices=ENGINES, default="quad")

    p_mean = comp_sub.add_parser("mean", help="weighted geometric mean A #_r B")
    p_mean.add_argument("matrix", help="path to the first matrix json")
    p_mean.add_argument("matrix_b", help="path to the second matrix json")
    p_mean.add_argument("--r", type=float, required=True, help="weight in (-1,2)")
    p_mean.add_argument(
        "--engine",
        choices=ENGINES,
        default="quad",
        help="quad: direct branch integral; eigen: congruence route",
    )

    p_sector = comp_sub.add_parser("sector", help="smallest sector angle containing W(A)")
    p_sector.add_argument("matrix")

    p_wrad = comp_sub.add_parser("wradius", help="numerical radius w(A)")
    p_wrad.add_argument("matrix")

    p_norm = comp_sub.add_parser("norm", help="unitarily invariant norms of A")
    p_norm.add_argument("matrix")

    ver = sub.add_parser("verify", help="run a randomized verification suite")
    ver.add_argument("suite", choices=SUITE_NAMES)
    ver.add_argument("--seed", type=int, default=run.seed)
    ver.add_argument("--trials", type=int, default=run.trials)
    ver.add_argument("--dims", type=parse_dims, default=(run.dim_min, run.dim_max), metavar="A..B")
    ver.add_argument("--nodes", type=int, default=run.nodes, help=NODES_HELP)
    ver.add_argument("--tol", type=float, default=run.tol)
    ver.add_argument("--format", choices=("json", "csv"), default="json")
    ver.add_argument("--r", type=float, default=None, help="fix the mean order for all checks")
    ver.add_argument("--check", default=None, metavar="ID", help="restrict to one catalog entry")
    ver.add_argument("--replay", type=int, default=None, metavar="SEED",
                     help="re-evaluate the trial behind a reported worst seed (needs --check)")
    ver.add_argument("--pd", action="store_true",
                     help="replace all hypothesis classes by positive definite (alpha = 0 probe)")
    ver.add_argument("--out", default=None, help="report path (default verify_report.<format>)")
    return parser


def _cmd_compute(ns: argparse.Namespace) -> int:
    A = parse_matrix(ns.matrix)
    if ns.op == "power":
        # the library powers any input whose spectrum avoids the cut; the CLI
        # refuses a non-accretive one
        ok, margin = is_accretive(A)
        if not ok:
            raise PreconditionError(
                "power input must be accretive (Hermitian real part positive definite); "
                f"lambda_min(Re) = {margin:.3e}"
            )
        out = principal_power(A, ns.r, engine=ns.engine)
        print(dumps_matrix(out))
        return 0
    if ns.op == "mean":
        B = parse_matrix(ns.matrix_b)
        out = geometric_mean(A, B, ns.r, engine=ns.engine)
        print(dumps_matrix(out))
        return 0
    if ns.op == "sector":
        print(f"{sector_angle(A):.12f}")
        return 0
    if ns.op == "wradius":
        print(f"{numerical_radius(A):.12f}")
        return 0
    if ns.op == "norm":
        print(json.dumps(norm_table(A)))
        return 0
    raise UsageError(f"unknown compute op {ns.op!r}")


def _check_writable(path: str) -> None:
    """Refuse a report path that is a directory, or whose directory is missing
    or not writable, so a run does not end in a report it cannot write."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise PreconditionError(f"cannot write {path}: {os.strerror(code)}")


def write_report(report: SuiteReport, fmt: str, path: str) -> None:
    """Write a suite report as JSON or as the documented CSV columns."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for c in report.checks:
            writer.writerow([c.id, c.paper_anchor, c.trials, c.violations, c.worst_margin, c.worst_seed])


def print_report(report: SuiteReport) -> None:
    """Print one line per check, then the suite verdict."""
    for c in report.checks:
        tag = " (informational)" if c.informational else ""
        worst = "n/a" if c.worst_margin is None else f"{c.worst_margin:+.3e}"
        errors = f"  errors={len(c.errors)}" if c.errors else ""
        line = (
            f"{c.id:>4}  {c.name:<24} trials={c.trials}  violations={c.violations}  "
            f"worst_margin={worst}  sampler_failures={c.sampler_failures}{errors}{tag}"
        )
        print(line)
        for err in c.errors:
            print(f"      trial {err['trial']} seed {err['seed']}: {err['reason']}")
    verdict = "PASS" if report.passed else "FAIL"
    errors = f"{report.errors} errors, " if report.errors else ""
    print(
        f"suite {report.suite}: {len(report.checks)} checks, {report.violations} violations, "
        f"{report.sampler_failures} sampler failures, {errors}{report.elapsed_s:.1f}s -> {verdict}"
    )


def _cmd_verify(ns: argparse.Namespace) -> int:
    valid_ids = [c.id for c in suite_checks(ns.suite)]
    if ns.check is not None and ns.check not in valid_ids:
        print(
            f"unknown check {ns.check!r} for suite {ns.suite!r}; valid ids: {', '.join(valid_ids)}",
            file=sys.stderr,
        )
        return 1
    dim_min, dim_max = ns.dims
    config = RunConfig(
        seed=ns.seed,
        trials=ns.trials,
        dim_min=dim_min,
        dim_max=dim_max,
        nodes=ns.nodes,
        tol=ns.tol,
        r_override=ns.r,
        force_pd=ns.pd,
    )

    if ns.replay is not None:
        if ns.check is None:
            raise UsageError("--replay requires --check to name the catalog entry")
        result = replay_trial(ns.check, ns.replay, config)
        if "reason" in result:
            print(f"trial error: {result['reason']}", file=sys.stderr)
            return 3
        print(json.dumps(result, indent=2))
        return 3 if result["violated"] else 0

    out_path = ns.out or f"verify_report.{ns.format}"
    _check_writable(out_path)
    report = run_suite(ns.suite, config, check_id=ns.check)
    print_report(report)
    try:
        write_report(report, ns.format, out_path)
    except OSError as exc:
        raise PreconditionError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    print(f"report written to {out_path}")
    return 0 if report.passed else 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command == "compute":
            # a warning (such as NumPy's overflow in power) prints as one stable line
            with warnings.catch_warnings():
                warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
                return _cmd_compute(ns)
        return _cmd_verify(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
