"""The four workloads: three verification sweeps and one-off compute calls.

A workload is a sequence of rounds; every round runs the same list of
operations on fresh inputs derived from the workload seed, so any number of
whole rounds has the same mix of operations (and the same share of known
failures). `run_round` times each operation; `verify_round` checks the
outputs afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import references as ref

# Checks whose evaluators call norms.numerical_radius.
RADIUS_CHECKS = frozenset({"C04", "C05", "C16", "C23", "X23"})
SWEEP_CHUNK = 10  # trials per run_check call
REPLAY_TOL = 1e-12

COMPUTE_DIMS = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
BANDS = ("well", "ill")
# r intervals per branch. They keep away from -1, 0, 1 and 2, where the
# integral route's ill-band error falls towards the 1e-8 tolerance.
R_BRANCHES = ((-0.9, -0.1), (0.1, 0.9), (1.1, 1.5))
# (op label, [compute subcommand, *options]); the matrix paths follow the
# subcommand on the command line
COMPUTE_OPS = (
    ("power-quad", ["power"]),
    ("power-eigen", ["power", "--engine", "eigen"]),
    ("mean-integral", ["mean"]),
    ("mean-quad", ["mean", "--engine", "quad"]),
    ("mean-eigen", ["mean", "--engine", "eigen"]),
    ("sector", ["sector"]),
    ("wradius", ["wradius"]),
    ("norm", ["norm"]),
)
# 80-node Gauss-Jacobi on an uncentred spectrum: these routes return wrong
# digits without a warning on the ill band
KNOWN_FAULTS = frozenset({("ill", "power-quad"), ("ill", "mean-integral"), ("ill", "mean-quad")})


@dataclass
class Op:
    label: str
    call: object  # zero-argument callable
    meta: dict = field(default_factory=dict)
    seconds: float = 0.0
    output: object = None
    error: str | None = None


def run_round(ops: list[Op]) -> None:
    for op in ops:
        start = time.perf_counter()
        try:
            op.output = op.call()
        except Exception as exc:  # an op that raises is counted as failed
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - start


@dataclass
class Verdict:
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)

    def fail(self, what: str, expected: bool = False) -> None:
        self.failed += 1
        if not expected:
            self.unexpected.append(what)


# ---------------------------------------------------------------------------
# sweeps


class Sweep:
    """One op is one run_check call over SWEEP_CHUNK trials at the c4 shape."""

    def __init__(self, name: str, seed: int, sm):
        self.name, self.seed, self.sm = name, seed, sm
        checks = sm.catalog() + sm.informational_catalog()
        self.mutate = None
        if name == "sweep-noradius":
            checks = [c for c in checks if c.id not in RADIUS_CHECKS]
        elif name == "sweep-flip":
            checks = [
                c for c in checks
                if c.kind != "identity" and not c.informational and c.id not in RADIUS_CHECKS
            ]
            self.mutate = "flip"
        self.checks = checks
        self.config = sm.RunConfig(trials=SWEEP_CHUNK)
        self.refine_nodes = 2 * self.config.nodes

    def prepare(self) -> None:
        pass

    def cleanup(self) -> None:
        pass

    def ops(self, k: int) -> list[Op]:
        runner = self.sm.runner
        master = ref.derive(self.seed, self.name, k)
        out = []
        for check in self.checks:

            def call(check=check, master=master):
                return runner.run_check(check, self.config, master_seed=master, mutate=self.mutate)

            out.append(Op(check.id, call, {"master": master}))
        return out

    def verify_round(self, ops: list[Op], k: int, verdict: Verdict) -> None:
        for op in ops:
            res = op.output
            if op.error is not None:
                verdict.fail(f"{op.label} round {k}: {op.error}")
                continue
            problems = []
            if res.trials != SWEEP_CHUNK or res.sampler_failures != 0:
                problems.append(f"trials={res.trials} sampler_failures={res.sampler_failures}")
            if res.worst_margin is None or not math.isfinite(res.worst_margin):
                problems.append(f"worst_margin={res.worst_margin}")
            if self.mutate == "flip":
                if res.violations < 1:
                    problems.append("flipped claim produced no violation")
            elif res.violations and not res.informational:
                problems.append(f"{res.violations} violations")
            if k == 0 and self.mutate is None and not problems:
                problems += self._replay(op, res)
            if problems:
                verdict.fail(f"{op.label} round {k}: {'; '.join(problems)}")

    def _replay(self, op: Op, res) -> list[str]:
        config = self.sm.RunConfig(seed=op.meta["master"], trials=SWEEP_CHUNK)
        again = self.sm.replay_trial(op.label, res.worst_seed, config)
        gap = abs(again["margin"] - res.worst_margin)
        if again["trial"] != res.worst_trial or gap > REPLAY_TOL * max(1.0, abs(res.worst_margin)):
            return [f"replay gives trial {again['trial']} margin {again['margin']!r}, "
                    f"run gave trial {res.worst_trial} margin {res.worst_margin!r}"]
        return []

    def trials_completed(self, ops: list[Op]) -> int:
        return sum(op.output.trials - op.output.sampler_failures for op in ops if op.error is None)

    def summary(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# compute calls


def write_matrix(M: np.ndarray, path: Path) -> None:
    data = [[[float(z.real), float(z.imag)] for z in row] for row in M]
    path.write_text(json.dumps({"n": len(M), "data": data}) + "\n", encoding="utf-8")


def read_matrix(text: str) -> np.ndarray:
    obj = json.loads(text)
    arr = np.asarray(obj["data"], dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


class Compute:
    """One op is one `sectormeans compute` call through cli.main."""

    name = "compute-calls"
    checks = ()
    refine_nodes = None

    def __init__(self, seed: int, sm, workdir: Path):
        self.seed, self.sm, self.workdir = seed, sm, workdir
        self.cases = []
        self.errors: dict[tuple[str, str], list[float]] = {}  # (band, op) -> [min, max]

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for band in BANDS:
            for n in COMPUTE_DIMS:
                rng = np.random.default_rng(ref.derive(self.seed, self.name, band, n))
                A = ref.band_matrix(band, n, rng)
                B = ref.well_matrix(n, rng)
                a_path, b_path = self.workdir / f"{band}-{n}-a.json", self.workdir / f"{band}-{n}-b.json"
                write_matrix(A, a_path)  # float repr round-trips, so the
                write_matrix(B, b_path)  # program parses exactly A and B
                self.cases.append({
                    "band": band, "n": n, "A": A, "B": B,
                    "a": str(a_path), "b": str(b_path),
                    "sector": ref.ref_sector(A),
                    "wradius": ref.ref_wradius_bounds(A),
                    "norm": ref.ref_norms(A),
                })

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            self.workdir.parent.rmdir()

    def ops(self, k: int) -> list[Op]:
        cli = self.sm.cli
        out = []
        for i, case in enumerate(self.cases):
            rng = np.random.default_rng(ref.derive(self.seed, self.name, "r", k, i))
            r_power = rng.uniform(*R_BRANCHES[(k + i) % 3])
            r_mean = rng.uniform(*R_BRANCHES[(k + i + 1) % 3])
            for label, args in COMPUTE_OPS:
                sub, rest = args[0], args[1:]
                paths = [case["a"], case["b"]] if sub == "mean" else [case["a"]]
                r = r_power if sub == "power" else r_mean
                argv = ["compute", sub, *paths, *rest]
                if sub in ("power", "mean"):
                    argv += ["--r", repr(r)]

                def call(argv=argv):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(argv)
                    return code, buf.getvalue()

                out.append(Op(label, call, {"case": case, "r": r}))
        return out

    def verify_round(self, ops: list[Op], k: int, verdict: Verdict) -> None:
        refs: dict = {}
        for op in ops:
            case = op.meta["case"]
            known = (case["band"], op.label) in KNOWN_FAULTS
            what = f"{op.label} {case['band']} n={case['n']} round {k}"
            if op.error is not None:
                verdict.fail(f"{what}: {op.error}", known)
                continue
            code, text = op.output
            if code != 0:
                verdict.fail(f"{what}: exit code {code}", known)
                continue
            try:
                err = self.error(op, text, refs)
            except (ValueError, KeyError, TypeError) as exc:  # malformed output
                verdict.fail(f"{what}: unreadable output ({exc})", known)
                continue
            seen = self.errors.setdefault((case["band"], op.label), [err, err])
            seen[0], seen[1] = min(seen[0], err), max(seen[1], err)
            if not err <= ref.TOL:
                verdict.fail(f"{what}: error {err:.2e}", known)

    @staticmethod
    def error(op: Op, text: str, refs: dict) -> float:
        case, r = op.meta["case"], op.meta["r"]
        if op.label.startswith(("power", "mean")):
            kind = op.label.split("-")[0]
            key = (kind, case["band"], case["n"])
            if key not in refs:
                refs[key] = (ref.ref_power(case["A"], r) if kind == "power"
                             else ref.ref_mean(case["A"], case["B"], r))
            return ref.matrix_error(read_matrix(text), refs[key])
        if op.label == "sector":
            return ref.scalar_error(float(text), case["sector"])
        if op.label == "wradius":
            return ref.wradius_error(float(text), case["wradius"])
        return ref.norms_error(json.loads(text), case["norm"])

    def trials_completed(self, ops: list[Op]) -> int:
        return 0

    def summary(self) -> list[str]:
        return [f"error {band:4s} {label:13s} {lo:.1e} .. {hi:.1e}"
                for (band, label), (lo, hi) in sorted(self.errors.items())]


def make(name: str, seed: int, sm, workdir: Path):
    if name == "compute-calls":
        return Compute(seed, sm, workdir)
    return Sweep(name, seed, sm)


WORKLOADS = ("sweep-all", "sweep-noradius", "sweep-flip", "compute-calls")
