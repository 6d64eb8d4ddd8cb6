"""Randomized verification driver.

Every trial is reproducible from (master seed, check id, trial index,
attempt index 0) through a SHA-256 seed derivation, so a reported seed can
be replayed in isolation.  Sampled instances meet their hypotheses by
construction (a sectorial draw carries its angle in closed form), and every
quadrature route sizes its own rule within the node budget
`RunConfig.nodes`, so each trial is evaluated once and has one outcome:
its margins, or the exception it raised (NodeBudgetError past the budget,
RadiusCertificateError, an ill-conditioned eigenbasis, a LAPACK failure).
An exception is never redrawn: the trial is recorded under the check's
`errors` with its seed and reason while the suite runs on, and a suite with
errors does not pass.  A run and a replay go through the same per-trial
function, so a replayed seed ends as its trial did.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .checks import (
    Check,
    EvalContext,
    Instance,
    TrialEval,
    check_by_id,
    suite_checks,
)
from .linalg import PreconditionError
from .maps import MAP_KINDS, random_map
from .norms import NORM_KINDS
from .quadrature import MAX_NODES, require_node_count
from .sectors import (
    MAX_DIM,
    _accretive,
    _pd,
    _sectorial,
    derive_seed,
)

__all__ = [
    "RunConfig",
    "CheckResult",
    "SuiteReport",
    "sample_instance",
    "run_check",
    "run_suite",
    "replay_trial",
]

R_EDGE_GAP = 0.05  # sampled r stays this far inside each open interval


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    trials: int = 500
    dim_min: int = 2
    dim_max: int = 8
    nodes: int = MAX_NODES  # the most nodes a quadrature route may use
    tol: float = 1e-8
    r_override: Optional[float] = None
    alphas: tuple[float, ...] = (0.1, 0.4, 0.8, 1.2)
    force_pd: bool = False

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise PreconditionError(f"trials must be >= 1, got {self.trials}")
        if not 1 <= self.dim_min <= self.dim_max <= MAX_DIM:
            raise PreconditionError(
                f"need 1 <= dim_min <= dim_max <= {MAX_DIM}, got {self.dim_min}..{self.dim_max}"
            )
        require_node_count(self.nodes)
        if not 0.0 < self.tol < math.inf:
            raise PreconditionError(f"tol must be positive and finite, got {self.tol}")
        if not self.alphas or not all(0.0 <= a < math.pi / 2 for a in self.alphas):
            raise PreconditionError(f"alphas must lie in [0, pi/2), got {self.alphas}")


@dataclass
class CheckResult:
    id: str
    name: str
    paper_anchor: str
    trials: int
    violations: int
    worst_margin: Optional[float]
    worst_seed: Optional[int]
    worst_trial: Optional[int]
    worst_margin_strict: Optional[float]
    sampler_failures: int  # always 0: no trial is redrawn; kept for report readers
    informational: bool
    runtime_s: float
    # trials that raised: {"trial", "seed", "reason"} each
    errors: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SuiteReport:
    suite: str
    seed: int
    config: RunConfig
    checks: list[CheckResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def violations(self) -> int:
        return sum(c.violations for c in self.checks if not c.informational)

    @property
    def sampler_failures(self) -> int:
        return sum(c.sampler_failures for c in self.checks if not c.informational)

    @property
    def errors(self) -> int:
        return sum(len(c.errors) for c in self.checks if not c.informational)

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.errors == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "config": asdict(self.config),
            "checks": [c.to_dict() for c in self.checks],
            "summary": {
                "checks": len(self.checks),
                "violations": self.violations,
                "sampler_failures": self.sampler_failures,
                "errors": self.errors,
                "passed": self.passed,
                "elapsed_s": self.elapsed_s,
            },
        }


def _sample_r(check: Check, config: RunConfig, rng: np.random.Generator, trial: int) -> Optional[float]:
    if not check.r_intervals:
        return None
    if config.r_override is not None:
        return float(config.r_override)
    lo, hi = check.r_intervals[trial % len(check.r_intervals)]
    return float(rng.uniform(lo + R_EDGE_GAP, hi - R_EDGE_GAP))


def sample_instance(check: Check, config: RunConfig, seed: int, trial: int) -> Instance:
    """Draw one instance for a check.

    The rng consumption order is fixed (dim, alpha, r, matrices, map, norm,
    aux) so that a seed fully determines the instance.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(config.dim_min, config.dim_max + 1))
    classes = tuple("pd" if config.force_pd else c for c in check.args)
    needs_alpha = any(c == "sectorial" for c in classes)
    alpha = float(rng.choice(np.asarray(config.alphas))) if needs_alpha else 0.0
    r = _sample_r(check, config, rng, trial)

    mats: list[np.ndarray] = []
    realized = 0.0
    for cls in classes:
        if cls in ("pd", "accretive"):
            M = _pd(dim, rng) if cls == "pd" else _accretive(dim, rng)
        else:
            cert = _sectorial(dim, alpha, rng)
            M = cert.matrix
            realized = max(realized, cert.angle)
        mats.append(M)

    phi = None
    norm_kind = None
    norm_k = None
    if check.uses_map:
        phi = random_map(MAP_KINDS[trial % len(MAP_KINDS)], dim, rng)
    if check.uses_norm:
        norm_kind = NORM_KINDS[(trial // len(MAP_KINDS)) % len(NORM_KINDS)]
        norm_dim = phi.out_dim if phi is not None else dim
        norm_k = int(rng.integers(1, norm_dim + 1)) if norm_kind == "kyfan" else None
    aux = tuple(float(x) for x in rng.uniform(0.01, 0.99, size=check.n_aux_uniform))

    return Instance(
        dim=dim,
        seed=seed,
        trial=trial,
        A=mats[0],
        B=mats[1] if len(mats) > 1 else None,
        r=r,
        alpha=alpha,
        alpha_realized=realized if needs_alpha else alpha,
        phi=phi,
        norm_kind=norm_kind,
        norm_k=norm_k,
        aux=aux,
    )


def _violated(ev: TrialEval, tol: float) -> bool:
    if math.isnan(ev.margin):
        return True
    return ev.margin < -tol * ev.scale


def _run_one_trial(
    check: Check,
    config: RunConfig,
    master_seed: int,
    trial: int,
    flip: bool,
) -> dict:
    """Evaluate one trial once: its instance and margins, or its error as
    {"trial", "seed", "reason"}.  A run and a replay share this record.
    """
    seed = derive_seed(master_seed, check.id, trial, 0)
    try:
        inst = sample_instance(check, config, seed, trial)
        ev = check.evaluate(inst, EvalContext(nodes=config.nodes), flip)
    except Exception as exc:
        return {"trial": trial, "seed": seed, "reason": f"{type(exc).__name__}: {exc}"}
    return {
        "trial": trial,
        "seed": seed,
        "dim": inst.dim,
        "r": inst.r,
        "alpha": inst.alpha,
        "alpha_realized": inst.alpha_realized,
        "margin": ev.margin,
        "scale": ev.scale,
        "margin_strict": ev.margin_strict,
        "violated": _violated(ev, config.tol),
    }


def _admit(check: Check, config: RunConfig, mutate: Optional[str]) -> bool:
    """Refuse a run of the check that cannot start, and return whether it flips.

    A run is refused for an unknown mutation, a flip of an identity, or an
    `r_override` outside every admissible interval of the check.
    """
    if mutate not in (None, "flip"):
        raise PreconditionError(f"unknown mutation {mutate!r}; only 'flip' is supported")
    flip = mutate == "flip"
    if flip and check.is_identity:
        raise PreconditionError(f"direction flip is undefined for identity check {check.id}")
    r0 = config.r_override
    if r0 is not None and check.r_intervals and not any(
        lo < r0 < hi for lo, hi in check.r_intervals
    ):
        intervals = " or ".join(f"({lo}, {hi})" for lo, hi in check.r_intervals)
        raise PreconditionError(
            f"r={r0} lies outside the admissible interval(s) {intervals} of {check.id}"
        )
    return flip


def run_check(
    check: Check,
    config: RunConfig,
    master_seed: Optional[int] = None,
    mutate: Optional[str] = None,
) -> CheckResult:
    """Run all trials of one check and aggregate the worst margin.

    mutate="flip" negates the claimed inequality direction; a healthy
    sampler must then produce violations, which is how the harness proves
    it can detect a false claim.
    """
    flip = _admit(check, config, mutate)
    seed = config.seed if master_seed is None else master_seed

    start = time.perf_counter()
    records = [_run_one_trial(check, config, seed, t, flip) for t in range(config.trials)]
    runtime = time.perf_counter() - start

    errors = [rec for rec in records if "reason" in rec]
    completed = [rec for rec in records if "reason" not in rec]
    violations = sum(1 for rec in completed if rec["violated"])

    def margin_key(rec: dict) -> float:
        return -math.inf if math.isnan(rec["margin"]) else rec["margin"]

    # completed is in trial order, and min() keeps the first minimizer, so
    # ties resolve to the earliest trial deterministically.
    worst = min(completed, key=margin_key, default=None)
    strict_values = [margin_key({"margin": rec["margin_strict"]}) for rec in completed]
    return CheckResult(
        id=check.id,
        name=check.name,
        paper_anchor=check.anchor,
        trials=config.trials,
        violations=violations,
        worst_margin=None if worst is None else margin_key(worst),
        worst_seed=None if worst is None else worst["seed"],
        worst_trial=None if worst is None else worst["trial"],
        worst_margin_strict=min(strict_values) if strict_values else None,
        sampler_failures=0,
        informational=check.informational,
        runtime_s=runtime,
        errors=errors,
    )


def run_suite(
    suite: str,
    config: RunConfig,
    check_id: Optional[str] = None,
    mutate: Optional[str] = None,
) -> SuiteReport:
    """Run a named suite (or a single check restricted from it)."""
    selected = suite_checks(suite)
    if check_id is not None:
        selected = [c for c in selected if c.id == check_id]
        if not selected:
            raise PreconditionError(f"check {check_id!r} is not part of suite {suite!r}")
    for check in selected:  # refuse before the first trial, not at the check
        _admit(check, config, mutate)
    report = SuiteReport(suite=suite, seed=config.seed, config=config)
    start = time.perf_counter()
    for check in selected:
        report.checks.append(run_check(check, config, mutate=mutate))
    report.elapsed_s = time.perf_counter() - start
    return report


def replay_trial(check_id: str, seed: int, config: RunConfig) -> dict:
    """Re-evaluate the single trial behind a reported seed.

    The trial index is recovered from the master configuration, so the
    replay sees exactly the r-interval and map/norm rotation the trial saw.
    Returns the run's own record of that trial plus "check": its margins,
    or the "reason" of the error it raised.
    """
    check = check_by_id(check_id)
    _admit(check, config, None)
    trial = next(
        (t for t in range(config.trials) if derive_seed(config.seed, check.id, t, 0) == seed),
        None,
    )
    if trial is None:
        raise PreconditionError(
            f"seed {seed} was not derived from master seed {config.seed} for check "
            f"{check_id} within {config.trials} trials; pass the original --seed/--trials"
        )
    return {"check": check.id, **_run_one_trial(check, config, config.seed, trial, False)}
