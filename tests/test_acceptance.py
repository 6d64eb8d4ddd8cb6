"""Top-level acceptance gate.

Nine criteria, each with a pinned tolerance and a single PASS/FAIL verdict
line (echoed in the terminal summary).  These run at full scale, unlike the
reduced-volume module tests; expect this file to dominate suite runtime.
"""

import json
import time

import numpy as np
import pytest

from sectormeans import (
    EvalContext,
    RunConfig,
    check_by_id,
    derive_seed,
    gen_accretive,
    geometric_mean,
    geometric_mean_integral,
    numerical_radius,
    principal_power_eigen,
    principal_power_quad,
    quadrature_rule,
    run_check,
    run_suite,
    sample_instance,
)
from sectormeans.cli import main

from conftest import ACCEPTANCE_VERDICTS, load_script, rel_err

R_GRID = (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
FUZZ_ALPHAS = (0.1, 0.4, 0.8, 1.2)


def verdict(tag, ok, detail):
    line = f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


def test_c1_power_oracle_equivalence():
    TOL = 1e-8
    BUDGET_S = 30.0
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(100):
        A = gen_accretive(6, 10_000 + seed)
        for r in R_GRID:
            err = rel_err(principal_power_quad(A, r, 96), principal_power_eigen(A, r))
            worst = max(worst, err)
    elapsed = time.monotonic() - t0
    verdict("c1 power-oracle-equivalence", worst <= TOL and elapsed <= BUDGET_S,
            f"max rel err {worst:.3e} over 100x{len(R_GRID)} instances, tol {TOL:.0e}, "
            f"{elapsed:.1f} s")


def test_c2_integral_vs_congruence():
    TOL = 1e-8
    worst = 0.0
    branches = {"r01": (0.05, 0.95), "r12": (1.05, 1.95), "rneg": (-0.95, -0.05)}
    for b_idx, (name, (lo, hi)) in enumerate(sorted(branches.items())):
        rng = np.random.default_rng(555 + b_idx)
        for i in range(100):
            dim = 2 + (i % 7)
            A = gen_accretive(dim, 20_000 + 1000 * b_idx + i)
            B = gen_accretive(dim, 30_000 + 1000 * b_idx + i)
            r = float(rng.uniform(lo, hi))
            direct = geometric_mean_integral(A, B, r, 96)
            worst = max(worst, rel_err(direct, geometric_mean(A, B, r)))
    verdict("c2 integral-vs-congruence", worst <= TOL,
            f"max rel err {worst:.3e} over 100 pairs x 3 branches, tol {TOL:.0e}")


def test_c3_identity_suite():
    cfg = RunConfig(seed=42, trials=200, dim_min=2, dim_max=8, tol=1e-8)
    total_viol = 0
    worst = 0.0
    for cid in ("I01", "I02", "I03", "I04", "I05", "I06"):
        res = run_check(check_by_id(cid), cfg)
        total_viol += res.violations
        worst = min(worst, res.worst_margin)
    verdict("c3 identity-suite", total_viol == 0,
            f"{total_viol} violations in 6x200 trials, worst residual {-worst:.3e}, "
            f"tol 1e-08")


def test_c4_full_inequality_fuzz():
    BUDGET_S = 300.0
    cfg = RunConfig(seed=42, trials=500, dim_min=2, dim_max=8,
                    alphas=FUZZ_ALPHAS, tol=1e-8)
    t0 = time.monotonic()
    viol = errors = fails = n_checks = 0
    worst = 0.0
    for suite in ("r01", "r12", "rneg"):
        rep = run_suite(suite, cfg)
        viol += rep.violations
        errors += rep.errors
        fails += rep.sampler_failures
        gated = [c for c in rep.checks if not c.informational]
        n_checks += len(gated)
        worst = min(worst, min(c.worst_margin for c in gated))
    elapsed = time.monotonic() - t0
    verdict("c4 full-inequality-fuzz", viol == 0 and errors == 0 and elapsed <= BUDGET_S,
            f"{viol} violations / {errors} trial errors / {fails} sampler failures over "
            f"{n_checks} checks x 500 trials, worst margin {worst:.3e}, "
            f"{elapsed:.1f} s of {BUDGET_S:.0f}")


def test_c5_pd_sharpness():
    """PD inputs collapse the real-part inequalities to equalities, so the
    gap must vanish in both Loewner directions."""
    TOL = 1e-8
    cfg = RunConfig(seed=42, trials=60, dim_min=2, dim_max=8, force_pd=True, tol=TOL)
    ctx = EvalContext(nodes=cfg.nodes)
    worst = 0.0
    for cid in ("C09", "C12", "C28", "C29"):
        check = check_by_id(cid)
        for trial in range(60):
            inst = sample_instance(check, cfg, derive_seed(42, cid, trial, 0), trial)
            fwd = check.evaluate(inst, ctx, False)
            rev = check.evaluate(inst, ctx, True)
            gap = max(-fwd.margin / fwd.scale, -rev.margin / rev.scale, 0.0)
            worst = max(worst, gap)
    verdict("c5 pd-sharpness", worst <= TOL,
            f"max |two-sided gap| {worst:.3e} over 4 checks x 60 PD instances, "
            f"tol {TOL:.0e}")


def test_c6_numerical_radius_oracles():
    # nilpotent shift: closed-form value 1/2, certified against a dense
    # unit-sphere maximization that can only approach it from below
    shift = np.array([[0.0, 1.0], [0.0, 0.0]])
    w = numerical_radius(shift)
    rng = np.random.default_rng(99)
    X = rng.normal(size=(1_000_000, 2)) + 1j * rng.normal(size=(1_000_000, 2))
    X /= np.linalg.norm(X, axis=1)[:, None]
    brute = float(np.abs(X[:, 0].conj() * X[:, 1]).max())
    ok_shift = abs(w - 0.5) <= 1e-6 and brute <= w + 1e-9

    worst_h = 0.0
    for seed in range(50):
        rng = np.random.default_rng(7000 + seed)
        H = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        H = 0.5 * (H + H.conj().T)
        spectral = float(np.abs(np.linalg.eigvalsh(H)).max())
        worst_h = max(worst_h, abs(numerical_radius(H) - spectral))
    verdict("c6 numerical-radius", ok_shift and worst_h <= 1e-9,
            f"shift w={w:.9f} (brute {brute:.6f}), Hermitian max dev {worst_h:.3e}, "
            f"tols 1e-06 / 1e-09")


def test_c7_quadrature_mass():
    TOL = 1e-12
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    while count < 50:
        r = float(rng.uniform(-0.98, 1.98))
        if min(abs(r), abs(r - 1.0)) < 0.02:
            continue
        count += 1
        for n in (16, 64, 256):
            worst = max(worst, abs(float(quadrature_rule(r, n).weights.sum()) - 1.0))
    verdict("c7 quadrature-mass", worst <= TOL,
            f"max |mass-1| {worst:.3e} over 50 r x N in (16, 64, 256), tol {TOL:.0e}")


def test_c8_flip_sensitivity():
    cfg = RunConfig(seed=42, trials=100, dim_min=2, dim_max=8, tol=1e-8)
    counts = {}
    for cid in ("C07", "C09", "C17"):
        counts[cid] = run_check(check_by_id(cid), cfg, mutate="flip").violations
    ok = all(v >= 1 for v in counts.values())
    verdict("c8 flip-sensitivity", ok,
            "flipped violations " + ", ".join(f"{k}={v}/100" for k, v in counts.items()))


def test_c9_report_determinism(tmp_path):
    args = ["verify", "all", "--seed", "42", "--trials", "40", "--dims", "2..6"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    code1 = main(args + ["--out", str(p1)])
    code2 = main(args + ["--out", str(p2)])
    r1, r2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    same = load_script("report_diff").differences(r1, r2) == []
    verdict("c9 report-determinism", code1 == 0 and code2 == 0 and same,
            f"exit codes {code1}/{code2}, reports identical after dropping timing: {same}")
