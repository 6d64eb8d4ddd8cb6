"""The inequality catalog and the seeded fuzz runner.

Anything statistical here runs at reduced trial counts; the full-scale runs
(500 trials per check, the flip sensitivity sweep) live in the acceptance
module.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from sectormeans import (
    EigenbasisConditionError,
    EvalContext,
    PreconditionError,
    PrincipalBranchError,
    RunConfig,
    SingularMatrixError,
    catalog,
    check_by_id,
    derive_seed,
    informational_catalog,
    replay_trial,
    run_check,
    run_suite,
    sample_instance,
    suite_ids,
)
from sectormeans import checks, linalg, means, runner
from sectormeans.checks import SUITE_NAMES, _branch_cos_exponent
from sectormeans.quadrature import MAX_NODES, MIN_NODES
from sectormeans.runner import _sample_r

INTERVALS = {(0.0, 1.0), (1.0, 2.0), (-1.0, 0.0)}


def small_config(**kw):
    base = dict(trials=16, dim_min=2, dim_max=5, tol=1e-8)
    base.update(kw)
    return RunConfig(**base)


# ----------------------------------------------------------------- catalog


def test_catalog_shape():
    cs = catalog()
    assert len(cs) == 35
    ids = [c.id for c in cs]
    assert len(set(ids)) == len(ids)
    assert sum(1 for c in cs if c.kind == "identity") == 6
    for c in cs:
        assert c.anchor.strip()
        assert c.kind in ("loewner", "scalar", "membership", "identity")
        assert set(c.r_intervals) <= INTERVALS
        assert callable(c.evaluate)


def test_informational_separate():
    info = informational_catalog()
    assert [c.id for c in info] == ["X23"]
    assert all(c.informational for c in info)
    assert "X23" not in {c.id for c in catalog()}


def test_check_by_id_round_trip():
    c = check_by_id("C07")
    assert c.id == "C07" and c.kind == "loewner"
    assert check_by_id("X23").informational
    with pytest.raises(PreconditionError, match="C01"):
        check_by_id("C99")


def test_suites_partition_catalog():
    assert set(SUITE_NAMES) == {"all", "r01", "r12", "rneg", "identities"}
    union = set()
    for name in ("r01", "r12", "rneg", "identities"):
        union |= set(suite_ids(name))
    assert set(suite_ids("all")) == union
    assert len(suite_ids("identities")) == 6
    # each suite holds exactly the checks its r-intervals assign to it, in catalog order
    main = catalog()
    inequalities = [c for c in main if c.kind != "identity"]
    for name, interval in (("r12", (1.0, 2.0)), ("rneg", (-1.0, 0.0))):
        assert suite_ids(name) == tuple(c.id for c in inequalities if interval in c.r_intervals)
    assert suite_ids("r01") == tuple(
        c.id for c in inequalities if (0.0, 1.0) in c.r_intervals or not c.r_intervals
    )
    assert suite_ids("identities") == tuple(c.id for c in main if c.kind == "identity")
    with pytest.raises(PreconditionError):
        suite_ids("r23")


def test_branch_cos_exponent_profile():
    # flat zero on [0, 1], growing linearly toward both far endpoints
    assert _branch_cos_exponent(0.5) == 0.0
    assert _branch_cos_exponent(1.0) == 0.0
    assert _branch_cos_exponent(1.5) == pytest.approx(1.0)
    assert _branch_cos_exponent(1.95) == pytest.approx(1.9)
    assert _branch_cos_exponent(-0.5) == pytest.approx(1.0)
    assert _branch_cos_exponent(-0.95) == pytest.approx(1.9)


# ------------------------------------------------------------------ config


def test_runconfig_validation():
    with pytest.raises(PreconditionError):
        RunConfig(trials=0)
    with pytest.raises(PreconditionError):
        RunConfig(dim_min=5, dim_max=3)
    for tol in (0.0, -1e-8, math.inf, math.nan):
        with pytest.raises(PreconditionError, match="tol"):
            RunConfig(tol=tol)
    with pytest.raises(PreconditionError):
        RunConfig(alphas=(1.6,))
    with pytest.raises(PreconditionError):
        RunConfig(nodes=2)
    # nodes is a budget, capped where every quadrature rule is
    with pytest.raises(PreconditionError, match="nodes"):
        RunConfig(nodes=MAX_NODES + 1)
    assert RunConfig(nodes=MAX_NODES).nodes == MAX_NODES
    assert RunConfig().nodes == MAX_NODES


def test_sample_r_stays_inside_open_interval():
    rng = np.random.default_rng(0)
    cfg = small_config()
    for trial in range(60):
        r = _sample_r(check_by_id("C09"), cfg, rng, trial)
        assert 1.05 <= r <= 1.95
    # multi-interval checks cycle through their branches
    seen = set()
    for trial in range(6):
        r = _sample_r(check_by_id("I04"), cfg, rng, trial)
        for lo, hi in INTERVALS:
            if lo + 0.05 <= r <= hi - 0.05:
                seen.add((lo, hi))
    assert len(seen) == 3


def test_sample_instance_deterministic():
    cfg = small_config()
    a = sample_instance(check_by_id("C12"), cfg, 987654321, 3)
    b = sample_instance(check_by_id("C12"), cfg, 987654321, 3)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)
    assert a.r == b.r and a.alpha == b.alpha
    assert a.alpha_realized <= a.alpha + 1e-9


# ------------------------------------------------------------------ runner


def test_run_check_deterministic():
    cfg = small_config()
    r1 = run_check(check_by_id("C07"), cfg)
    r2 = run_check(check_by_id("C07"), cfg)
    assert r1.worst_margin == r2.worst_margin
    assert r1.worst_seed == r2.worst_seed
    assert r1.trials == 16 and r1.violations == 0


def test_flip_mutation_detected():
    cfg = small_config()
    for cid in ("C07", "C09", "C17"):
        flipped = run_check(check_by_id(cid), cfg, mutate="flip")
        assert flipped.violations > 0, f"{cid} flip produced no violations"


def test_flip_rejected_for_identities():
    with pytest.raises(PreconditionError):
        run_check(check_by_id("I01"), small_config(), mutate="flip")
    with pytest.raises(PreconditionError):
        run_check(check_by_id("C07"), small_config(), mutate="negate")


def test_suite_run_is_refused_before_any_trial(monkeypatch):
    """A flip of a suite that holds an identity, or an unknown mutation, is
    refused before the first check runs, not when the sweep reaches it."""
    calls = []
    monkeypatch.setattr(runner, "run_check", lambda *args, **kw: calls.append(args))
    cfg = small_config(trials=2)
    for suite in ("all", "identities"):
        with pytest.raises(PreconditionError, match="identity check I01"):
            run_suite(suite, cfg, mutate="flip")
    with pytest.raises(PreconditionError, match="unknown mutation 'negate'"):
        run_suite("r12", cfg, mutate="negate")
    assert calls == []


def test_r_override_validated():
    cfg = small_config(r_override=0.5)
    with pytest.raises(PreconditionError):
        run_check(check_by_id("C09"), cfg)  # C09 needs r in (1, 2)
    ok = run_check(check_by_id("C08"), cfg)
    assert ok.violations == 0


def test_pd_sharpness_collapses_margin():
    """With PD inputs the real-part bounds become equalities, so both the
    check and its flip stay within tolerance noise of zero."""
    cfg = small_config(trials=12, force_pd=True)
    for cid in ("C09", "C28"):
        res = run_check(check_by_id(cid), cfg)
        flipped = run_check(check_by_id(cid), cfg, mutate="flip")
        assert res.violations == 0
        assert flipped.violations == 0
        assert abs(res.worst_margin) <= 1e-8


@pytest.mark.parametrize("cid, mirror", [("C07", "C08"), ("C09", "C28"), ("C10", "C26")])
def test_reversed_claim_equals_flipped_mirror(cid, mirror):
    """C08, C28 and C10 state the terms of C07, C09 and C26 with the sides
    swapped, which is what a flip does: the evaluations agree to the bit."""
    cfg = small_config()
    ctx = EvalContext(nodes=cfg.nodes)
    check, twin = check_by_id(cid), check_by_id(mirror)
    for trial in range(6):
        inst = sample_instance(check, cfg, 1000 + trial, trial)
        flipped, mirrored = check.evaluate(inst, ctx, True), twin.evaluate(inst, ctx, False)
        assert mirrored.margin == flipped.margin
        assert mirrored.scale == flipped.scale
        assert mirrored.margin_strict == flipped.margin_strict


def test_flipped_scalar_claim_negates_both_margins():
    """C05 is one scalar term whose lhs depends on the angle: a flip negates
    the margin at the requested angle and at the realized one."""
    cfg = small_config()
    ctx = EvalContext(nodes=cfg.nodes)
    check = check_by_id("C05")
    for trial in range(6):
        inst = sample_instance(check, cfg, 2000 + trial, trial)
        assert inst.alpha_realized != inst.alpha
        ev, flipped = check.evaluate(inst, ctx, False), check.evaluate(inst, ctx, True)
        assert (flipped.margin, flipped.scale) == (-ev.margin, ev.scale)
        assert flipped.margin_strict == -ev.margin_strict


@pytest.mark.parametrize("cid", ["C11", "C18"])
def test_membership_is_a_three_term_claim(cid):
    """C11 and C18 state 0 <= M and +-Im M <= tan(alpha) Re M for M = A #_r B:
    a flip swaps the sides of every term, as for every claim, and the scale
    is the largest term scale."""
    cfg = small_config(alphas=(0.8, 1.2))
    ctx = EvalContext(nodes=cfg.nodes)
    check = check_by_id(cid)
    for trial in range(6):
        inst = sample_instance(check, cfg, 3000 + trial, trial)
        assert inst.alpha >= 0.8
        M = checks._mean(inst.A, inst.B, inst.r, ctx)
        R, S = linalg.real_part(M), linalg.imag_part(M)
        tR = math.tan(inst.alpha) * R
        terms = [(0 * M, M), (S, tR), (-S, tR)]
        ev, flipped = check.evaluate(inst, ctx, False), check.evaluate(inst, ctx, True)
        assert ev.margin == min(linalg.loewner_margin(lhs, rhs) for lhs, rhs in terms)
        assert flipped.margin == min(linalg.loewner_margin(rhs, lhs) for lhs, rhs in terms)
        scale = max(max(linalg.op_norm(lhs), linalg.op_norm(rhs)) for lhs, rhs in terms)
        assert ev.scale == flipped.scale == scale


def test_run_suite_filters_and_reports():
    cfg = small_config(trials=6)
    rep = run_suite("identities", cfg)
    assert rep.suite == "identities"
    assert len(rep.checks) == 6
    assert rep.passed and rep.violations == 0
    d = rep.to_dict()
    assert set(d) == {"suite", "seed", "config", "checks", "summary"}
    assert d["summary"]["violations"] == 0
    assert all("paper_anchor" in c for c in d["checks"])

    only = run_suite("r12", cfg, check_id="C09")
    assert [c.id for c in only.checks] == ["C09"]
    with pytest.raises(PreconditionError):
        run_suite("r12", cfg, check_id="C01")


def test_run_suite_includes_informational_for_rneg():
    cfg = small_config(trials=4)
    rep = run_suite("rneg", cfg)
    ids = [c.id for c in rep.checks]
    assert "X23" in ids
    x23 = next(c for c in rep.checks if c.id == "X23")
    assert x23.informational
    # informational rows never gate the suite outcome
    assert rep.passed


def test_replay_reproduces_worst_trial():
    cfg = small_config()
    res = run_check(check_by_id("C12"), cfg)
    out = replay_trial("C12", res.worst_seed, cfg)
    assert out["margin"] == res.worst_margin
    assert out["violated"] is False
    with pytest.raises(PreconditionError, match="seed"):
        replay_trial("C12", 123456789, cfg)


def test_trials_raise_no_warning_under_warnings_as_errors():
    """The identity checks' means leave the accretive cone by design, and
    still warn of nothing: a run and a replay pass where the caller makes
    every warning an error, and leave the caller's filters as they were."""
    cfg = RunConfig(seed=42, trials=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filters = list(warnings.filters)
        rep = run_suite("identities", cfg)
        assert rep.errors == 0 and rep.passed
        out = replay_trial("I01", derive_seed(42, "I01", 0, 0), cfg)
        assert math.isfinite(out["margin"]) and out["violated"] is False
        assert warnings.filters == filters


def test_flipped_run_evaluates_each_trial_once():
    """Every flipped trial is a candidate violation, and its one evaluation
    counts: each quadrature route certifies its own node count."""
    calls = []
    check = check_by_id("C09")

    def counted(inst, ctx, flip):
        calls.append(ctx.nodes)
        return check.evaluate(inst, ctx, flip)

    cfg = small_config(trials=12)
    res = run_check(dataclasses.replace(check, evaluate=counted), cfg, mutate="flip")
    assert res.violations == 12
    assert calls == [cfg.nodes] * 12


def test_budget_refusals_are_recorded_per_trial():
    """A trial whose quadrature needs more nodes than the budget is an error
    with its seed and reason: not a bad draw to redraw, and not an abort."""
    cfg = small_config(trials=4, nodes=MIN_NODES)
    res = run_check(check_by_id("C09"), cfg)
    assert res.sampler_failures == 0 and res.worst_margin is None
    assert [err["trial"] for err in res.errors] == [0, 1, 2, 3]
    assert all(err["reason"].startswith("NodeBudgetError") for err in res.errors)
    replayed = replay_trial("C09", res.errors[0]["seed"], small_config(trials=4))
    assert replayed["trial"] == 0 and not replayed["violated"]
    rep = run_suite("r12", cfg, check_id="C09")
    assert rep.errors == 4 and not rep.passed
    assert rep.to_dict()["checks"][0]["errors"] == res.errors


@pytest.mark.parametrize(
    "refusal", [EigenbasisConditionError, PrincipalBranchError, SingularMatrixError]
)
def test_numerical_refusals_are_trial_errors(refusal, monkeypatch):
    """An ill-conditioned eigenbasis, a spectrum on the branch cut and a
    singular inversion are trial errors like any other: each trial is
    evaluated once, and a replay of its seed returns the same reason."""
    calls = []

    def raising(inst, ctx, flip):
        calls.append(inst.trial)
        raise refusal("refused")

    check = dataclasses.replace(check_by_id("C09"), evaluate=raising)
    monkeypatch.setattr(runner, "suite_checks", lambda suite: [check])
    monkeypatch.setattr(runner, "check_by_id", lambda check_id: check)
    cfg = small_config(trials=3)
    rep = run_suite("r12", cfg)
    assert calls == [0, 1, 2]
    (res,) = rep.checks
    reason = f"{refusal.__name__}: refused"
    assert res.errors == [
        {"trial": t, "seed": derive_seed(cfg.seed, "C09", t, 0), "reason": reason} for t in range(3)
    ]
    assert res.sampler_failures == 0 and res.worst_margin is None
    assert rep.errors == 3 and not rep.passed
    replayed = replay_trial("C09", res.errors[0]["seed"], cfg)
    assert replayed == {"check": "C09", **res.errors[0]}


def test_eval_context_immutable():
    ctx = EvalContext(nodes=64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.nodes = 32


def test_identity_margins_near_zero():
    cfg = small_config(trials=8)
    for cid in ("I01", "I03", "I05"):
        res = run_check(check_by_id(cid), cfg)
        assert res.violations == 0
        assert res.worst_margin >= -1e-8


def test_membership_checks_hold():
    cfg = small_config(trials=10)
    for cid in ("C11", "C18"):
        res = run_check(check_by_id(cid), cfg)
        assert res.violations == 0


def test_result_dict_fields():
    res = run_check(check_by_id("C03"), small_config(trials=5))
    d = res.to_dict()
    for key in ("id", "name", "paper_anchor", "trials", "violations",
                "worst_margin", "worst_seed", "worst_margin_strict",
                "sampler_failures", "runtime_s"):
        assert key in d
    assert d["trials"] == 5


def test_realized_alpha_strict_margin_reported():
    """Strict margins recompute the bound at the realized angle; they may be
    smaller than the requested-angle margins but are reported alongside."""
    cfg = small_config(trials=12)
    res = run_check(check_by_id("C12"), cfg)
    assert math.isfinite(res.worst_margin_strict)
    assert res.worst_margin_strict <= res.worst_margin + 1e-12


def test_strict_margin_skips_the_scale(monkeypatch):
    # C12 has one term, whose bound depends on the angle: the realized-angle
    # pass needs its margin only, so each trial takes the two norms of one scale
    calls = []
    op_norm = linalg.op_norm

    def counted(A):
        calls.append(1)
        return op_norm(A)

    monkeypatch.setattr(linalg, "op_norm", counted)
    monkeypatch.setattr(checks, "op_norm", counted)
    run_check(check_by_id("C12"), RunConfig(seed=42, trials=100))
    assert len(calls) == 200


@pytest.mark.parametrize("cid", ["C07", "C08", "C09", "C10", "C26", "C27", "C28"])
def test_paired_claims_build_one_rule_per_trial(cid, monkeypatch):
    """A claim that compares two powers or means at one order integrates
    both pairs over one rule: each trial builds exactly one."""
    builds = []
    build = means.quadrature_rule

    def counted_build(r, n_nodes):
        builds.append(n_nodes)
        return build(r, n_nodes)

    check = check_by_id(cid)
    per_trial = []

    def counted(inst, ctx, flip):
        means._cached_rule.cache_clear()
        before = len(builds)
        try:
            return check.evaluate(inst, ctx, flip)
        finally:
            per_trial.append(len(builds) - before)

    monkeypatch.setattr(means, "quadrature_rule", counted_build)
    try:
        res = run_check(dataclasses.replace(check, evaluate=counted), RunConfig(seed=7, trials=20))
    finally:
        means._cached_rule.cache_clear()
    assert res.trials == 20 and not res.errors
    assert per_trial == [1] * 20
