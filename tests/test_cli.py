"""Command-line surface: compute subcommands, verify runs, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sectormeans import (
    PreconditionError,
    derive_seed,
    dumps_matrix,
    gen_accretive,
    geometric_mean,
    loads_matrix,
    ui_norm,
)
from sectormeans import checks, cli, runner
from sectormeans.cli import CSV_HEADER, main
from sectormeans.norms import RadiusCertificateError
from sectormeans.quadrature import MAX_NODES


def put(tmp_path, name, M):
    path = tmp_path / name
    path.write_text(dumps_matrix(np.asarray(M, dtype=np.complex128)) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------- compute


def test_compute_power_diagonal(tmp_path, capsys):
    path = put(tmp_path, "a.json", np.diag([1.0, 4.0]))
    code, out, _ = run_cli(capsys, "compute", "power", path, "--r", "1.5")
    assert code == 0
    M = loads_matrix(out)
    np.testing.assert_allclose(M, np.diag([1.0, 8.0]), atol=1e-8)


def test_compute_power_engines_agree(tmp_path, capsys):
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 4.0 * np.eye(3)
    path = put(tmp_path, "a.json", A)
    _, out_q, _ = run_cli(capsys, "compute", "power", path, "--r", "0.5", "--engine", "quad")
    _, out_e, _ = run_cli(capsys, "compute", "power", path, "--r", "0.5", "--engine", "eigen")
    assert np.linalg.norm(loads_matrix(out_q) - loads_matrix(out_e)) <= 1e-8 * np.linalg.norm(A)


def test_compute_power_rejects_nonaccretive(tmp_path, capsys):
    path = put(tmp_path, "bad.json", [[-1.0]])
    code, _, err = run_cli(capsys, "compute", "power", path, "--r", "0.5")
    assert code == 2
    assert "precondition" in err


def test_compute_mean_rejects_nonaccretive(tmp_path, capsys):
    bad = put(tmp_path, "bad.json", [[-1.0]])
    good = put(tmp_path, "good.json", [[4.0]])
    for engine in ("quad", "eigen"):
        code, _, err = run_cli(capsys, "compute", "mean", bad, good,
                               "--r", "0.5", "--engine", engine)
        assert code == 2
        assert "precondition" in err


def test_compute_mean_scalar(tmp_path, capsys):
    a = put(tmp_path, "a.json", [[4.0]])
    b = put(tmp_path, "b.json", [[9.0]])
    code, out, _ = run_cli(capsys, "compute", "mean", a, b, "--r", "0.5")
    assert code == 0
    assert loads_matrix(out)[0, 0] == pytest.approx(6.0, abs=1e-9)


def test_compute_mean_engines(tmp_path, capsys):
    a = put(tmp_path, "a.json", np.diag([1.0, 2.0]))
    b = put(tmp_path, "b.json", np.diag([4.0, 2.0]))
    for engine in ("eigen", "quad"):
        code, out, _ = run_cli(capsys, "compute", "mean", a, b,
                               "--r", "1.5", "--engine", engine)
        assert code == 0
        np.testing.assert_allclose(loads_matrix(out), np.diag([8.0, 2.0]), atol=1e-8)


def test_compute_mean_quad_is_the_default(tmp_path, capsys):
    """--engine quad is the branch integral, which the default runs too."""
    a = put(tmp_path, "a.json", [[2.0, 1.0 + 0.5j], [0.2j, 3.0]])
    b = put(tmp_path, "b.json", [[1.5, 0.3], [-0.4j, 2.5 + 0.5j]])
    for r in ("-0.6", "0.3", "1.4"):
        _, default, _ = run_cli(capsys, "compute", "mean", a, b, "--r", r)
        code, quad, _ = run_cli(capsys, "compute", "mean", a, b, "--r", r, "--engine", "quad")
        assert code == 0
        assert quad == default


def test_compute_mean_endpoint_passthrough(tmp_path, capsys):
    a = put(tmp_path, "a.json", np.diag([1.0, 2.0]))
    b = put(tmp_path, "b.json", np.diag([4.0, 2.0]))
    code, out, _ = run_cli(capsys, "compute", "mean", a, b, "--r", "0")
    assert code == 0
    np.testing.assert_allclose(loads_matrix(out), np.diag([1.0, 2.0]), atol=0)


def test_compute_mean_off_cone_inner_prints_no_warning(tmp_path, capsys):
    """gen_accretive(2, 0) # gen_accretive(2, 1000): the eigen route's inner
    congruence leaves the accretive cone but avoids the cut, so the mean is
    printed as it is, with nothing on stderr."""
    a = put(tmp_path, "a.json", gen_accretive(2, 0))
    b = put(tmp_path, "b.json", gen_accretive(2, 1000))
    with warnings.catch_warnings():
        # the filters of a fresh interpreter, not the test config's
        warnings.resetwarnings()
        code, out, err = run_cli(capsys, "compute", "mean", a, b,
                                 "--r", "0.5", "--engine", "eigen")
    assert code == 0
    assert err == ""
    A, B = (loads_matrix(Path(path).read_text()) for path in (a, b))
    assert out == dumps_matrix(geometric_mean(A, B, 0.5, engine="eigen")) + "\n"


def test_compute_numpy_warning_is_one_line(tmp_path, capsys):
    """NumPy's floating-point warnings still reach the compute hook: each
    prints as one stderr line, ahead of the refusal of the overflowed result."""
    path = put(tmp_path, "big.json", np.diag([1e300, 1e295]))
    with warnings.catch_warnings():
        # the filters of a fresh interpreter, not the test config's
        warnings.resetwarnings()
        code, out, err = run_cli(capsys, "compute", "power", path,
                                 "--r", "1.5", "--engine", "eigen")
    assert code == 2 and out == ""
    *warned, refusal = err.splitlines()
    assert warned[0] == "warning: overflow encountered in power"
    assert all(line.startswith("warning: ") for line in warned)
    assert refusal.startswith("precondition failed: ")


def test_compute_sector(tmp_path, capsys):
    path = put(tmp_path, "s.json", [[1.0 + 1.0j]])
    code, out, _ = run_cli(capsys, "compute", "sector", path)
    assert code == 0
    assert float(out) == pytest.approx(math.pi / 4, abs=1e-10)


def test_compute_wradius(tmp_path, capsys):
    path = put(tmp_path, "n.json", [[0.0, 1.0], [0.0, 0.0]])
    code, out, _ = run_cli(capsys, "compute", "wradius", path)
    assert code == 0
    assert float(out) == pytest.approx(0.5, abs=1e-9)


def test_compute_norm_lists_all(tmp_path, capsys):
    path = put(tmp_path, "d.json", np.diag([1.0, -2.0]))
    code, out, _ = run_cli(capsys, "compute", "norm", path)
    assert code == 0
    d = json.loads(out)
    assert d["operator"] == pytest.approx(2.0)
    assert d["trace"] == pytest.approx(3.0)
    assert d["frobenius"] == pytest.approx(math.sqrt(5.0))
    assert d["kyfan"] == pytest.approx([2.0, 3.0])


def test_compute_norm_matches_ui_norm(tmp_path, capsys):
    rng = np.random.default_rng(12)
    A = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    path = put(tmp_path, "a.json", A)
    code, out, _ = run_cli(capsys, "compute", "norm", path)
    assert code == 0
    expected = {kind: ui_norm(A, kind) for kind in ("operator", "frobenius", "trace")}
    expected["kyfan"] = [ui_norm(A, "kyfan", k) for k in range(1, 13)]
    assert out == json.dumps(expected) + "\n"


def test_node_count_above_cap_exits_two(tmp_path, capsys):
    """A count past MAX_NODES is refused before any rule is built."""
    code, _, err = run_cli(capsys, "verify", "r12", "--check", "C09", "--trials", "1",
                           "--nodes", str(MAX_NODES + 1), "--out", str(tmp_path / "rep.json"))
    assert code == 2
    assert len(err.splitlines()) == 1 and "nodes" in err
    assert not (tmp_path / "rep.json").exists()


def test_compute_power_refuses_past_the_node_budget(tmp_path, capsys):
    """kappa = 1e8 needs 1116 nodes, past MAX_NODES: a typed refusal, not digits."""
    U = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 6)))[0]
    lam = np.logspace(0.0, 8.0, 6) * np.exp(1j * np.linspace(-1.2, 1.2, 6))
    path = put(tmp_path, "a.json", (U * lam) @ U.T)
    code, out, err = run_cli(capsys, "compute", "power", path, "--r", "0.4")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "nodes" in err


def test_compute_power_of_a_jordan_block(tmp_path, capsys):
    """I + 0.9 S has no pole in its spectrum; the CLI's quadrature power
    still matches the finite binomial series sum_k binom(r, k) (0.9 S)^k."""
    N = 0.9 * np.eye(12, k=1)
    path = put(tmp_path, "a.json", np.eye(12) + N)
    code, out, _ = run_cli(capsys, "compute", "power", path, "--r", "0.4")
    assert code == 0
    exact, term, coef = np.zeros((12, 12)), np.eye(12), 1.0
    for k in range(12):
        exact, term, coef = exact + coef * term, term @ N, coef * (0.4 - k) / (k + 1)
    assert np.abs(loads_matrix(out) - exact).max() <= 1e-14


def test_compute_missing_file(tmp_path, capsys):
    """A file that cannot be read, or is not UTF-8, exits 2 with one line."""
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe")
    for name in ("void.json", "utf16.json"):
        code, _, err = run_cli(capsys, "compute", "sector", str(tmp_path / name))
        assert code == 2
        assert name in err and len(err.splitlines()) == 1


# -------------------------------------------------------------------- main


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    """One parser tree per process, of 8 parsers (root, compute, its 5 ops
    and verify), however many calls `main` takes."""
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    path = put(tmp_path, "a.json", np.diag([1.0, 4.0]))
    for argv in (("compute", "norm", path), ("compute", "sector", path),
                 ("compute", "power", path, "--r", "0.5"), ("verify", "r12", "--check", "C77")):
        run_cli(capsys, *argv)
    assert built.count("sectormeans") == 1
    assert len(built) == 8


def test_main_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """An option given to one call is back at its default in the next."""
    engines, overrides = [], []
    power, run_suite = cli.principal_power, cli.run_suite

    def recording_power(A, r, engine):
        engines.append(engine)
        return power(A, r, engine=engine)

    def recording_suite(suite, config, check_id):
        overrides.append(config.r_override)
        return run_suite(suite, config, check_id=check_id)

    monkeypatch.setattr(cli, "principal_power", recording_power)
    monkeypatch.setattr(cli, "run_suite", recording_suite)
    path = put(tmp_path, "a.json", np.diag([1.0, 4.0]))
    assert run_cli(capsys, "compute", "power", path, "--r", "0.5", "--engine", "eigen")[0] == 0
    assert run_cli(capsys, "compute", "power", path, "--r", "0.5")[0] == 0
    assert engines == ["eigen", "quad"]
    args = ("verify", "r01", "--check", "C02", "--trials", "1", "--dims", "2..2",
            "--out", str(tmp_path / "rep.json"))
    assert run_cli(capsys, *args, "--r", "0.5")[0] == 0
    assert run_cli(capsys, *args)[0] == 0
    assert overrides == [0.5, None]


def test_main_recovers_from_usage_errors_and_help(tmp_path, capsys):
    """After a usage error or --help, a valid call prints what it prints as
    the first call of a process."""
    cli.build_parser.cache_clear()
    path = put(tmp_path, "a.json", [[2.0, 1.0 + 0.5j], [0.2j, 3.0]])
    argv = ("compute", "power", path, "--r", "0.5")
    first = run_cli(capsys, *argv)
    assert first[0] == 0 and first[1]
    assert run_cli(capsys, "compute", "power", path, "--engine", "eigen")[0] == 1
    assert run_cli(capsys, *argv) == first
    with pytest.raises(SystemExit) as exc:
        main(["compute", "power", "--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert run_cli(capsys, *argv) == first


# ------------------------------------------------------------------ verify


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_verify_refuses_an_unwritable_out_before_any_trial(tmp_path, capsys, monkeypatch, where):
    def no_run(*args, **kwargs):
        raise AssertionError("run_suite called")

    monkeypatch.setattr(cli, "run_suite", no_run)
    path, reason = {
        "missing-dir": (tmp_path / "void" / "r.json", "No such file or directory"),
        "directory": (tmp_path, "Is a directory"),
    }[where]
    code, out, err = run_cli(capsys, "verify", "r01", "--check", "C02", "--trials", "2",
                             "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"precondition failed: cannot write {path}: {reason}\n"


def test_verify_report_write_error_is_one_line(tmp_path, capsys):
    """A path that passes the directory checks but cannot be opened (here a
    file name past NAME_MAX) exits 2 with one line after the run."""
    path = tmp_path / ("r" * 300 + ".json")
    code, out, err = run_cli(capsys, "verify", "r01", "--check", "C02", "--trials", "2",
                             "--dims", "2..3", "--out", str(path))
    assert code == 2 and "PASS" in out
    assert err.startswith(f"precondition failed: cannot write {path}: ")
    assert len(err.splitlines()) == 1


def test_verify_records_budget_refusals(tmp_path, capsys):
    """A budget too small for the trials fails the run; the report names
    each refused trial's seed and reason."""
    out_path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "verify", "r12", "--check", "C09", "--trials", "2",
                           "--nodes", "4", "--out", str(out_path))
    assert code == 3
    assert "errors=2" in out and "2 errors" in out and "FAIL" in out
    errors = json.loads(out_path.read_text())["checks"][0]["errors"]
    assert [e["trial"] for e in errors] == [0, 1]
    assert all(e["seed"] >= 0 and "NodeBudgetError" in e["reason"] for e in errors)


def test_verify_records_every_trial_error(tmp_path, capsys, monkeypatch):
    """An exception a trial raises is recorded against its trial and seed;
    the other checks still run and the suite fails."""
    calls = []
    radius = checks.numerical_radius

    def failing_once(A):
        calls.append(1)
        if len(calls) == 1:
            raise RadiusCertificateError("w(A) = 0.1 escapes ||A||/2 <= w <= ||A||")
        return radius(A)

    monkeypatch.setattr(checks, "numerical_radius", failing_once)
    out_path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "verify", "r01", "--trials", "3", "--dims", "2..3",
                           "--out", str(out_path))
    assert code == 3 and "1 errors" in out and "FAIL" in out
    rep = json.loads(out_path.read_text())
    assert len(rep["checks"]) == 11 and rep["summary"]["errors"] == 1
    errors = {c["id"]: c["errors"] for c in rep["checks"] if c["errors"]}
    assert errors == {"C04": [{
        "trial": 0,
        "seed": derive_seed(42, "C04", 0, 0),
        "reason": "RadiusCertificateError: w(A) = 0.1 escapes ||A||/2 <= w <= ||A||",
    }]}
    assert all(c["violations"] == 0 and c["sampler_failures"] == 0 for c in rep["checks"])


@pytest.mark.parametrize("fault, args", [
    ("linalg", ("verify", "r01", "--check", "C04", "--trials", "2")),
    ("budget", ("verify", "r12", "--check", "C09", "--trials", "2", "--nodes", "4")),
], ids=["linalg", "budget"])
def test_replay_of_an_errored_trial_exits_three(tmp_path, capsys, monkeypatch, fault, args):
    """A trial error, such as a LAPACK LinAlgError or a quadrature past the
    node budget, replays as one stderr line and exit 3, as its run ended."""

    def failing(A):
        raise np.linalg.LinAlgError("zggev failed to converge")

    if fault == "linalg":
        monkeypatch.setattr(checks, "numerical_radius", failing)
    out_path = tmp_path / "rep.json"
    code, _, _ = run_cli(capsys, *args, "--out", str(out_path))
    assert code == 3
    errors = json.loads(out_path.read_text())["checks"][0]["errors"]
    assert len(errors) == 2
    code, out, err = run_cli(capsys, *args, "--replay", str(errors[0]["seed"]))
    assert code == 3 and out == ""
    assert err == f"trial error: {errors[0]['reason']}\n"


def test_verify_small_json(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "verify", "identities", "--trials", "3",
                           "--seed", "7", "--dims", "2..4", "--out", str(out_path))
    assert code == 0
    assert "PASS" in out
    rep = json.loads(out_path.read_text())
    assert rep["suite"] == "identities"
    assert rep["seed"] == 7
    assert len(rep["checks"]) == 6
    assert rep["summary"]["violations"] == 0


def test_verify_leaves_warning_filters_alone(tmp_path, capsys):
    with warnings.catch_warnings():
        # start from no filters at all, so any filter that verify adds shows
        warnings.resetwarnings()
        code, _, _ = run_cli(capsys, "verify", "identities", "--check", "I01", "--trials", "2",
                             "--out", str(tmp_path / "rep.json"))
        assert code == 0
        assert warnings.filters == []


def test_verify_csv_header_exact(tmp_path, capsys):
    out_path = tmp_path / "rep.csv"
    code, _, _ = run_cli(capsys, "verify", "r01", "--trials", "2", "--dims", "2..3",
                         "--check", "C02", "--format", "csv", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["check_id"] == "C02"
    assert int(rows[0]["trials"]) == 2


def test_verify_deterministic_reports(tmp_path, capsys):
    args = ("verify", "r12", "--check", "C09", "--trials", "4", "--dims", "2..4", "--seed", "42")
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(capsys, *args, "--out", str(p1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(p2))[0] == 0
    r1, r2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    for rep in (r1, r2):
        rep.pop("elapsed_s", None)
        rep["summary"].pop("elapsed_s", None)
        for c in rep["checks"]:
            c.pop("runtime_s", None)
    assert r1 == r2


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "r12", "--check", "C77", "--trials", "2")
    assert code == 1
    assert "C77" in err


def test_verify_check_suite_mismatch(capsys):
    code, _, err = run_cli(capsys, "verify", "r12", "--check", "C01", "--trials", "2")
    assert code == 1


def test_verify_informational_check_follows_suite(tmp_path, capsys):
    # rneg and all run the informational X23; other suites do not
    out_path = tmp_path / "rep.json"
    code, _, _ = run_cli(capsys, "verify", "rneg", "--check", "X23", "--trials", "2",
                         "--dims", "2..3", "--out", str(out_path))
    assert code == 0
    rows = json.loads(out_path.read_text())["checks"]
    assert [(c["id"], c["informational"]) for c in rows] == [("X23", True)]
    code, _, err = run_cli(capsys, "verify", "r01", "--check", "X23")
    assert code == 1
    assert "valid ids: C01, C02" in err
    assert "X23" not in err.split("valid ids:")[1]


def test_verify_replay_requires_check(capsys):
    code, _, err = run_cli(capsys, "verify", "r12", "--replay", "12345")
    assert code == 1


def test_verify_replay_round_trip(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    args = ("--trials", "5", "--dims", "2..4", "--seed", "11")
    code, _, _ = run_cli(capsys, "verify", "r12", "--check", "C09", *args,
                         "--out", str(out_path))
    assert code == 0
    rep = json.loads(out_path.read_text())
    seed = rep["checks"][0]["worst_seed"]
    code, out, _ = run_cli(capsys, "verify", "r12", "--check", "C09",
                           "--replay", str(seed), *args)
    assert code == 0
    replay = json.loads(out)
    assert replay["margin"] == rep["checks"][0]["worst_margin"]


def test_verify_replay_unknown_seed(capsys):
    code, _, err = run_cli(capsys, "verify", "r12", "--check", "C09",
                           "--replay", "31337", "--trials", "3")
    assert code == 2
    assert "seed" in err


def test_verify_pd_flag(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "r12", "--check", "C12", "--pd",
                           "--trials", "4", "--dims", "2..3",
                           "--out", str(tmp_path / "rep.json"))
    assert code == 0


def test_verify_tiny_tolerance_fails_closed(tmp_path, capsys):
    # identity residuals sit around 1e-13; an absurd tolerance must trip
    # the failure exit path rather than being silently clamped
    code, out, _ = run_cli(capsys, "verify", "identities", "--check", "I01",
                           "--trials", "2", "--dims", "2..3",
                           "--tol", "1e-300", "--out", str(tmp_path / "rep.json"))
    assert code == 3
    assert "FAIL" in out


def test_verify_infinite_tolerance_is_refused(tmp_path, capsys):
    # --tol inf would pass every trial, a flipped claim's included
    code, _, err = run_cli(capsys, "verify", "identities", "--check", "I01",
                           "--trials", "2", "--tol", "inf", "--out", str(tmp_path / "rep.json"))
    assert code == 2
    assert "tol must be positive and finite" in err
    assert not (tmp_path / "rep.json").exists()


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "verify", "r12", "--dims", "nope")[0] == 1
    assert run_cli(capsys, "verify", "bogus-suite")[0] == 1
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys)[0] == 1


def test_r_override_passthrough(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "verify", "r12", "--check", "C09", "--r", "1.5",
                         "--trials", "3", "--dims", "2..3",
                         "--out", str(tmp_path / "rep.json"))
    assert code == 0
    # r outside the check's branch is a precondition problem, not usage
    code, _, err = run_cli(capsys, "verify", "r12", "--check", "C09", "--r", "0.5",
                           "--trials", "3")
    assert code == 2


def test_verify_refuses_r_outside_a_suite_check_before_any_trial(capsys, monkeypatch):
    """--r is checked against every check of the suite before the first
    runs, not when the sweep reaches the check it does not fit."""
    calls = []
    monkeypatch.setattr(runner, "run_check", lambda *args, **kw: calls.append(args))
    with pytest.raises(PreconditionError) as exc:
        runner.run_suite("all", runner.RunConfig(r_override=0.5))
    assert str(exc.value).startswith("r=0.5 lies outside the admissible interval(s) ")
    assert str(exc.value).endswith(" of C07")
    code, out, err = run_cli(capsys, "verify", "all", "--r", "0.5", "--trials", "500")
    assert code == 2 and out == "" and calls == []
    assert err == f"precondition failed: {exc.value}\n"


def test_replay_refuses_r_outside_the_check(capsys):
    """--replay applies the same r-interval check as a run does."""
    seed = derive_seed(42, "C09", 0, 0)
    code, out, err = run_cli(capsys, "verify", "r12", "--check", "C09",
                             "--replay", str(seed), "--r", "0.5")
    assert code == 2 and out == ""
    assert "r=0.5 lies outside the admissible interval(s) (1.0, 2.0) of C09" in err


def test_python_dash_m_runs_cli(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out_path = tmp_path / "rep.json"
    proc = subprocess.run(
        [sys.executable, "-m", "sectormeans", "verify", "identities", "--check", "I01",
         "--trials", "2", "--dims", "2..3", "--out", str(out_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    assert json.loads(out_path.read_text())["checks"][0]["id"] == "I01"


# In a fresh interpreter: import the package and the CLI, run one command,
# then report the exit code and whether SciPy was loaded.
IMPORT_PROBE = """
import sys
import sectormeans, sectormeans.cli
code = sectormeans.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, "scipy" in sys.modules)
"""


@pytest.mark.parametrize("argv, loads_scipy", [
    ((), False),
    (("compute", "sector", "A"), False),
    (("compute", "norm", "A"), False),
    (("compute", "power", "A", "--r", "0.5", "--engine", "eigen"), False),
    (("compute", "mean", "A", "A", "--r", "1.5", "--engine", "eigen"), False),
    (("compute", "power", "A", "--r", "0.5"), True),
    (("compute", "wradius", "A"), True),
], ids=["import", "sector", "norm", "power-eigen", "mean-eigen", "power-quad", "wradius"])
def test_scipy_loads_only_on_first_use(tmp_path, argv, loads_scipy):
    # SciPy serves only the Gauss-Jacobi rules and the radius pencil; a
    # top-level import of it anywhere in the package would fail this
    A = put(tmp_path, "a.json", [[2.0, 1.0 + 0.5j, 0.0], [0.0, 3.0, 0.5j], [0.2, 0.0, 1.5]])
    argv = [A if arg == "A" else arg for arg in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loads_scipy}"
