"""The report comparison script: timing aside, every field must match."""

import json
import math

from sectormeans import RunConfig, run_suite

from conftest import load_script


def write_report(path, report):
    path.write_text(json.dumps(report))
    return str(path)


def test_two_runs_of_one_seed_agree_and_a_perturbed_margin_does_not(tmp_path, capsys):
    script = load_script("report_diff")
    config = RunConfig(seed=3, trials=2, dim_min=2, dim_max=3)
    first, second = (run_suite("r12", config).to_dict() for _ in range(2))
    # the runs differ in their timing fields, and in nothing else
    second["summary"]["elapsed_s"] = first["summary"]["elapsed_s"] + 1.0
    second["checks"][0]["runtime_s"] = first["checks"][0]["runtime_s"] + 1.0
    a = write_report(tmp_path / "a.json", first)
    b = write_report(tmp_path / "b.json", second)
    assert script.main([a, b]) == 0
    assert capsys.readouterr().out == ""

    check = second["checks"][1]
    old = check["worst_margin"]
    check["worst_margin"] = math.nextafter(old, math.inf)
    c = write_report(tmp_path / "c.json", second)
    assert script.main([a, c]) == 1
    out = capsys.readouterr().out
    assert out == f"{check['id']}\tworst_margin\t{old!r}\t{check['worst_margin']!r}\n"


def test_fields_on_one_side_only_and_signed_zeros_differ():
    script = load_script("report_diff")
    a = {"checks": [{"id": "C01", "worst_margin": 0.0, "errors": []}], "summary": {"errors": 0}}
    b = {"checks": [{"id": "C01", "worst_margin": -0.0, "errors": [{"trial": 1}]}], "summary": {}}
    assert script.differences(a, b) == [
        ("C01", "worst_margin", 0.0, -0.0),
        ("C01", "errors", [], script.ABSENT),
        ("-", "summary.errors", 0, script.ABSENT),
        ("C01", "errors.0.trial", script.ABSENT, 1),
        ("-", "summary", script.ABSENT, {}),
    ]


def test_wrong_arity_is_a_usage_error(capsys):
    assert load_script("report_diff").main(["only-one.json"]) == 2
    assert capsys.readouterr().err.startswith("usage:")
