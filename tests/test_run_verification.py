"""The archive script: every suite once, JSON and CSV from the same run."""

import csv
import json
import warnings

from sectormeans import RunConfig

from conftest import load_script


def test_json_and_csv_agree(tmp_path, capsys):
    script = load_script("run_verification")
    assert script.main(["--trials", "2", "--dims", "2..3", "--out-dir", str(tmp_path)]) == 0
    (run_dir,) = tmp_path.iterdir()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert set(summary) == set(script.SUITES)
    for suite in script.SUITES:
        checks = json.loads((run_dir / f"{suite}.json").read_text())["checks"]
        with open(run_dir / f"{suite}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["check_id"] for r in rows] == [c["id"] for c in checks]
        for row, c in zip(rows, checks):
            assert int(row["violations"]) == c["violations"]
            assert float(row["worst_margin"]) == c["worst_margin"]
            assert int(row["worst_seed"]) == c["worst_seed"]


def test_defaults_follow_run_config():
    _, config = load_script("run_verification").parse_args([])
    assert config == RunConfig()


def test_main_leaves_warning_filters_alone(tmp_path, capsys):
    with warnings.catch_warnings():
        # start from no filters at all, so any filter that main adds shows
        warnings.resetwarnings()
        script = load_script("run_verification")
        script.main(["--trials", "1", "--dims", "2..2", "--out-dir", str(tmp_path)])
        assert warnings.filters == []


def test_out_dir_that_cannot_be_made_exits_two(tmp_path, capsys, monkeypatch):
    """An --out-dir under a regular file is refused on one line before any
    suite runs."""
    script = load_script("run_verification")

    def no_run(*args, **kwargs):
        raise AssertionError("run_suite called")

    monkeypatch.setattr(script, "run_suite", no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert script.main(["--trials", "1", "--out-dir", str(blocker / "runs")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"precondition failed: cannot write {blocker / 'runs'}/verify-")
    assert err.endswith(": Not a directory\n") and len(err.splitlines()) == 1
