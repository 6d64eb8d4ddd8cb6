"""The paired benchmark runner, against a stub benchmark with fixed results."""

import json
import sys

import pytest

from conftest import load_script

# The stub logs each call (checkout, workload, seed, seconds) to ../order.log
# and prints, after a progress line,
# base + step * seed for each metric named in ./stub.json, or a NaN line for
# a seed listed under "nan_seeds".
STUB = """
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
here = pathlib.Path.cwd()
with open(here.parent / "order.log", "a") as fh:
    fh.write(f"{here.name} {args['--workload']} {args['--seed']} {args['--seconds']}\\n")
spec = json.loads((here / "stub.json").read_text())
seed = int(args["--seed"])
print("progress", flush=True)
print("nproc=2 stub", file=sys.stderr)
if seed in spec.get("nan_seeds", []):
    print('{"correct": true, "attempted": 10, "failed": 0, '
          '"metrics": {"ops_per_s": {"value": NaN, "unit": "1/s"}}}')
else:
    metrics = {name: {"value": base + step * seed, "unit": "x"}
               for name, (base, step) in spec["metrics"].items()}
    print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}))
"""


@pytest.fixture
def bench(tmp_path):
    """run(parent_spec, change_spec, *args) -> (exit status, report, order log)."""
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    # only the parent's BENCHMARK.json is read
    (tmp_path / "parent").mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, str(stub)],
        "run_seconds": 7,
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [
            {"name": "ops_per_s", "better": "higher", "bound": 0.25},
            {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
        ],
    }))
    script = load_script("bench_pairs")

    def run(parent_spec, change_spec, *args):
        for side, spec in (("parent", parent_spec), ("change", change_spec)):
            (tmp_path / side).mkdir(exist_ok=True)
            (tmp_path / side / "stub.json").write_text(json.dumps(spec))
        log, out = tmp_path / "order.log", tmp_path / "out.json"
        log.unlink(missing_ok=True)
        code = script.main(["--parent", str(tmp_path / "parent"), "--change",
                            str(tmp_path / "change"), "--out", str(out), *args])
        return code, json.loads(out.read_text()), log.read_text().split("\n")[:-1]

    return run


def test_pairs_alternate_and_a_clear_gain_holds(bench):
    parent = {"metrics": {"ops_per_s": [100, 1], "op_p50_ms": [10, 0.1]}}
    change = {"metrics": {"ops_per_s": [120, 1], "op_p50_ms": [9, 0.1]}}
    code, report, order = bench(parent, change, "--workload", "w1:10", "--claim", "ops_per_s")
    assert code == 0 and report["ok"]
    # odd pairs run the parent first, even pairs the change first; seed = pair
    # every run lasts the benchmark's run_seconds
    assert order[:4] == ["parent w1 1 7", "change w1 1 7", "change w1 2 7", "parent w1 2 7"]
    assert len(order) == 20 and report["environment"]["change"] == ["nproc=2 stub"]
    w1 = report["workloads"]["w1"]
    assert w1["pairs"] == 10 and len(w1["runs"]) == 20
    assert w1["runs"][1] == {"pair": 1, "side": "change", "seed": 1, "exit": 0, "stdout_lines": 2,
                             "correct": True, "attempted": 10, "failed": 0,
                             "metrics": {"ops_per_s": 121, "op_p50_ms": 9.1}}
    # 101..110: the exclusive quartiles are at positions 2.75, 5.5 and 8.25
    assert w1["summary"]["parent"]["metrics"]["ops_per_s"] == {
        "median": 105.5, "q1": 102.75, "q3": 108.25}
    assert w1["wins"] == {"ops_per_s": 10, "op_p50_ms": 10}
    verdict = w1["verdicts"]["ops_per_s"]
    assert verdict["verdict"] == "ok" and verdict["worse_by"] == pytest.approx(-20 / 105.5)
    assert w1["claim"] == {"metric": "ops_per_s", "wins": 10, "pairs": 10, "median_gap": 20.0,
                           "parent_iqr": 5.5, "holds": True}


def test_a_regression_a_wide_parent_and_a_short_claim_fail(bench):
    parent = {"metrics": {"ops_per_s": [100, 30], "op_p50_ms": [10, 0]}}
    change = {"metrics": {"ops_per_s": [400, 0], "op_p50_ms": [13, 0]}}
    code, report, _ = bench(parent, change, "--pairs", "3", "--claim", "ops_per_s")
    assert code == 1 and not report["ok"]
    # every workload of the benchmark runs when none is named
    assert list(report["workloads"]) == ["w1", "w2"]
    w1 = report["workloads"]["w1"]
    # 130, 160, 190: spread 60 / 160 is wider than the bound
    assert w1["verdicts"]["ops_per_s"]["verdict"] == "unresolved"
    assert w1["verdicts"]["op_p50_ms"]["verdict"] == "worse"
    assert w1["verdicts"]["op_p50_ms"]["worse_by"] == pytest.approx(0.3)
    # three wins of three pairs are not enough to claim a gain
    assert w1["claim"]["wins"] == 3 and not w1["claim"]["holds"]


def test_a_nan_result_line_is_malformed(bench):
    spec = {"metrics": {"ops_per_s": [100, 0], "op_p50_ms": [10, 0]}}
    code, report, _ = bench(spec, {**spec, "nan_seeds": [2]}, "--workload", "w2")
    assert code == 1 and not report["ok"]
    w2 = report["workloads"]["w2"]
    bad = [r for r in w2["runs"] if "malformed" in r]
    assert [(r["side"], r["seed"], r["exit"]) for r in bad] == [("change", 2, 0)]
    assert bad[0]["malformed"].startswith("last line is not strict JSON")
    assert w2["summary"]["change"]["runs"] == 2 and w2["summary"]["change"]["malformed"] == 1
    assert w2["pairs"] == 3 and w2["wins"]["ops_per_s"] == 0


def test_parse_result_refuses_what_is_not_a_strict_result():
    parse = load_script("bench_pairs").parse_result
    good = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    assert parse("log\n" + json.dumps(good) + "\n") == good
    for text in ("", '{"metrics": {}}', '{"correct": true, "attempted": Infinity, "failed": 0, '
                 '"metrics": {}}', "[1, 2]"):
        assert isinstance(parse(text), str)


def test_a_claim_counts_every_pair_run(bench):
    # the change wins every whole pair, but the parent's seed-4 run is NaN:
    # 9 wins of the 10 pairs run meet the rule, 8 of 10 would not
    parent = {"metrics": {"ops_per_s": [100, 1], "op_p50_ms": [10, 0]}, "nan_seeds": [4]}
    change = {"metrics": {"ops_per_s": [200, 1], "op_p50_ms": [10, 0]}}
    code, report, _ = bench(parent, change, "--workload", "w1:10", "--claim", "ops_per_s")
    w1 = report["workloads"]["w1"]
    assert w1["claim"]["wins"] == 9 and w1["claim"]["pairs"] == 10 and w1["claim"]["holds"]
    # a malformed run fails the comparison even when the claim holds
    assert code == 1 and not report["ok"]
    parent["nan_seeds"] = [4, 7]
    code, report, _ = bench(parent, change, "--workload", "w1:10", "--claim", "ops_per_s")
    w1 = report["workloads"]["w1"]
    assert w1["claim"]["wins"] == 8 and w1["claim"]["pairs"] == 10 and not w1["claim"]["holds"]
