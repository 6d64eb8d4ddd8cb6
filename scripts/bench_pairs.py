#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload compute-calls:10 --workload sweep-all:3 --trace 0 --out BENCH.json

The benchmark is the parent checkout's BENCHMARK.json: each checkout runs its
command unchanged, from its own root, with `--workload W --seed S --seconds X
--trace T` appended, where X is the benchmark's `run_seconds`.
Pair k (from 1) uses seed k; odd pairs run the parent first and even pairs
the change first, so a slow stretch of the machine falls on both sides.
`--workload NAME:N` asks for N pairs of that workload (`--pairs` when N is
left out); with no `--workload`, every workload in BENCHMARK.json runs.

A run counts only if it exits 0 and its last line of standard output is one
JSON object in strict JSON (no NaN or Infinity) with the keys `correct`,
`attempted`, `failed` and `metrics`; any other run is recorded as malformed,
with the reason.  Standard error lines starting with `nproc=` are kept as
the environment.

The output (to `--out`, or standard output) holds every run, each side's
median and quartiles per metric (`statistics.quantiles`, n=4), and per
metric the pairs that the change wins (ties, and pairs with a malformed run,
count for neither side), in the direction BENCHMARK.json gives the metric.
Each end-to-end metric gets a no-regression verdict from its bound: "unresolved"
when the parent's spread (Q3 - Q1) / median is wider than the bound, else
"worse" when the change's median is worse than the parent's by more than
the bound, else "ok".  `--claim METRIC` also applies the gain rule: the
change wins at least 9 in 10 of the pairs run (and at least 10 are run), and
its median beats the parent's by more than the parent's Q3 - Q1.

The exit status is 0 when every run is well-formed and correct, no side's
failed share is larger on the change, every verdict is "ok" and the claim,
if any, holds; it is 1 otherwise, and 2 on a usage error.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
# a run that takes longer than this is recorded as malformed, not waited for
RUN_TIMEOUT_S = 1800


def _refuse_constant(name):
    raise ValueError(f"non-finite constant {name}")


def parse_result(stdout):
    """The last stdout line as a result dict, or a str saying why it is not one."""
    lines = stdout.strip().splitlines()
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1], parse_constant=_refuse_constant)
    except ValueError as exc:
        return f"last line is not strict JSON: {exc}"
    if not isinstance(result, dict) or any(key not in result for key in RESULT_KEYS):
        return f"last line lacks one of the keys {', '.join(RESULT_KEYS)}"
    return result


def run_once(command, checkout, workload, seed, seconds, trace):
    """One benchmark run in `checkout`, as a record of its outcome."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "malformed": f"no exit within {RUN_TIMEOUT_S} s"}, []
    environment = [line for line in proc.stderr.splitlines() if line.startswith("nproc=")]
    record = {"exit": proc.returncode, "stdout_lines": len(proc.stdout.strip().splitlines())}
    result = parse_result(proc.stdout)
    if proc.returncode != 0:
        record["malformed"] = f"exit status {proc.returncode}"
    elif isinstance(result, str):
        record["malformed"] = result
    else:
        record.update(correct=result["correct"], attempted=result["attempted"],
                      failed=result["failed"],
                      metrics={k: v["value"] for k, v in result["metrics"].items()})
    return record, environment


def quartiles(values):
    """{"median", "q1", "q3"} of the values, as perfbench's README defines them."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _better(a, b, better):
    return a > b if better == "higher" else a < b


def summarize(runs, benchmark, claim=None):
    """Per-side statistics, pair wins, verdicts and the claim for one workload."""
    end_to_end = benchmark["end_to_end"]
    good = [r for r in runs if "malformed" not in r]
    names = sorted({name for r in good for name in r["metrics"]})
    summary = {}
    for side in SIDES:
        mine = [r for r in good if r["side"] == side]
        attempted = sum(r["attempted"] for r in mine)
        summary[side] = {
            "runs": len(mine),
            "malformed": sum(1 for r in runs if r["side"] == side and "malformed" in r),
            "all_correct": all(r["correct"] for r in mine),
            "failed_share": sum(r["failed"] for r in mine) / attempted if attempted else 0.0,
            "metrics": {name: quartiles([r["metrics"][name] for r in mine if name in r["metrics"]])
                        for name in names if any(name in r["metrics"] for r in mine)},
        }
    by_pair = {}
    for r in good:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    whole = [p for p in by_pair.values() if len(p) == 2]
    directions = {m["name"]: m["better"] for m in end_to_end + benchmark.get("per_layer", [])}
    wins = {name: sum(1 for p in whole if name in p["parent"] and name in p["change"]
                      and _better(p["change"][name], p["parent"][name], directions.get(name, "lower")))
            for name in names}
    verdicts = {}
    for m in end_to_end:
        old = summary["parent"]["metrics"].get(m["name"])
        new = summary["change"]["metrics"].get(m["name"])
        if old is None or new is None or old["median"] == 0:
            continue
        sign = -1.0 if m["better"] == "higher" else 1.0
        worse_by = sign * (new["median"] - old["median"]) / abs(old["median"])
        spread = (old["q3"] - old["q1"]) / abs(old["median"])
        verdict = "unresolved" if spread > m["bound"] else "worse" if worse_by > m["bound"] else "ok"
        verdicts[m["name"]] = {"parent_median": old["median"], "change_median": new["median"],
                               "worse_by": worse_by, "parent_spread": spread,
                               "bound": m["bound"], "verdict": verdict}
    ran = len({r["pair"] for r in runs})
    out = {"pairs": ran, "summary": summary, "wins": wins, "verdicts": verdicts}
    if claim is not None:
        old = summary["parent"]["metrics"].get(claim)
        new = summary["change"]["metrics"].get(claim)
        won = wins.get(claim, 0)
        out["claim"] = {"metric": claim, "wins": won, "pairs": ran, "holds": False}
        if old is not None and new is not None:
            gap, iqr = abs(new["median"] - old["median"]), old["q3"] - old["q1"]
            out["claim"].update(median_gap=gap, parent_iqr=iqr, holds=(
                ran >= 10 and won >= 0.9 * ran and gap > iqr
                and _better(new["median"], old["median"], directions.get(claim, "lower"))))
    return out


def workload_ok(result):
    parent, change = result["summary"]["parent"], result["summary"]["change"]
    return (parent["malformed"] == change["malformed"] == 0
            and parent["all_correct"] and change["all_correct"]
            and change["failed_share"] <= parent["failed_share"]
            and all(v["verdict"] == "ok" for v in result["verdicts"].values())
            and result.get("claim", {"holds": True})["holds"])


def parse_workload(text, pairs):
    name, _, count = text.partition(":")
    return name, int(count) if count else pairs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workload", action="append", default=[], metavar="NAME[:PAIRS]")
    ap.add_argument("--pairs", type=int, default=3, help="pairs per workload (default %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--claim", default=None, metavar="METRIC",
                    help="apply the gain rule to this metric")
    ap.add_argument("--out", default=None, help="output JSON path (default stdout)")
    args = ap.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    benchmark = json.loads(
        pathlib.Path(checkouts["parent"], "BENCHMARK.json").read_text(encoding="utf-8"))
    command, seconds = benchmark["command"], benchmark["run_seconds"]
    try:
        plan = [parse_workload(w, args.pairs) for w in args.workload] or [
            (w["name"], args.pairs) for w in benchmark["workloads"]]
    except ValueError:
        ap.error("--workload takes NAME or NAME:PAIRS")

    environment = {side: [] for side in SIDES}
    report = {"command": command, "seconds": seconds, "trace": args.trace,
              "checkouts": checkouts, "environment": environment, "workloads": {}}
    for workload, pairs in plan:
        runs = []
        for pair in range(1, pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                record, env = run_once(command, checkouts[side], workload, pair,
                                       seconds, args.trace)
                environment[side] += [line for line in env if line not in environment[side]]
                runs.append({"pair": pair, "side": side, "seed": pair, **record})
                status = record.get("malformed") or (
                    f"{record['attempted']} ops, {record['failed']} failed, "
                    f"ops_per_s={record['metrics'].get('ops_per_s', 'n/a')}")
                print(f"{workload} pair {pair} {side}: {status}", file=sys.stderr)
        result = summarize(runs, benchmark, args.claim)
        report["workloads"][workload] = {**result, "runs": runs}
        for name, v in result["verdicts"].items():
            print(f"{workload} {name}: {v['verdict']} (worse by {v['worse_by']:+.3f}, "
                  f"parent spread {v['parent_spread']:.3f}, bound {v['bound']})", file=sys.stderr)
    report["ok"] = all(workload_ok(w) for w in report["workloads"].values())
    text = json.dumps(report, indent=1)
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
