#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts with the repository benchmark.

    python3 perfbench/compare.py --parent ../parent --change . --pairs 10

For each workload it runs perfbench/run.py in both checkouts, pair by pair,
with the same seed on both sides of a pair and alternating which side runs
first, then prints one row per (workload, metric):

  gain         at least ten pairs ran, the change wins at least nine
               tenths of them (ties count for neither) and the medians differ
               by more than the parent's interquartile range;
  regression   the change's median is worse than the parent's by more than
               the metric's bound in BENCHMARK.json;
  unresolved   either side's interquartile range, as a share of its median,
               exceeds the bound, unless every change run beats every parent
               run;
  within bound none of the above.

Per-layer metrics (--trace 1) have no bound, so they are only ever "gain"
or "no claim". --save keeps every run's result line, so every run made can
be reported. Both checkouts must hold the same benchmark.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
MIN_PAIRS = 10
FIRST_SEED = 100


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent, change, better, bound):
    """Verdict for one (workload, metric) from paired runs.

    `parent[i]` and `change[i]` come from pair i; `better` is "higher" or
    "lower"; `bound` is the allowed relative worsening, or None.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on both sides")
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    row = {
        "pairs": len(parent),
        "wins": wins,
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "gap": sign * (cm - pm) / abs(pm) if pm else 0.0,
    }
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and sign * (cm - pm) > (p3 - p1)):
        row["verdict"] = "gain"
        return row
    if bound is None:
        row["verdict"] = "no claim"
        return row

    def spread(q1, median, q3):
        return (q3 - q1) / abs(median) if median else float("inf")

    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(spread(p1, pm, p3), spread(c1, cm, c3)) > bound and not all_better:
        row["verdict"] = "unresolved"
    elif row["gap"] < -bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "within bound"
    return row


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args):
    runs = []
    for workload in args.workloads:
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                result = run_once(checkout, workload, seed, args.seconds, args.trace)
                if not result["correct"]:
                    raise SystemExit(f"{side} run of {workload} seed {seed} is not correct")
                runs.append({"workload": workload, "pair": i, "side": side, "seed": seed,
                             "result": result})
                print(f"{workload} pair {i} {side} done", file=sys.stderr, flush=True)
    return runs


def report(runs, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    workloads = sorted({r["workload"] for r in runs})
    for workload in workloads:
        sides = {"parent": {}, "change": {}}
        for run in runs:
            if run["workload"] == workload:
                sides[run["side"]][run["pair"]] = run["result"]["metrics"]
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        names = sorted(set().union(*(sides["parent"][p] for p in pairs))) if pairs else []
        for name in names:
            info = metrics.get(name, {"better": "lower", "unit": "?"})
            parent = [sides["parent"][p][name]["value"] for p in pairs]
            change = [sides["change"][p][name]["value"] for p in pairs]
            row = judge(parent, change, info["better"], info.get("bound"))
            row.update(workload=workload, metric=name, unit=info["unit"])
            rows.append(row)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write every run's result here")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if json.loads((args.parent / "BENCHMARK.json").read_text()) != spec:
        parser.error("the two checkouts define different benchmarks")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    args.workloads = (args.workloads.split(",") if args.workloads
                      else [w["name"] for w in spec["workloads"]])
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    runs = collect(args)
    if args.save:
        args.save.write_text(json.dumps({"benchmark": spec, "runs": runs}) + "\n")

    rows = report(runs, spec)
    def cell(side):
        return f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"

    print(f"{'workload':14} {'metric':42} {'parent median [q1, q3]':36} "
          f"{'change median [q1, q3]':36} {'gap':>8} {'wins':>6}  verdict")
    for row in rows:
        metric = f"{row['metric']} ({row['unit']})"
        print(f"{row['workload']:14} {metric:42} {cell(row['parent']):36} "
              f"{cell(row['change']):36} {row['gap']:+8.1%} "
              f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
