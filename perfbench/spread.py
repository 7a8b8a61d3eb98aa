#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per seed on one workload and prints, for each
end-to-end metric, the median of the runs and the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of that
median, next to a third of the metric's bound in BENCHMARK.json. It also
checks that every run was correct and that the exact counters of each
spec repeat across the runs. Run from the repository root:

    python3 perfbench/spread.py --workload sweep-cold --runs 10 --first-seed 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds",
                                  str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print("seed %d: exit %d\n%s" % (seed, proc.returncode,
                                            proc.stderr), file=sys.stderr)
            return 1
        result = json.loads(last)
        ok = ok and result["correct"] and result["failed"] == 0
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)

    # The exact counters must also repeat across runs, not only within
    # one (run.py checks the latter).
    seen = None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        path = os.path.join(".bench_build", "results",
                            "%s-seed%d-trace0.json" % (args.workload, seed))
        with open(path) as f:
            record = json.load(f)
        jobs = run.WORKLOADS[args.workload][1]
        counters = {spec: run.exact_counters(c, jobs) for spec, c in
                    record["detail"]["counters"].items()}
        if seen is None:
            seen = counters
        elif counters != seen:
            print("seed %d: exact counters differ from the first run" % seed)
            ok = False

    print("workload %s, %d runs, all correct, counters exact: %s" % (
        args.workload, args.runs, ok))
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2
        print("%-18s median %12.6g  iqr/median %.4f  bound/3 %.4f  %s" % (
            name, q2, spread, bounds[name] / 3,
            "ok" if spread < bounds[name] / 3 else "WIDE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
