"""Run workloads repeatedly on successive seeds and print the spread of
each metric, so that the bounds in BENCHMARK.json rest on measured spread.

    python3 perfbench/steady.py                      # 10 runs of every workload
    python3 perfbench/steady.py --runs 5 cli         # 5 runs of one workload
    python3 perfbench/steady.py --runs 1             # every workload once

Each run is `run.py --workload W --seed S --seconds N --trace 0`, one
after another, with seeds 1 to --runs and N the run_seconds of
BENCHMARK.json.  For every metric it prints the median, the first and
third quartiles (statistics.quantiles with n=4) and the spread, which is
the distance between the quartiles as a share of the median, beside the
metric's bound.  It also prints each run's attempted and failed counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", help=f"any of {', '.join(names)} (default all)")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}; choose from {names}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads or names:
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            shown = " ".join(f"{k}={m['value']:.6g}{m['unit']}"
                             for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {shown}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share per run {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  (NOT CONSTANT)'}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"  bound {bound:g}: " + (
                    "steady" if share < bound / 3 else "within" if share <= bound else "WIDE")
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {workload} {name}: median {median:.6g} {unit}, "
                  f"q1 {q1:.6g}, q3 {q3:.6g}, spread {share:.4f}{verdict}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
