#!/usr/bin/env python3
"""Steadiness of the benchmark: repeat runs, print median and quartiles.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--trace 0]
                            [--save results.json] [workload ...]

Runs the command of BENCHMARK.json once per seed (first-seed, first-seed+1,
...) on each named workload (default: all), with the run length of
BENCHMARK.json. For every metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and their distance as a
share of the median, next to the metric's bound. A spread under a third of
the bound is marked `ok`; `setup_s` is exempt, since only its median is
compared. It also prints each workload's failed/attempted shares, which
must be equal in every run. --save writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    saved = {}
    for workload in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}: {shown}", flush=True)
        saved[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed shares {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  NOT EQUAL'}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(metric)
            mark = ""
            if bound is not None and metric != "setup_s":
                mark = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {metric:44s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}  {mark}")
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
