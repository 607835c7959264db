#!/usr/bin/env python3
"""Runs the benchmark repeatedly and summarizes each metric's spread.

Run from the repository root:

    python3 perfbench/repeat.py --runs 10 --first-seed 1 > perfbench/baseline.json

Each run is a separate process with its own seed (first-seed, first-seed+1,
...). For every workload and end-to-end metric the summary gives the
median, the quartiles (statistics.quantiles, n=4), the spread (distance
between the quartiles as a share of the median) and every value, plus the
host record line of the first run. With --trace 1 it summarizes the
per-layer metrics instead. The process exits 1 if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]

    summary = {"runs": args.runs, "seconds": seconds, "trace": args.trace, "host": None, "workloads": {}}
    ok = True
    for name in names:
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                ok = False
                continue
            if summary["host"] is None:
                summary["host"] = next((l for l in lines if l.startswith("# host")), None)
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), file=sys.stderr)
        per_metric = {}
        for metric, vals in sorted(values.items()):
            med = statistics.median(vals)
            entry = {"unit": units[metric], "median": med, "values": vals}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            per_metric[metric] = entry
        summary["workloads"][name] = per_metric
    json.dump(summary, sys.stdout, indent=1)
    print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
