#!/usr/bin/env python3
"""Steadiness check: runs each workload several times, each with another
seed and in its own process, and prints every metric's median, first and
third quartile and spread (quartile distance as a share of the median),
using `statistics.quantiles(values, n=4)`.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seconds 20
    python3 perfbench/steady.py --runs 5 --workload serve-mixed --trace 1

Each run's last stdout line (the result object) and the record line
before it are appended to `--out` as JSON lines when given.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["analyze-iscas", "serve-mixed", "optimize-dual"]
COMMAND = ["cargo", "run", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml", "--"]


def run_once(workload, seed, seconds, trace):
    args = COMMAND + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarize(workload, results):
    print(f"\n{workload}: {len(results)} runs")
    print(f"  {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        if any(v is None for v in values):
            print(f"  {name:<32} {'missing':>12}")
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:<32} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f}")
    failed = sum(r["failed"] for r in results)
    print(f"  failed operations: {failed} of {sum(r['attempted'] for r in results)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out")
    args = parser.parse_args()
    for workload in args.workload or WORKLOADS:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            record, result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"record": record, "result": result}) + "\n")
        summarize(workload, results)


if __name__ == "__main__":
    main()
