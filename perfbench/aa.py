#!/usr/bin/env python3
"""A/A runs of the service benchmark: the same build, run repeatedly.

Runs every workload of BENCHMARK.json `--runs` times with seeds 1..runs,
interleaving the workloads (one run of each in turn), then prints each
end-to-end metric's median, quartiles and spread (the distance between
the quartiles as a share of the median) next to its bound, and the
largest spread / bound.

    python3 perfbench/aa.py [--runs 10]

Run it from the repository root. The benchmark is built on the first run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        check=False,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs disagree with the reference")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    failed = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = run_once(bench["command"], w, i + 1, bench["run_seconds"])
            failed[w].append(r["failed"] / r["attempted"])
            for name, m in r["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i + 1}/{args.runs} {w}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                  file=sys.stderr)

    print(f"{'workload':<20} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    worst = 0.0
    for w in workloads:
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            worst = max(worst, spread / bound)
            print(f"{w:<20} {name:<14} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {bound:>6}")
        print(f"{w:<20} {'failed share':<14} {statistics.median(failed[w]):>12.5g}")
    print(f"largest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
