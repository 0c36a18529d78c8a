#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each workload and
reports, per metric, the median of the runs and the distance between
their first and third quartiles (statistics.quantiles(values, n=4)) as
a share of the median, next to the metric's bound. With --compare FILE
it also checks that each median is not worse than the one saved in FILE
by more than the bound.

Run it from the repository root:

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --workloads serve-loopback --runs 5
    python3 perfbench/spread.py --runs 10 --save first.json
    python3 perfbench/spread.py --runs 10 --compare first.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the raw values to this file")
    parser.add_argument("--compare", help="check medians against a saved file")
    opts = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(range(opts.first_seed, opts.first_seed + opts.runs))

    raw = {}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in seeds:
            result, wall = run_once(bench["command"], workload, seed,
                                    bench["run_seconds"], 0)
            walls.append(wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        print(f"{workload}: {len(seeds)} runs, {max(walls):.1f} s longest")
        for name, meta in bounds.items():
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            limit = meta["bound"] / 3
            flag = "ok" if spread < limit else "WIDE"
            ok &= flag == "ok"
            line = (f"  {name:<24} median {med:>12.5g} {meta['unit']:<7}"
                    f" spread {spread:6.3f} (bound {meta['bound']}, target < {limit:.3f}) {flag}")
            if opts.compare:
                old = json.load(open(opts.compare))[workload][name]
                old_med = statistics.median(old)
                worse = (med - old_med) / old_med
                if meta["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= meta["bound"] else "WORSE"
                ok &= verdict == "ok"
                line += f"  vs saved {old_med:.5g}: {worse:+.3f} {verdict}"
            print(line)
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
