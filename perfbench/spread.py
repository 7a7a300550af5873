#!/usr/bin/env python3
"""Runs the benchmark several times per workload with different seeds and
prints, per end-to-end metric, the median and the spread (interquartile
range over median, as statistics.quantiles(n=4) gives the quartiles),
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Run it from the repository root. Results go to stdout; each run's output
is kept under .perfbench/spread/.
"""
import json
import os
import statistics
import subprocess
import sys


def main():
    args = sys.argv[1:]
    runs, first_seed = 10, 1
    if "--runs" in args:
        i = args.index("--runs")
        runs = int(args[i + 1])
        del args[i : i + 2]
    if "--first-seed" in args:
        i = args.index("--first-seed")
        first_seed = int(args[i + 1])
        del args[i : i + 2]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(".perfbench/spread", exist_ok=True)
    ok = True
    for w in workloads:
        values = {}
        for seed in range(first_seed, first_seed + runs):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            p = subprocess.run(cmd, capture_output=True, text=True)
            with open(f".perfbench/spread/{w}-{seed}.txt", "w") as f:
                f.write(p.stdout + p.stderr)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: incorrect ({result['failed']} failed)")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            if name != "setup_s" and spread > bound:
                flag, ok = "  <-- ABOVE BOUND", False
            print(f"{w:<16} {name:<22} median {med:>12.4f}  spread {spread:6.3f}  bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
