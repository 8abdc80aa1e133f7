#!/usr/bin/env python3
"""A/A spread of the benchmark of record, measured the way the driver does.

Runs the command of BENCHMARK.json RUNS times per workload, each time
with another --seed, and prints for every end-to-end metric its median,
its quartiles and the inter-quartile spread as a share of the median
(statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json
fixes. Run it from the repository root:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]...

Writes nothing; exits 1 if a run fails its checks or a spread (other
than that of setup_s) exceeds its bound.
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
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: checks failed\n{done.stderr}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload} ({args.runs} seeds from {args.first_seed})")
        print(f"  {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/median':>12}{'bound':>8}")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag, ok = "  OVER", False
            elif name != "setup_s" and spread > bounds[name] / 3:
                flag = "  (above a third of the bound)"
            print(f"  {name:<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>12.4f}{bounds[name]:>8}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
