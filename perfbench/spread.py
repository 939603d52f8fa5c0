#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread the way the acceptance check computes it: the distance between the
first and third quartile of the per-run values (statistics.quantiles, n=4)
as a share of their median, next to the metric's bound.

    python3 perfbench/spread.py --workload dense-three-color --runs 5
    python3 perfbench/spread.py --runs 10 --first-seed 100     # all workloads

Run from the repository root. Raw result lines are appended to
.bench_out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}; meta: "
              + (lines[-2] if len(lines) > 1 else "none"), flush=True)
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    os.makedirs(".bench_out", exist_ok=True)

    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        with open(f".bench_out/spread-{workload}.jsonl", "a") as log:
            for i in range(args.runs):
                seed = args.first_seed + i
                result = run_once(bench["command"], workload, seed, seconds, args.trace)
                log.write(json.dumps({"seed": seed, "result": result}) + "\n")
                if result is None or not result["correct"] or result["failed"]:
                    ok = False
                    continue
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                    for m in metrics[:6]), flush=True)
        print(f"\n{workload}: {args.runs} runs of {seconds}s")
        for m in metrics:
            v = values[m["name"]]
            median = statistics.median(v)
            if len(v) >= 2 and median:
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / median
            else:
                spread = 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "FAIL")
                if m["name"] != "setup_s" and spread > bound:
                    ok = False
            print(f"  {m['name']:32s} median {median:<14.6g} spread {spread:7.3f}"
                  + (f"  bound {bound}  {verdict}" if bound is not None else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
