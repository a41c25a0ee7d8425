#!/usr/bin/env python3
"""Run-to-run spread of the LagAlyzer benchmark.

Runs the benchmark once per seed on each workload and prints, per
metric, the median, the quartiles and the spread (Q3 - Q1) / median,
flagged against the metric's bound in BENCHMARK.json: "ok" under a
third of the bound, "WIDE" under the bound, "OVER" past it.

Usage, from the repo root:
    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10]
        [--seconds N] [--trace 0|1] [--json RUNS.jsonl]
        [--baseline OUT.json]
    python3 perfbench/spread.py --input RUNS.jsonl [--baseline OUT.json]

--json keeps every run's result line, with its wall time (elapsed_s), as
it finishes; --input summarizes such a file
instead of running; --baseline writes the summary as JSON, with the
seeds, --seconds and the CPU it ran on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(bench, workloads, seeds, seconds, trace, log=None):
    rows = []
    for workload in workloads:
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
            start = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            elapsed = time.monotonic() - start
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            result.update(workload=workload, seed=seed, elapsed_s=elapsed)
            rows.append(result)
            if log:
                log.write(json.dumps(result) + "\n")
                log.flush()
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"in {elapsed:.1f} s", flush=True)
    return rows


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summarize(bench, rows):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in rows):
        runs = [r for r in rows if r["workload"] == workload]
        summary[workload] = {"runs": len(runs),
                             "all_correct": all(r["correct"] for r in runs),
                             "metrics": {}}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 \
                else [median] * 3
            spread = (q[2] - q[0]) / median if median else 0.0
            summary[workload]["metrics"][name] = {
                "unit": first["unit"], "median": median, "q1": q[0],
                "q3": q[2], "spread": spread}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else (
                    "WIDE" if spread <= bound else "OVER")
            print(f"  {workload:18s} {name:28s} median {median:12.6g} "
                  f"q1 {q[0]:12.6g} q3 {q[2]:12.6g} "
                  f"spread {spread:6.3f} {flag}")
    return summary


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    parser.add_argument("--input")
    parser.add_argument("--baseline")
    args = parser.parse_args()

    if args.input:
        with open(args.input) as f:
            rows = [json.loads(line) for line in f if line.strip()]
    else:
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        with open(args.json or os.devnull, "w") as log:
            rows = run(bench, workloads, parse_seeds(args.seeds),
                       args.seconds, args.trace, log)
    summary = summarize(bench, rows)
    if args.baseline:
        baseline = {
            "seeds": sorted({r["seed"] for r in rows}),
            "run_seconds": args.seconds,
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "workloads": summary,
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
