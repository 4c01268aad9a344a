#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

The spread is the distance between the first and third quartile of the
runs' values, as a share of their median; BENCHMARK.json's bound for a
metric should stay well above it. Run from the repository root:

    python3 dpbench/spread.py --workload matrix-test --seeds 1-5 [--trace 0]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    values = {}
    for s in seeds(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(s),
                                  "--seconds", str(seconds), "--trace", a.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        res = json.loads(last)
        print(f"seed {s}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for k, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = 0.0
        bound = bounds.get(k)
        flag = "" if bound is None else f" bound={bound} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{k:36s} median={med:<14.6g} spread={spread:.4f}{flag}")


if __name__ == "__main__":
    main()
