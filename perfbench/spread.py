#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its bounds.

Runs the benchmark command from BENCHMARK.json once per seed on one
workload and prints, per metric, the median and the distance between
the first and third quartiles as a share of the median, next to the
metric's bound. With --against, also prints how far each median moved
from an earlier set saved with --out.

    python3 perfbench/spread.py fleet-serial --seeds 1-10 --out a.json
    python3 perfbench/spread.py fleet-serial --seeds 1-10 --against a.json
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", help="save the per-seed values here")
    ap.add_argument("--against", help="compare medians with a set saved by --out")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        res = json.loads(last)
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect result {last}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)

    before = json.load(open(args.against)) if args.against else {}
    worst = 0.0
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = defs.get(name, {}).get("bound")
        line = f"{name:32s} median={med:<12.6g} spread={spread:7.2%}"
        if bound is not None:
            line += f" bound={bound:.0%} spread/bound={spread / bound:5.2f}"
            worst = max(worst, spread / bound)
        if name in before:
            old = statistics.median(before[name])
            worse = (med - old) / old if defs.get(name, {}).get("better") == "lower" else (old - med) / old
            line += f" worse_than_before={worse:+.2%}"
        print(line)
    print(f"largest spread/bound: {worst:.2f}")
    if args.out:
        json.dump(values, open(args.out, "w"))


if __name__ == "__main__":
    main()
