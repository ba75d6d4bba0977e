#!/usr/bin/env python3
"""Repeat the benchmark command and summarise each metric's spread.

    python3 fdksbench/repeat.py --workload serve-gsks --seeds 1-10
    python3 fdksbench/repeat.py --workload krr-cv --seeds 1-5 --trace 1

Runs `python3 fdksbench/run.py --workload W --seed s --seconds S --trace T`
once per seed (S defaults to BENCHMARK.json's run_seconds) and prints, per
metric, the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median. For
end-to-end metrics the spread is compared with the metric's bound from
BENCHMARK.json: "ok" below a third of it, "WIDE" above it. The share of
failed operations and each run's wall time are printed too. --out FILE
also writes every run's result as JSON lines.

Seed 4242 is kept out of development runs: use it only to confirm a claim
on a seed the change was not tuned on.
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
HELD_OUT_SEED = 4242


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each run's result as a JSON line")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    if HELD_OUT_SEED in seeds:
        print(f"note: seed {HELD_OUT_SEED} is the held-out confirmation seed",
              file=sys.stderr)

    values, walls, attempted, failed = {}, [], [], []
    units = {}
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        t0 = time.monotonic()
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, cwd=ROOT)
        wall = time.monotonic() - t0
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (status {r.returncode})")
            sys.stderr.write(r.stderr[-2000:])
            continue
        res = json.loads(lines[-1])
        walls.append(wall)
        attempted.append(res["attempted"])
        failed.append(res["failed"])
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
            units[k] = v["unit"]
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "trace": args.trace, "wall_s": wall,
                                    **res}) + "\n")
        print(f"seed {seed}: {wall:.1f} s, attempted {res['attempted']}, "
              f"failed {res['failed']}", flush=True)

    if not walls:
        return 1
    print(f"\n{args.workload}: {len(walls)} runs, wall median "
          f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s, "
          f"failed share {sum(failed)}/{sum(attempted)}")
    print(f"{'metric':28s} {'unit':8s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s}  bound")
    worst = 0.0
    for k in sorted(values):
        v = values[k]
        med = statistics.median(v)
        q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                     else (v[0], v[0], v[0]))
        spread = (q3 - q1) / med if med else 0.0
        tag = ""
        if k in bounds:
            b = bounds[k]
            tag = f"{b:.2f} " + ("ok" if spread < b / 3 else
                                 "within" if spread <= b else "WIDE")
            if k != "setup_s":
                worst = max(worst, spread / b)
        print(f"{k:28s} {units[k]:8s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f}  {tag}")
    if args.trace == 0:
        print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
