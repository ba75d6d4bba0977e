#!/usr/bin/env python3
"""The fdks benchmark: one command, one workload per call.

    python3 fdksbench/run.py --workload krr-cv|serve-gsks|dist-hybrid \
        --seed N --seconds S --trace 0|1
    python3 fdksbench/run.py --smoke     # every workload at small N: self-test

Run from the root of a checkout. The first call configures and builds
fdksbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/fdksbench, default .bench_build/fdksbench; later calls
only re-check the build. The workload runs in a process of its own, so its
peak resident memory and cache state belong to it alone; with --trace 1 a
second process first measures the machine's FMA peak and STREAM triad.

BENCHMARK.json lists krr-cv and serve-gsks. dist-hybrid runs the same way
but is not in that list: its end-to-end figures do not repeat within the
bounds on a shared 4-vCPU host (see README.md); it stays for the per-layer
view of mpisim, GMRES and the hybrid path.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1) of BENCHMARK.json. The exit status is 0 only when every output
check passed; a failed build or an aborted workload prints no result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Engine-worker OpenMP threads (OMP_NUM_THREADS of the workload process)
# and the thread count the machine calibration uses as its reference.
# The workloads fix their own main-thread and rank-thread counts in code.
WORKLOADS = {
    "krr-cv": {"omp": 1, "calib_threads": 1},
    "serve-gsks": {"omp": 1, "calib_threads": 1},
    "dist-hybrid": {"omp": 1, "calib_threads": 2},
}
RUN_LIMIT_S = 170.0  # A run (after the build) must end within 180 s.


def log(msg):
    print(f"fdksbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "fdksbench")


def build():
    """Configure once, then an incremental build; False on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "fdksbench", "fdksbench_calibrate"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def child_env(workload):
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(WORKLOADS[workload]["omp"])
    env["OMP_DYNAMIC"] = "false"
    for k in ("FDKS_TRACE", "OMP_PROC_BIND", "OMP_PLACES", "GOMP_CPU_AFFINITY"):
        env.pop(k, None)
    return env


def run_child(cmd, env, deadline):
    """Run to completion within the deadline; (returncode, stdout)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           env=env, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 124, ""
    return r.returncode, r.stdout


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None


def calibrate(workload, deadline):
    exe = os.path.join(build_dir(), "fdksbench_calibrate")
    threads = str(WORKLOADS[workload]["calib_threads"])
    rc, out = run_child([exe, "--threads", threads], child_env(workload),
                        deadline)
    cal = last_json(out) if rc == 0 else None
    if cal is None:
        log("machine calibration failed")
    else:
        log(f"calibration: {json.dumps(cal)}")
    return cal


def run_workload(workload, seed, seconds, trace, smoke, deadline):
    """Returns (exit status, result dict or None)."""
    cal = None
    if trace:
        cal = calibrate(workload, deadline)
        if cal is None:
            return 3, None
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir(), "fdksbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", out_dir]
    if smoke:
        cmd.append("--smoke")
    rc, out = run_child(cmd, child_env(workload), deadline)
    if rc not in (0, 1):
        log(f"workload {workload} did not finish (status {rc})")
        return (rc or 3), None
    res = last_json(out)
    if res is None:
        log(f"workload {workload} printed no result")
        return 3, None
    if cal is not None:
        m = res["metrics"]
        fma = cal["machine.fma_gflops"]
        triad = cal["machine.triad_gbs"]
        m["machine.fma_gflops"] = {"value": fma, "unit": "GFLOP/s"}
        m["machine.triad_gbs"] = {"value": triad, "unit": "GB/s"}
        m["factor.pct_peak"] = {
            "value": 100.0 * m["factor.gemm_gflops"]["value"] / fma,
            "unit": "%"}
        m["solve.v_apply_pct_triad"] = {
            "value": 100.0 * m["solve.v_apply_gbs"]["value"] / triad,
            "unit": "%"}
    return rc, res


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    """Every workload (dist-hybrid too) at small N, untraced and traced,
    every check on; also checks each result carries exactly the metrics
    BENCHMARK.json names. Exit 0 when all pass."""
    spec = load_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            t0 = time.monotonic()
            rc, res = run_workload(w, 1, 2, trace, True,
                                   time.monotonic() + RUN_LIMIT_S)
            want = layer if trace else e2e
            good = (rc == 0 and res is not None and res["correct"]
                    and res["failed"] == 0 and res["attempted"] > 0
                    and {k: v["unit"] for k, v in res["metrics"].items()}
                    == want)
            ok = ok and good
            print(f"smoke {w:12s} trace={trace} "
                  f"{'ok' if good else 'FAILED'} "
                  f"({time.monotonic() - t0:.1f} s)")
    print("smoke: all workloads passed" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at small N (the self-test)")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2
    if args.smoke:
        return smoke()
    deadline = time.monotonic() + RUN_LIMIT_S
    rc, res = run_workload(args.workload, args.seed, args.seconds,
                           args.trace == 1, False, deadline)
    if res is None:
        return rc
    print(json.dumps(res), flush=True)
    return 0 if res["correct"] and rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
