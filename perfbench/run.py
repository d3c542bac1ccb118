#!/usr/bin/env python3
"""Builds the elephant benchmark from source and runs it.

  python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 10 --trace 0
      one workload; the last line of stdout is the result JSON
  python3 perfbench/run.py [--seed 1] [--seconds 10] [--trace 0|1]
      every workload, one after another, with a summary
  python3 perfbench/run.py --steady 10 [--seconds 10]
      every workload once per seed 1..N; prints each metric's median,
      quartiles and relative spread against the bounds in BENCHMARK.json
  --tpch-seed n / --query-seed n
      override the TPC-H generator seed and the query-parameter seed that
      --seed otherwise derives
  python3 perfbench/run.py --selftest
      proves the oracle can fail: a run whose comparison sees one corrupted
      result row must report a failed operation

Run it from anywhere; it builds into .bench_build/ and writes traces to
.bench_out/, both at the repository root.
"""

import argparse
import fcntl
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ["paper-cold", "warm-mix", "append-read"]


def build():
    """Configures and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: engine sources missing: {ROOT / 'src'} has no CMakeLists.txt")
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j4",
                      "--target", "perfbench"])
        for step in steps:
            # Build chatter goes to stderr: stdout's last line is the result.
            if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
                sys.exit("run.py: build failed")
    return BUILD_DIR / "perfbench"


def run_one(binary, workload, seed, seconds, trace, extra=(), capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT).returncode, None
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, (proc.stdout, result)


def seed_args(args):
    """The binary's seed overrides given on the command line."""
    extra = []
    if args.tpch_seed is not None:
        extra += ["--tpch-seed", str(args.tpch_seed)]
    if args.query_seed is not None:
        extra += ["--query-seed", str(args.query_seed)]
    return extra


def run_all(binary, args):
    summary = {}
    code = 0
    for w in WORKLOADS:
        rc, (out, result) = run_one(binary, w, args.seed, args.seconds,
                                    args.trace, extra=seed_args(args),
                                    capture=True)
        sys.stdout.write("\n".join(out.strip().splitlines()[:-1]) + "\n")
        if result is None or rc != 0:
            code = 1
        summary[w] = result
    print("\nworkload       attempted   failed  correct")
    for w, r in summary.items():
        if r is None:
            print(f"{w:<14} (no result)")
        else:
            print(f"{w:<14} {r['attempted']:>9} {r['failed']:>8}  {r['correct']}")
    print(json.dumps(summary))
    return code


def steady(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    code = 0
    for w in WORKLOADS:
        values, shares = {}, []
        for seed in range(1, args.steady + 1):
            rc, (_, result) = run_one(binary, w, seed, seconds, args.trace,
                                      capture=True)
            if result is None:
                print(f"{w} seed {seed}: no result (exit {rc})")
                code = 1
                continue
            shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr)
        print(f"\n{w}: {len(shares)} runs of {seconds}s, failed share "
              f"{sorted(set(shares))}")
        print(f"  {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:<26} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound if bound is not None else '':>6}{flag}")
    return code


def selftest(binary):
    rc, (_, result) = run_one(binary, "warm-mix", 1, 1, 0,
                              extra=["--corrupt-one-row"], capture=True)
    if result is not None and result["failed"] >= 1 and not result["correct"]:
        print(f"selftest: ok, the corrupted row was caught "
              f"({result['failed']} failed of {result['attempted']})")
        return 0
    print(f"selftest: FAILED, a corrupted result row went unnoticed: {result}")
    return 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, metavar="N",
                   help="runs per workload for the steadiness report")
    p.add_argument("--tpch-seed", type=int)
    p.add_argument("--query-seed", type=int)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.steady:
        return steady(binary, args)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload is None:
        return run_all(binary, args)
    rc, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace,
                    extra=seed_args(args))
    return rc


if __name__ == "__main__":
    sys.exit(main())
