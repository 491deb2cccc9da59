#!/usr/bin/env python3
"""Facility-tick benchmark entry point.

Builds ODA-Lib and tick_bench from this checkout in the tier-1
configuration (RelWithDebInfo) under .bench_build/, runs one measurement and
prints tick_bench's output; the last line of standard output is the result
JSON. Run from the repository root:

    python3 tickbench/run.py --workload ingest_steady --seed 1 --seconds 10 --trace 0

tick_bench's log lines (warnings from the pipeline itself) go to
.bench_build/tick_bench.log. Exits non-zero, without a result line, when the
build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "tickbench")
BINARY = os.path.join(BUILD, "tick_bench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "tick_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"tickbench: build failed: {e}", file=sys.stderr)
        return 1

    workdir = os.path.join(BUILD_ROOT, f"work-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        with open(os.path.join(BUILD_ROOT, "tick_bench.log"), "w") as log:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log,
                                  text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("tickbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        print(f"tickbench: run failed (exit {proc.returncode}); see "
              f"{os.path.join(BUILD_ROOT, 'tick_bench.log')}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
