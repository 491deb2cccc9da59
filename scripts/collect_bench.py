#!/usr/bin/env python3
"""Aggregates per-bench --json outputs into one results file.

Accepts both schemas emitted by the suite:
  * bench_util.hpp BenchReport files: {"bench", "wall_seconds", "metrics"};
  * google-benchmark --benchmark_out files: {"context", "benchmarks": [...]}
    (produced by the ODA_BENCH_MAIN() --json translation).

Usage:
  collect_bench.py --out results.json results/*.json
  build/bench/bench_table1 --json t1.json && collect_bench.py --out t1_results.json t1.json

The output maps bench name -> normalized record:
  {"benches": {...}, "count": N, "meta": {...}}
google-benchmark entries are normalized to metrics named after each
benchmark case with value = real_time and unit = time_unit.  The "meta"
block stamps provenance so a results file says where it came from: git SHA
(plus a -dirty suffix when the tree has uncommitted changes), UTC date,
hostname, and online core count.
"""

import argparse
import datetime
import json
import os
import socket
import subprocess
import sys


def git_revision():
    """`<sha>` or `<sha>-dirty`; "unknown" outside a git checkout."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        sha = subprocess.run(
            ["git", "-C", here, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.decode().strip()
        dirty = subprocess.run(
            ["git", "-C", here, "status", "--porcelain"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.decode().strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build_meta():
    now = datetime.datetime.now(datetime.timezone.utc)
    return {
        "git_revision": git_revision(),
        "date_utc": now.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": socket.gethostname(),
        "cpu_count": os.cpu_count() or 0,
    }


def normalize(path, doc):
    if "bench" in doc:  # BenchReport schema
        name = doc["bench"]
        return name, {
            "schema": "bench_report",
            "wall_seconds": doc.get("wall_seconds"),
            "metrics": doc.get("metrics", []),
        }
    if "benchmarks" in doc:  # google-benchmark schema
        name = os.path.splitext(os.path.basename(path))[0]
        exe = doc.get("context", {}).get("executable", "")
        if exe:
            name = os.path.basename(exe)
        metrics = []
        for case in doc["benchmarks"]:
            if case.get("run_type") == "aggregate":
                continue
            metrics.append(
                {
                    "name": case.get("name", "?"),
                    "value": case.get("real_time"),
                    "unit": case.get("time_unit", "ns"),
                    "iterations": case.get("iterations"),
                }
            )
        return name, {"schema": "google_benchmark", "metrics": metrics}
    raise ValueError(f"{path}: neither a BenchReport nor a google-benchmark file")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+", help="per-bench --json files")
    parser.add_argument("--out", required=True, help="results file to write")
    args = parser.parse_args()

    benches = {}
    failures = 0
    for path in args.inputs:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            name, record = normalize(path, doc)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"collect_bench: skipping {path}: {err}", file=sys.stderr)
            failures += 1
            continue
        if name in benches:
            print(f"collect_bench: duplicate bench {name} from {path}",
                  file=sys.stderr)
            failures += 1
            continue
        benches[name] = record

    result = {"benches": benches, "count": len(benches),
              "meta": build_meta()}

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"collect_bench: wrote {args.out} with {len(benches)} bench(es)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
