#!/usr/bin/env python3
"""CI gate over one bench's own --json file (the store and net bench smokes).

Hard requirements (fail regardless of machine):
  * the file is the named bench's report ({"bench", "metrics": [...]});
  * every --require metric must be present in it (a refactor that silently
    drops frame_parallel_speedup or the frame_cols_* scaling curve from
    bench_store --json fails here);
  * metric values must be finite numbers.

Threshold requirements (--min NAME=VALUE) are enforced only when this
machine has at least --min-cores cores (default 4): the parallel speedup
floors are meaningless on the 1-2 core runners where the pool cannot win,
but must hold on real multi-core CI machines.

Usage:
  bench_store --quick --json bs.json
  check_bench.py bs.json --bench bench_store \
      --require frame_parallel_speedup --require collector_parallel_speedup \
      --require frame_cols_64_ms --require frame_cols_256_ms \
      --require frame_cols_1024_ms \
      --min frame_parallel_speedup=1.5 --min collector_parallel_speedup=1.2
"""

import argparse
import json
import math
import os
import sys


def parse_min(spec):
    name, _, value = spec.partition("=")
    if not name or not value:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {spec!r}")
    return name, float(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="a bench's --json output file")
    parser.add_argument("--bench", default="bench_store",
                        help="bench record to check (default: bench_store)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="metric that must exist (repeatable)")
    parser.add_argument("--min", action="append", default=[], type=parse_min,
                        metavar="NAME=VALUE",
                        help="floor enforced on multi-core machines "
                             "(repeatable; implies --require NAME)")
    parser.add_argument("--min-cores", type=int, default=4,
                        help="cpu_count needed before --min floors apply")
    args = parser.parse_args()

    with open(args.report, encoding="utf-8") as f:
        record = json.load(f)

    if record.get("bench") != args.bench:
        print(f"check_bench: FAIL: {args.report} is not a '{args.bench}' "
              f"report", file=sys.stderr)
        return 1

    metrics = {}
    for m in record.get("metrics", []):
        metrics[m.get("name", "?")] = m.get("value")

    failures = 0
    required = list(args.require) + [name for name, _ in args.min]
    for name in required:
        value = metrics.get(name)
        if value is None:
            print(f"check_bench: FAIL: metric '{name}' missing from "
                  f"{args.bench}", file=sys.stderr)
            failures += 1
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            print(f"check_bench: FAIL: metric '{name}' is not finite: "
                  f"{value!r}", file=sys.stderr)
            failures += 1

    cpu_count = os.cpu_count() or 0
    skipped = []
    if cpu_count >= args.min_cores:
        for name, floor in args.min:
            value = metrics.get(name)
            if not isinstance(value, (int, float)):
                continue  # already reported as missing above
            status = "ok" if value >= floor else "FAIL"
            print(f"check_bench: {status}: {name} = {value:.3f} "
                  f"(floor {floor}, {cpu_count} cores)")
            if value < floor:
                failures += 1
    else:
        for name, floor in args.min:
            value = metrics.get(name)
            shown = f"{value:.3f}" if isinstance(value, (int, float)) else "?"
            print(f"check_bench: skip floor {name} >= {floor} "
                  f"(only {cpu_count} cores, need {args.min_cores}); "
                  f"measured {shown}")
            skipped.append(f"{name}>={floor}")

    if failures:
        print(f"check_bench: {failures} failure(s)", file=sys.stderr)
        return 1
    if skipped:
        # A pass with floors skipped is weaker than a pass that enforced
        # them — say so explicitly rather than claiming a clean bill.
        print(f"check_bench: presence checks passed for {args.bench}; "
              f"{len(skipped)} floor check(s) SKIPPED on this "
              f"{cpu_count}-core machine (need {args.min_cores}): "
              + ", ".join(skipped))
    else:
        print(f"check_bench: all checks passed for {args.bench}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
