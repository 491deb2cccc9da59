#!/usr/bin/env python3
"""CI profiling smoke gate: runs a google-benchmark binary twice — once
plain, once with the sampling profiler and tracer armed — and fails when:

  * the profiled run's folded-stack output is missing, malformed, or
    near-empty (delegates to check_folded.py);
  * the trace export is malformed or holds no trace (delegates to
    check_trace.py --allow-missing-parents --min-traces 1);
  * the profiler-enabled runtime exceeds the disabled runtime by more than
    --max-overhead (default 10%, the bound docs/OBSERVABILITY.md states).

Runtime is the sum of per-benchmark real_time from the benchmark's own
JSON output, not process wall clock: dump-time symbolization and process
startup are excluded, so the gate measures what the claim says — the
steady-state cost of being sampled.

The default filter excludes the BM_TraceSpan* ladder because those cases
toggle and clear the global tracer mid-run, which would empty the
--trace-out artifact.

Usage:
  profile_smoke.py --bench build/bench/bench_pipeline [--max-overhead 0.10]
                   [--filter REGEX] [--outdir DIR] [--min-samples N]
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_FILTER = ("BM_BusPublish|BM_StoreInsert|BM_StoreFrame|"
                  "BM_CollectorPass|BM_SimStep")

UNIT_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def run_bench(bench, json_out, filter_re, extra):
    cmd = [bench, "--quick", "--json", json_out,
           "--benchmark_filter=" + filter_re] + extra
    print("profile_smoke: $ " + " ".join(cmd))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stdout.buffer.write(proc.stdout)
        print("profile_smoke: %s exited %d" % (cmd[0], proc.returncode),
              file=sys.stderr)
        return False
    return True


def total_real_seconds(json_path):
    with open(json_path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    total = 0.0
    cases = 0
    for b in doc.get("benchmarks", []):
        if b.get("aggregate_name"):
            continue  # mean/median/stddev rows double-count
        scale = UNIT_SECONDS.get(b.get("time_unit", "ns"), 1e-9)
        # Per-iteration real time x iterations = the case's measured span.
        total += float(b.get("real_time", 0.0)) * scale * \
            float(b.get("iterations", 0))
        cases += 1
    return total, cases


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description="Profiler-overhead smoke gate")
    ap.add_argument("--bench", required=True,
                    help="google-benchmark binary (bench_pipeline)")
    ap.add_argument("--max-overhead", type=float, default=0.10,
                    metavar="FRAC",
                    help="allowed fractional slowdown (default 0.10)")
    ap.add_argument("--filter", default=DEFAULT_FILTER, metavar="REGEX",
                    help="benchmark_filter for both runs")
    ap.add_argument("--outdir", default=".", metavar="DIR",
                    help="where artifacts (folded/trace/json) are written")
    ap.add_argument("--min-samples", type=int, default=10, metavar="N",
                    help="minimum profiler samples in the folded output")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    base_json = os.path.join(args.outdir, "smoke_base.json")
    prof_json = os.path.join(args.outdir, "smoke_prof.json")
    folded = os.path.join(args.outdir, "smoke.folded")
    trace = os.path.join(args.outdir, "smoke_trace.json")

    if not run_bench(args.bench, base_json, args.filter, []):
        return 1
    if not run_bench(args.bench, prof_json, args.filter,
                     ["--profile-out", folded, "--trace-out", trace]):
        return 1

    failures = 0

    rc = subprocess.run([sys.executable,
                         os.path.join(here, "check_folded.py"), folded,
                         "--min-lines", "1",
                         "--min-samples", str(args.min_samples)]).returncode
    if rc != 0:
        print("profile_smoke: folded-output validation FAILED",
              file=sys.stderr)
        failures += 1

    # The bench fills the tracer's bounded buffer, which drops the parents
    # of the last spans it keeps, as a flight-recorder ring does.
    rc = subprocess.run([sys.executable,
                         os.path.join(here, "check_trace.py"), trace,
                         "--allow-missing-parents",
                         "--min-traces", "1"]).returncode
    if rc != 0:
        print("profile_smoke: trace validation FAILED",
              file=sys.stderr)
        failures += 1

    base_s, base_n = total_real_seconds(base_json)
    prof_s, prof_n = total_real_seconds(prof_json)
    if base_n == 0 or prof_n == 0 or base_s <= 0.0:
        print("profile_smoke: no benchmark cases measured (filter %r)"
              % args.filter, file=sys.stderr)
        failures += 1
    else:
        overhead = (prof_s - base_s) / base_s
        print("profile_smoke: baseline %.3fs (%d cases), profiled %.3fs "
              "(%d cases), overhead %+.1f%% (limit +%.1f%%)"
              % (base_s, base_n, prof_s, prof_n, 100.0 * overhead,
                 100.0 * args.max_overhead))
        if overhead > args.max_overhead:
            print("profile_smoke: overhead gate FAILED", file=sys.stderr)
            failures += 1

    if failures == 0:
        print("profile_smoke: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
