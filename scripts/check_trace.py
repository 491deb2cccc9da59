#!/usr/bin/env python3
"""Validates a Chrome trace_event JSON file (as emitted by obs::Tracer /
obs::FlightRecorder via chrome_trace_json).

Checks, without any third-party dependency:
  * the file parses as JSON and exposes a "traceEvents" array (or is a bare
    array);
  * every event has a string "name"/"ph" and numeric "ts"/"pid"/"tid";
  * timestamps are non-negative, finite, and within a sane epoch window
    (< 100 years of microseconds — catches garbage/overflowed clocks);
  * "X" (complete) events carry a non-negative finite "dur";
  * args.{trace_id,span_id,parent_id} are 16-char hex strings when present;
  * span ids are unique across span events;
  * every nonzero parent_id resolves to a recorded span with the same
    trace_id (relaxed by --allow-missing-parents for flight-recorder dumps,
    whose ring eviction may orphan parents);
  * flow events pair up: every flow id appears with both "s" and "f";
  * with --min-events N: at least N non-flow events are present;
  * with --min-traces N: at least N distinct nonzero trace ids occur among
    "X" events (a guard against an empty or untraced run).

Usage: check_trace.py <trace.json | http://host:port/trace | ->
                      [--allow-missing-parents] [--min-events N]
                      [--min-traces N]
The input may be a file path, a live http(s):// URL (scraped directly from
a running ObsServer's /trace or /flight endpoint), or "-" for stdin.
Exit status 0 when the file is valid, 1 otherwise (problems on stderr).
"""

import argparse
import json
import math
import re
import sys

HEX_ID = re.compile(r"^[0-9a-f]{16}$")
# 100 years in microseconds: any steady-clock delta beyond this is garbage.
MAX_EPOCH_US = 100 * 365 * 24 * 3600 * 1e6
ZERO_ID = "0" * 16


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def read_source(source):
    """Text from a file path, a live http(s):// URL, or "-" for stdin."""
    if source == "-":
        return sys.stdin.read()
    if source.startswith(("http://", "https://")):
        import urllib.request

        with urllib.request.urlopen(source, timeout=10) as resp:
            return resp.read().decode("utf-8")
    with open(source, encoding="utf-8") as f:
        return f.read()


def check(path, allow_missing_parents=False, min_events=0, min_traces=0):
    problems = []
    try:
        doc = json.loads(read_source(path))
    except (OSError, json.JSONDecodeError) as e:
        return [f"cannot parse {path}: {e}"], 0

    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            return [f"{path}: no traceEvents array"], 0
    elif isinstance(doc, list):
        events = doc
    else:
        return [f"{path}: top level is neither object nor array"], 0

    spans = {}  # span_id -> (index, trace_id)
    trace_ids = set()  # nonzero trace ids of "X" events
    flow_phases = {}  # flow id -> set of phases seen
    n_real = 0  # events that are not flow glue

    for i, ev in enumerate(events):
        where = f"event {i}"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        name = ev.get("name")
        ph = ev.get("ph")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing/empty name")
        if not isinstance(ph, str) or not ph:
            problems.append(f"{where}: missing ph")
            continue
        for field in ("ts", "pid", "tid"):
            if not is_number(ev.get(field)):
                problems.append(f"{where} ({name!r}): missing numeric {field}")
        ts = ev.get("ts")
        if is_number(ts) and not (0 <= ts <= MAX_EPOCH_US and math.isfinite(ts)):
            problems.append(f"{where} ({name!r}): timestamp {ts} out of epoch")

        if ph in ("s", "f", "t"):
            flow_id = ev.get("id")
            if not isinstance(flow_id, str) or not flow_id:
                problems.append(f"{where}: flow event without id")
            else:
                flow_phases.setdefault(flow_id, set()).add(ph)
            continue

        n_real += 1
        if ph == "X":
            dur = ev.get("dur")
            if not is_number(dur) or dur < 0 or not math.isfinite(dur):
                problems.append(f"{where} ({name!r}): X event with bad dur {dur!r}")

        args = ev.get("args")
        if args is None:
            continue
        if not isinstance(args, dict):
            problems.append(f"{where} ({name!r}): args is not an object")
            continue
        ids = {}
        for field in ("trace_id", "span_id", "parent_id"):
            v = args.get(field)
            if v is None:
                continue
            if not isinstance(v, str) or not HEX_ID.match(v):
                problems.append(
                    f"{where} ({name!r}): args.{field} {v!r} is not 16-hex"
                )
            else:
                ids[field] = v
        if ph == "X" and ids.get("trace_id", ZERO_ID) != ZERO_ID:
            trace_ids.add(ids["trace_id"])
        span_id = ids.get("span_id")
        if span_id is not None and span_id != ZERO_ID and ph == "X":
            if span_id in spans:
                problems.append(
                    f"{where} ({name!r}): duplicate span id {span_id} "
                    f"(first at event {spans[span_id][0]})"
                )
            else:
                spans[span_id] = (i, ids.get("trace_id", ZERO_ID))

    # Parent resolution: every nonzero parent must be a recorded span of the
    # same trace. Ring-evicted parents are tolerated under
    # --allow-missing-parents (flight-recorder dumps).
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            continue
        args = ev.get("args")
        if not isinstance(args, dict):
            continue
        parent = args.get("parent_id")
        if not isinstance(parent, str) or parent == ZERO_ID:
            continue
        if parent not in spans:
            if not allow_missing_parents:
                problems.append(
                    f"event {i} ({ev.get('name')!r}): parent {parent} does "
                    f"not resolve to any recorded span"
                )
            continue
        trace = args.get("trace_id", ZERO_ID)
        parent_trace = spans[parent][1]
        if trace != parent_trace:
            problems.append(
                f"event {i} ({ev.get('name')!r}): trace {trace} differs "
                f"from parent's trace {parent_trace}"
            )

    for flow_id, phases in sorted(flow_phases.items()):
        if "s" not in phases or "f" not in phases:
            problems.append(
                f"flow id {flow_id}: incomplete pair (saw {sorted(phases)})"
            )

    if n_real < min_events:
        problems.append(
            f"{path}: {n_real} events, required at least {min_events}"
        )
    if len(trace_ids) < min_traces:
        problems.append(
            f"{path}: {len(trace_ids)} traces, required at least {min_traces}"
        )
    return problems, n_real


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "file",
        help="file path, live http(s):// URL, or - for stdin",
    )
    parser.add_argument(
        "--allow-missing-parents",
        action="store_true",
        help="tolerate parent ids that left the buffer (flight-recorder "
        "ring dumps)",
    )
    parser.add_argument(
        "--min-events",
        type=int,
        default=0,
        help="require at least this many non-flow events",
    )
    parser.add_argument(
        "--min-traces",
        type=int,
        default=0,
        help="require at least this many distinct nonzero trace ids among "
        "X events",
    )
    args = parser.parse_args()

    problems, n_events = check(
        args.file, args.allow_missing_parents, args.min_events,
        args.min_traces
    )
    if problems:
        for p in problems:
            print(f"check_trace: {p}", file=sys.stderr)
        print(
            f"check_trace: FAIL — {len(problems)} problem(s) in {args.file}",
            file=sys.stderr,
        )
        return 1
    print(f"check_trace: OK — {n_events} events in {args.file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
