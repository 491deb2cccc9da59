#!/usr/bin/env python3
"""Live-introspection smoke test: scrapes every ObsServer endpoint of a
running examples/self_monitor and validates the responses with the repo's
own checkers.

Spawns self_monitor with a long simulated window and http_port=0, reads the
announced ephemeral port from stdout, then:

  * GET /metrics        -> check_prom.py (live URL mode; optional
                           --inventory drift gate against the docs);
  * GET /metrics.json   -> parses as JSON with a "families" array;
  * GET /healthz        -> 200 or 503, non-empty report;
  * GET /trace, /flight -> check_trace.py (live URL mode);
  * GET /profile        -> 200, folded stacks -> check_folded.py;
  * GET /varz           -> parses as JSON with uptime_seconds and at least
                           one watched thread;
  * GET /selfscrape     -> parses as JSON, series_count > 0 (the process's
                           own oda_* series are queryable from its store);
  * GET /unknown        -> 404; POST /metrics -> 405.

Then sends SIGTERM while hammering /metrics from a background thread and
asserts the shutdown is torn-response-free: every scrape observed during
the drain either completes (full Content-Length framing) or is refused
cleanly (connection refused/reset with zero payload bytes) — never a
truncated response. Finally asserts exit 0 and that stdout shows the
server quiescing before the run summary.

Usage: scrape_smoke.py --self-monitor build/examples/self_monitor \
                       [--inventory docs/OBSERVABILITY.md] \
                       [--scripts-dir scripts] [--dir /tmp/scrape_smoke]
"""

import argparse
import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

LISTEN_PREFIX = "obs server listening on "


def fail(msg):
    print(f"scrape_smoke: FAIL — {msg}", file=sys.stderr)
    return 1


def get(base, target, method="GET", timeout=10.0):
    """(status, body) for one request; raises on transport errors."""
    req = urllib.request.Request(base + target, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8", "replace")
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode("utf-8", "replace")


def run_checker(script, args):
    """Runs a checker script; returns (ok, combined output)."""
    proc = subprocess.run(
        [sys.executable, script, *args], capture_output=True, text=True
    )
    out = (proc.stdout + proc.stderr).strip()
    return proc.returncode == 0, out


class ShutdownScraper(threading.Thread):
    """Hammers /metrics over raw sockets until the port stops answering,
    recording any torn (non-empty but incomplete) response."""

    def __init__(self, host, port):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.stop_flag = threading.Event()
        self.complete = 0
        self.refused = 0
        self.torn = []

    @staticmethod
    def is_complete_response(data):
        head, sep, rest = data.partition(b"\r\n\r\n")
        if not sep:
            return False
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                need = int(line.split(b":", 1)[1].strip())
                return len(rest) >= need
        return False  # every ObsServer response is Content-Length framed

    def run(self):
        while not self.stop_flag.is_set():
            data = b""
            try:
                with socket.create_connection(
                    (self.host, self.port), timeout=5.0
                ) as s:
                    s.sendall(
                        b"GET /metrics HTTP/1.1\r\n"
                        b"Connection: close\r\n\r\n"
                    )
                    s.settimeout(5.0)
                    while True:
                        chunk = s.recv(65536)
                        if not chunk:
                            break
                        data += chunk
            except OSError:
                if data:
                    self.torn.append(data[:200])
                else:
                    self.refused += 1
                    if self.stop_flag.wait(0.01):
                        break
                continue
            if not data:
                self.refused += 1
            elif self.is_complete_response(data):
                self.complete += 1
            else:
                self.torn.append(data[:200])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--self-monitor", required=True)
    ap.add_argument("--inventory", default=None,
                    help="docs file for check_prom's inventory drift gate")
    ap.add_argument("--scripts-dir",
                    default=os.path.dirname(os.path.abspath(__file__)))
    ap.add_argument("--dir", default="/tmp/scrape_smoke",
                    help="scratch directory (recreated)")
    ap.add_argument("--startup-timeout", type=float, default=30.0)
    args = ap.parse_args()

    shutil.rmtree(args.dir, ignore_errors=True)
    os.makedirs(args.dir, exist_ok=True)
    out = lambda name: os.path.join(args.dir, name)  # noqa: E731
    checker = lambda name: os.path.join(args.scripts_dir, name)  # noqa: E731

    # A huge simulated window: the process only exits via our SIGTERM.
    proc = subprocess.Popen(
        [args.self_monitor, "--hours", "100000", "--dump-dir", args.dir,
         "--http-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)

    stdout_lines = []
    stdout_lock = threading.Lock()

    def pump_stdout():
        for line in proc.stdout:
            with stdout_lock:
                stdout_lines.append(line.rstrip("\n"))

    pump = threading.Thread(target=pump_stdout, daemon=True)
    pump.start()

    def find_line(prefix):
        with stdout_lock:
            for line in stdout_lines:
                if line.startswith(prefix):
                    return line
        return None

    deadline = time.monotonic() + args.startup_timeout
    listen = None
    while listen is None and time.monotonic() < deadline:
        if proc.poll() is not None:
            pump.join(timeout=5)
            with stdout_lock:
                text = "\n".join(stdout_lines)
            return fail(f"self_monitor exited {proc.returncode} before "
                        f"announcing its port:\n{text}")
        listen = find_line(LISTEN_PREFIX)
        if listen is None:
            time.sleep(0.05)
    if listen is None:
        proc.kill()
        return fail("no 'obs server listening' line")

    host, _, port_text = listen[len(LISTEN_PREFIX):].rpartition(":")
    port = int(port_text)
    base = f"http://{host}:{port}"
    print(f"scrape_smoke: scraping {base}")
    problems = []

    # Let a couple of self-scrape passes land before asserting on them.
    time.sleep(1.0)

    # -- /metrics through the real checker, straight off the live URL.
    prom_args = [base + "/metrics", "--require-prefix", "oda_"]
    if args.inventory:
        prom_args += ["--inventory", args.inventory]
    ok, text = run_checker(checker("check_prom.py"), prom_args)
    print(text)
    if not ok:
        problems.append("/metrics failed check_prom.py")

    # -- /metrics.json
    code, body = get(base, "/metrics.json")
    try:
        doc = json.loads(body)
        if code != 200 or "families" not in doc:
            problems.append(f"/metrics.json: code {code} or missing families")
    except json.JSONDecodeError as e:
        problems.append(f"/metrics.json is not JSON: {e}")

    # -- /healthz
    code, body = get(base, "/healthz")
    if code not in (200, 503) or not body.strip():
        problems.append(f"/healthz: unexpected code {code} or empty report")

    # -- /trace and /flight through check_trace.py (live URL mode).
    for target in ("/trace", "/flight"):
        ok, text = run_checker(
            checker("check_trace.py"),
            [base + target, "--allow-missing-parents"])
        print(text)
        if not ok:
            problems.append(f"{target} failed check_trace.py")

    # -- /profile: folded stacks through check_folded.py.
    code, body = get(base, "/profile?seconds=0.3", timeout=30.0)
    if code != 200:
        problems.append(f"/profile: expected 200, got {code}")
    else:
        with open(out("live.folded"), "w", encoding="utf-8") as f:
            f.write(body)
        ok, text = run_checker(
            checker("check_folded.py"),
            [out("live.folded"), "--min-lines", "1", "--min-samples", "1"])
        print(text)
        if not ok:
            problems.append("/profile output failed check_folded.py")

    # -- /varz
    code, body = get(base, "/varz")
    try:
        doc = json.loads(body)
        watched = doc.get("threads", {}).get("watched", 0)
        if code != 200 or "uptime_seconds" not in doc or watched < 1:
            problems.append(f"/varz: code {code}, uptime_seconds missing or "
                            f"threads.watched {watched!r} < 1")
    except json.JSONDecodeError as e:
        problems.append(f"/varz is not JSON: {e}")

    # -- /selfscrape: the process's own series, queryable from its store.
    code, body = get(base, "/selfscrape")
    try:
        doc = json.loads(body)
        if code != 200 or doc.get("series_count", 0) <= 0:
            problems.append(
                f"/selfscrape: code {code}, series_count "
                f"{doc.get('series_count')!r}")
    except json.JSONDecodeError as e:
        problems.append(f"/selfscrape is not JSON: {e}")

    # -- Unknown path and non-GET method.
    code, _ = get(base, "/definitely-not-an-endpoint")
    if code != 404:
        problems.append(f"unknown path: expected 404, got {code}")
    code, _ = get(base, "/metrics", method="POST")
    if code != 405:
        problems.append(f"POST /metrics: expected 405, got {code}")

    if problems:
        proc.kill()
        for p in problems:
            print(f"scrape_smoke: {p}", file=sys.stderr)
        return fail(f"{len(problems)} endpoint problem(s)")

    # -- SIGTERM while scraping: the drain must never tear a response.
    scraper = ShutdownScraper(host, port)
    scraper.start()
    # Wait for the first completed scrape before firing the signal, so the
    # "shutdown saw complete scrapes" assertion can't flake on a loaded
    # machine where 200ms of wall time buys no scheduling.
    wait_deadline = time.monotonic() + 30.0
    while scraper.complete == 0 and time.monotonic() < wait_deadline:
        time.sleep(0.02)
    if scraper.complete == 0:
        proc.kill()
        scraper.stop_flag.set()
        return fail("scraper completed no request in 30s with the server up")
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        scraper.stop_flag.set()
        return fail("self_monitor did not exit within 120s of SIGTERM")
    time.sleep(0.5)  # drain any scrape still in flight against a dead port
    scraper.stop_flag.set()
    scraper.join(timeout=10)
    pump.join(timeout=10)

    with stdout_lock:
        text = "\n".join(stdout_lines)
    if proc.returncode != 0:
        return fail(f"self_monitor exited {proc.returncode} after SIGTERM "
                    f"(expected 0)\n{text}")
    if scraper.torn:
        return fail(f"{len(scraper.torn)} torn response(s) during shutdown; "
                    f"first: {scraper.torn[0]!r}")
    if scraper.complete == 0:
        return fail("shutdown scraper never completed a response "
                    "(started too late to observe the drain?)")
    if "obs server quiesced" not in text:
        return fail(f"stdout does not report the server quiescing:\n{text}")
    if "SIGTERM received" not in text:
        return fail(f"stdout does not acknowledge SIGTERM:\n{text}")

    print(f"scrape_smoke: OK — all endpoints valid; shutdown saw "
          f"{scraper.complete} complete scrape(s), {scraper.refused} clean "
          f"refusal(s), 0 torn")
    return 0


if __name__ == "__main__":
    sys.exit(main())
