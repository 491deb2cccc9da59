#!/usr/bin/env python3
"""SIGTERM graceful-shutdown regression test for examples/self_monitor.

Spawns self_monitor with a long simulated window and a WAL directory, sends
SIGTERM once the run is underway, and asserts:

  * the process exits 0 (graceful path, not a crash),
  * stdout acknowledges the signal ("SIGTERM received") and the WAL flush,
  * `wal_ingest inspect` over the directory exits 0 — an orderly stop
    flushed and fsynced everything, so recovery finds no torn tail.

With --http the live introspection plane is exercised too: self_monitor is
started with an ephemeral HTTP port, a background scraper hammers /metrics
across the SIGTERM, and the script additionally asserts:

  * no scrape observed during the drain is torn (a non-empty response is
    always complete; a refused/reset connection with zero bytes is fine),
  * stdout shows the server quiescing BEFORE the WAL flush — the shutdown
    order that keeps scrapers from racing the store teardown.

Usage: sigterm_smoke.py --self-monitor build/examples/self_monitor \
                        --wal-ingest build/examples/wal_ingest \
                        --dir /tmp/sigterm_wal [--http]
"""

import argparse
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

LISTEN_PREFIX = "obs server listening on "


class ShutdownScraper(threading.Thread):
    """Hammers /metrics over raw sockets, recording torn responses."""

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
        return False  # ObsServer responses are always Content-Length framed

    def run(self):
        while not self.stop_flag.is_set():
            data = b""
            try:
                with socket.create_connection(
                    (self.host, self.port), timeout=5.0
                ) as s:
                    s.sendall(
                        b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--self-monitor", required=True)
    ap.add_argument("--wal-ingest", required=True)
    ap.add_argument("--dir", required=True, help="WAL directory (recreated)")
    ap.add_argument("--startup-wait", type=float, default=2.0,
                    help="seconds to let the run get underway before SIGTERM")
    ap.add_argument("--http", action="store_true",
                    help="also scrape the obs server across the shutdown")
    args = ap.parse_args()

    shutil.rmtree(args.dir, ignore_errors=True)
    os.makedirs(args.dir, exist_ok=True)

    # 1000 simulated hours: far more than the startup wait allows, so the
    # only way the process exits is the SIGTERM path. The exports share the
    # WAL directory; recovery reads only the segment files.
    cmd = [args.self_monitor, "--hours", "1000", "--dump-dir", args.dir,
           "--wal-dir", args.dir]
    if args.http:
        cmd += ["--http-port", "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)

    stdout_lines = []
    stdout_lock = threading.Lock()

    def pump_stdout():
        for line in proc.stdout:
            with stdout_lock:
                stdout_lines.append(line.rstrip("\n"))

    pump = threading.Thread(target=pump_stdout, daemon=True)
    pump.start()

    scraper = None
    if args.http:
        deadline = time.monotonic() + 30.0
        listen = None
        while listen is None and time.monotonic() < deadline:
            if proc.poll() is not None:
                pump.join(timeout=5)
                with stdout_lock:
                    text = "\n".join(stdout_lines)
                print(f"self_monitor exited {proc.returncode} before "
                      f"announcing its port:\n{text}")
                return 1
            with stdout_lock:
                for line in stdout_lines:
                    if line.startswith(LISTEN_PREFIX):
                        listen = line
                        break
            if listen is None:
                time.sleep(0.05)
        if listen is None:
            proc.kill()
            print("no 'obs server listening' line")
            return 1
        host, _, port_text = listen[len(LISTEN_PREFIX):].rpartition(":")
        scraper = ShutdownScraper(host, int(port_text))
        scraper.start()

    time.sleep(args.startup_wait)
    if scraper is not None:
        # Don't fire the signal before the scraper has landed one complete
        # request: the post-shutdown "complete > 0" assertion must not
        # flake on a loaded machine.
        wait_deadline = time.monotonic() + 30.0
        while scraper.complete == 0 and time.monotonic() < wait_deadline:
            time.sleep(0.02)
        if scraper.complete == 0:
            proc.kill()
            scraper.stop_flag.set()
            print("scraper completed no request in 30s with the server up")
            return 1
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        print("self_monitor did not exit within 120s of SIGTERM")
        return 1
    if scraper is not None:
        time.sleep(0.5)  # let in-flight scrapes resolve against a dead port
        scraper.stop_flag.set()
        scraper.join(timeout=10)
    pump.join(timeout=10)
    with stdout_lock:
        stdout = "\n".join(stdout_lines)

    if proc.returncode != 0:
        print(f"self_monitor exited {proc.returncode} after SIGTERM "
              f"(expected 0)\n{stdout}")
        return 1
    if "SIGTERM received" not in stdout:
        print(f"stdout does not acknowledge SIGTERM:\n{stdout}")
        return 1
    if "wal: flushed and fsynced" not in stdout:
        print(f"stdout does not report the WAL flush:\n{stdout}")
        return 1

    if scraper is not None:
        if scraper.torn:
            print(f"{len(scraper.torn)} torn response(s) during shutdown; "
                  f"first: {scraper.torn[0]!r}")
            return 1
        if scraper.complete == 0:
            print("shutdown scraper never completed a response")
            return 1
        quiesce = stdout.find("obs server quiesced")
        flush = stdout.find("wal: flushed and fsynced")
        if quiesce == -1:
            print(f"stdout does not report the server quiescing:\n{stdout}")
            return 1
        if quiesce > flush:
            print("server quiesced AFTER the WAL flush — shutdown order "
                  f"violated:\n{stdout}")
            return 1
        print(f"sigterm_smoke: shutdown scrapes: {scraper.complete} "
              f"complete, {scraper.refused} refused, 0 torn")

    ins = subprocess.run([args.wal_ingest, "inspect", args.dir],
                         capture_output=True, text=True)
    print(ins.stdout.strip())
    if ins.returncode != 0:
        print("inspect reports a truncated tail after graceful SIGTERM stop")
        return 1
    print("sigterm_smoke: graceful shutdown, clean WAL tail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
