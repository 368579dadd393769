#!/usr/bin/env python3
"""Kill the daemon under a running daemon_app, then restart it.

Starts numashared on a registry name unique to this run, then daemon_app on
the same registry. Once the app prints "joined", the daemon is SIGKILLed.
The app must print "degraded" (it now runs on the survivors' consensus
share) and stay alive for MIN_DEGRADED_S with no daemon at all. A second
daemon is then started on the same name; the app must print "rejoined",
then "left the daemon" when its run ends, and exit 0. This drives the app's
whole failover path: the channel it pumped belongs to the dead daemon, so
after failback it has to rebuild its runtime adapter on the new daemon's
channel.

Usage: daemon_app_smoke.py NUMASHARED DAEMON_APP
"""
import os
import queue
import signal
import subprocess
import sys
import threading
import time

MACHINE = "--machine=2x2:1:10:5"
APP_SECONDS = "6"
STEP_TIMEOUT_S = 30
MIN_DEGRADED_S = 1.0


def start_daemon(daemon, registry):
    return subprocess.Popen([daemon, f"--registry={registry}", MACHINE, "--duration-s=60"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def stop(proc, sig=signal.SIGINT):
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def forward_lines(stream, lines):
    for line in stream:
        lines.put(line.rstrip())
    lines.put(None)


def expect(lines, seen, word):
    """Read app output until a line contains `word`; False on exit or timeout."""
    deadline = time.monotonic() + STEP_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            line = lines.get(timeout=0.1)
        except queue.Empty:
            continue
        if line is None:
            break
        seen.append(line)
        if word in line:
            return True
    print(f"FAILED: no '{word}' from daemon_app; its output:", *seen, sep="\n  ")
    return False


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    daemon, app = argv[1], argv[2]
    registry = f"/numashare-restart-smoke-{os.getpid()}"
    lines = queue.Queue()
    seen = []
    first = start_daemon(daemon, registry)
    second = None
    client = None
    try:
        time.sleep(0.3)
        client = subprocess.Popen([app, "smoke", "1.0", APP_SECONDS, f"--registry={registry}"],
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        threading.Thread(target=forward_lines, args=(client.stdout, lines), daemon=True).start()
        if not expect(lines, seen, "joined"):
            return 1
        first.send_signal(signal.SIGKILL)
        first.wait()  # reaped, so the app sees a dead daemon pid
        if not expect(lines, seen, "degraded"):
            return 1
        time.sleep(MIN_DEGRADED_S)
        if client.poll() is not None:
            print(f"FAILED: daemon_app exited {client.returncode} with no daemon; its output:",
                  *seen, sep="\n  ")
            return 1
        second = start_daemon(daemon, registry)
        if not expect(lines, seen, "rejoined") or not expect(lines, seen, "left the daemon"):
            return 1
        code = client.wait(timeout=STEP_TIMEOUT_S)
        if code != 0:
            print(f"FAILED: daemon_app exited {code}; its output:", *seen, sep="\n  ")
            return 1
        print("daemon_app ran degraded, rejoined a restarted daemon and left cleanly:", *seen,
              sep="\n  ")
        return 0
    finally:
        if client is not None:
            stop(client, signal.SIGKILL)
        for proc in (first, second):
            if proc is not None:
                stop(proc)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
