#!/usr/bin/env python3
"""Smoke-run the end-to-end benchmark driver on every workload.

Runs the nsbench driver (perfbench/driver.cpp, built against this tree's
libraries) for a short, fixed amount of work per workload and checks the
driver's own output verdict: exit status 0 and a last stdout line that is a
JSON object with "correct": true and "failed": 0. A change that breaks the
driver's build or one of its output checks then fails the test suite, not
only the benchmark run.

Usage: perfbench_smoke.py NSBENCH WORK_DIR
"""
import json
import subprocess
import sys

WORKLOADS = ("task_dag", "join_churn", "fleet_steady")
SECONDS = "0.2"
TIMEOUT_S = 120


def run(driver, work_dir, workload):
    """Return an error string, or None when the workload's run passed."""
    command = [driver, "--workload", workload, "--seed", "1", "--seconds", SECONDS,
               "--work-dir", work_dir]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return f"exit {proc.returncode}, no stdout; stderr tail:\n{proc.stderr[-2000:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"last stdout line is not JSON: {lines[-1]!r}"
    if proc.returncode != 0 or result.get("correct") is not True or result.get("failed") != 0:
        return (f"exit {proc.returncode}, correct={result.get('correct')}, "
                f"failed={result.get('failed')}; stderr tail:\n{proc.stderr[-2000:]}")
    return None


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    driver, work_dir = argv[1], argv[2]
    failures = 0
    for workload in WORKLOADS:
        error = run(driver, work_dir, workload)
        print(f"{workload}: {'ok' if error is None else 'FAILED: ' + error}")
        failures += error is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
