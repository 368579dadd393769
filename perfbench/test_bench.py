#!/usr/bin/env python3
"""Self-test of the benchmark: reproducible inputs, the output contract, and
no /dev/shm leaks.

    python3 perfbench/test_bench.py

Builds the driver as run.py does, then:
  * runs every workload's driver twice exactly as an untraced run.py run
    does (same seed, same --seconds share) and checks that core.candidates,
    daemon.reallocations and alloc_gflops agree exactly and that every
    output check passed;
  * runs run.py once untraced and once traced and checks that the last line
    carries every metric BENCHMARK.json names;
  * checks that /dev/shm holds as many entries afterwards as before.
Exits non-zero on the first failure.
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SEED = 7


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def drive(workload, seconds):
    """One driver process, started the way run.py starts it."""
    args = argparse.Namespace(workload=workload, seed=SEED)
    result = bench.run_driver(args, False, seconds / bench.PROCESSES)
    if result is None or not result["correct"] or result["failed"] != 0:
        fail(f"{workload}: output checks failed")
    return result["metrics"]


def run_py(workload, trace):
    cmd = [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "4", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          cwd=bench.ROOT, timeout=2 * bench.DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"run.py {workload} --trace {trace} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"run.py result keys: {sorted(result)}")
    end_to_end, per_layer = bench.metric_names()
    if sorted(result["metrics"]) != sorted(per_layer if trace else end_to_end):
        fail(f"run.py --trace {trace} reported {sorted(result['metrics'])}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)) or not metric["unit"]:
            fail(f"{name}: {metric}")
        if not trace and metric["value"] == 0:
            fail(f"end-to-end metric {name} is 0")


def main():
    if not bench.build():
        fail("build")
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    before = len(os.listdir("/dev/shm"))
    for workload in bench.WORKLOADS:
        first, second = drive(workload, seconds), drive(workload, seconds)
        for name in ("core.candidates", "daemon.reallocations", "alloc_gflops"):
            if first[name]["value"] != second[name]["value"]:
                fail(f"{workload}: {name} differs between runs with seed {SEED}: "
                     f"{first[name]['value']} vs {second[name]['value']}")
        print(f"ok   {workload}: same seed, same candidates "
              f"({first['core.candidates']['value']:g}), reallocations "
              f"({first['daemon.reallocations']['value']:g}), alloc_gflops "
              f"({first['alloc_gflops']['value']:g})")
    run_py("fleet_steady", 0)
    run_py("task_dag", 1)
    print("ok   run.py prints every BENCHMARK.json metric, untraced and traced")
    after = len(os.listdir("/dev/shm"))
    if after != before:
        fail(f"/dev/shm had {before} entries before and {after} after")
    print(f"ok   /dev/shm entries unchanged ({before})")


if __name__ == "__main__":
    main()
