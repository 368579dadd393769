#!/usr/bin/env python3
"""numashare end-to-end benchmark: build the driver from source, run one workload.

    python3 perfbench/run.py --workload task_dag|join_churn|fleet_steady \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the repository's libraries plus the nsbench driver)
into .bench_build/; later runs only rebuild what changed. Build output and the
driver's human-readable report go to stderr; the last line on stdout is one
JSON object with correct/attempted/failed and the metrics named in
BENCHMARK.json: the end-to-end ones for --trace 0, the per-layer ones for
--trace 1. An untraced run splits --seconds over five driver processes with
the same seed and reports each metric's median over them, so no one
process's memory placement decides a run. The control workloads' timings
come out of the driver already scaled for the shared host's speed
(README.md, "Host speed"). A traced run gives half of --seconds to an
untraced and half to a traced process, and reports the difference as the
tracing overhead. Each process runs a fixed, seeded amount of work sized
from its share of --seconds (README.md).
Exits non-zero (without a result line) when the sources or the build are
missing, and non-zero (with correct=false) when an output check failed.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
WORK_DIR = os.path.join(BUILD_DIR, "work")
DRIVER = os.path.join(CMAKE_DIR, "nsbench")
WORKLOADS = ("task_dag", "join_churn", "fleet_steady")
DRIVER_TIMEOUT_S = 170
PROCESSES = 5  # untraced driver processes per run


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def build():
    """Configure once, then build only the driver and the libraries it links."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no numashare sources under {ROOT}/src; nothing to benchmark")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "nsbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return os.path.exists(DRIVER)


def cleanup(pid):
    """Unlink whatever a driver process left behind, even if it crashed:
    its registry/channel segments (named /nsb-<pid>-*) and journals."""
    leftovers = glob.glob(f"/dev/shm/nsb-{pid}-*")
    leftovers += glob.glob(os.path.join(WORK_DIR, f"nsb-{pid}-*"))
    for path in leftovers:
        try:
            os.unlink(path)
        except OSError:
            pass


def no_aslr():
    """Run the driver with a fixed address-space layout: with randomization,
    cache and branch-predictor aliasing moves sub-microsecond timings by
    about 10% from one process to the next."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | 0x0040000)  # ADDR_NO_RANDOMIZE
    except (OSError, AttributeError):
        pass


def run_driver(args, trace, seconds):
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0", "--work-dir", WORK_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            preexec_fn=no_aslr)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        cleanup(proc.pid)
        log("driver timed out")
        return None
    cleanup(proc.pid)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        log(f"driver exited {proc.returncode} without a result")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"driver exited {proc.returncode} with an unreadable result")
        return None
    if proc.returncode != 0:
        result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    end_to_end, per_layer = metric_names()

    if args.trace == 0:
        runs = [run_driver(args, False, args.seconds / PROCESSES) for _ in range(PROCESSES)]
    else:
        runs = [run_driver(args, False, args.seconds / 2), run_driver(args, True, args.seconds / 2)]
    if any(r is None for r in runs):
        return 1
    if args.trace == 0:
        metrics = {name: {"value": statistics.median(r["metrics"][name]["value"] for r in runs),
                          "unit": m["unit"]}
                   for name, m in runs[0]["metrics"].items()}
    else:
        metrics = runs[-1]["metrics"]
        base = runs[0]["metrics"]
        for name, key in (("trace.overhead_pct", "throughput_per_s"),
                          ("trace.overhead_tick_p50_pct", "tick_p50_us")):
            untraced, traced = base[key]["value"], metrics[key]["value"]
            if key == "throughput_per_s":  # a rate: overhead is the lost share
                pct = (untraced - traced) / untraced * 100.0 if untraced else 0.0
            else:
                pct = (traced - untraced) / untraced * 100.0 if untraced else 0.0
            metrics[name] = {"value": pct, "unit": "%"}
            log(f"tracing overhead on {key}: untraced {untraced:.6g}, traced {traced:.6g} "
                f"({pct:+.2f}%)")
    wanted = end_to_end if args.trace == 0 else per_layer
    missing = [name for name in wanted if name not in metrics]
    if missing:
        log("driver did not report: " + ", ".join(missing))
        return 1
    correct = all(r["correct"] for r in runs)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: metrics[name] for name in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
