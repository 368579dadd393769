#!/usr/bin/env bash
# Build, test, and regenerate every paper experiment.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build --output-on-failure

# Latency observability suite gets a dedicated serial pass (same shape as
# the CI sanitizer jobs): the allocation-free proof and the concurrent
# record/snapshot conservation test are the contracts the rest of this
# script's numbers stand on.
ctest --test-dir build --output-on-failure -L obs

# Memory tier (arenas, datablock accounting, locality-aware stealing) gets
# the same dedicated pass the CI sanitizer jobs run.
ctest --test-dir build --output-on-failure -L memory

# Daemon-loss survival: the kill/restart chaos harness (forked daemons,
# degraded-mode consensus, generation-fenced failback). Same dedicated pass
# the CI sanitizer jobs run.
ctest --test-dir build --output-on-failure -L failover

# Tick-path scaling (registry v7): 1024-client churn stress asserting the
# attention-bitmap and full-sweep paths converge to identical state. Same
# dedicated pass the CI sanitizer jobs run.
ctest --test-dir build --output-on-failure -L scale

echo
echo "=== experiment benches (every paper table & figure) ==="
for b in build/bench/bench_*; do
  [ -x "$b" ] || continue
  "$b"
done

# The gated benches (run above) left their numashare-bench/1 documents in
# BENCH_*.json; replay every gate so a broken emitter or a regressed gate is
# caught locally too.
for f in BENCH_*.json; do
  python3 scripts/check_bench_json.py "$f"
done

echo
echo "=== examples (quick passes) ==="
./build/examples/quickstart
./build/examples/partition_explorer numabad
./build/examples/composed_app 1
./build/tools/numashare_cli paper table3
