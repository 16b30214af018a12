#!/usr/bin/env bash
# Builds the ThreadSanitizer tree and runs the concurrency-,
# observability-, faults-, serving-, snapshot-, and resilience-labeled
# tests under it. This is the race-regression gate for the shared
# Sod2Engine serving path: any data race reintroduced in run(),
# PlanCache, the RunContext last-plan memo, Sod2Server's
# dispatcher/worker handoff, the circuit-breaker scoreboard, Logger,
# the tracer/metrics layer, the fault-injection sites, or the
# registry/env/alloc-stats singletons fails here even if the
# uninstrumented tests still pass by luck.
#
# Usage: scripts/check_tsan.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --test-dir build-tsan \
      -L 'concurrency|observability|faults|serving|snapshot|resilience' \
      --output-on-failure "$@"

# The batched load bench drives the coalescer's cross-thread handoff
# (waitForArrival/peekCompatible) at full rate — run it instrumented so
# a race in the batch-accounting path fails this gate, not production.
./build-tsan/bench/serving_load --batched
