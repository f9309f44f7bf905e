#!/usr/bin/env bash
# bench.sh — run the structural-similarity, value-iteration and
# metrics-registry benchmarks and write the BENCH_simstruct.json
# trajectory (ns/op, allocs/op, the serial similarity engine on the
# synthetic n32–n128 graphs, EMD allocation ratio, the capman-shaped
# similarity index's B/op with its hard gate — Algorithm 1 on a 384-state
# graph must stay within 64 KiB/op — and the metrics
# hot-path allocation guard: the disabled registry and cached-handle
# paths must stay at 0 allocs/op or benchjson fails the run), then the
# twin batch engine benchmark into BENCH_twin.json (twins/op, derived
# single-core twin-step throughput, and the zero-allocs/step guard), then
# the telemetry store scrape benchmark into BENCH_obs.json (ns per full
# registry sample and a zero-alloc hard gate: benchjson fails the run if
# BenchmarkStoreSample ever allocates), then the serving hot-path
# benchmarks into BENCH_serve.json (cache-hit admission latency with the
# hard 0 allocs/op gate, the result cache's read cost alone and with
# parallel readers on its one lock, the served-versus-bare capman step
# cost with its gap, and the step kernels a served step runs — one cell,
# one pack and one thermal step, each hard-gated at 0 allocs/op).
# End-to-end numbers over real HTTP are capbench's (capbench/run.sh).
#
# Benchmarks whose allocation gate binds at any iteration count (metrics
# registry, twin step, telemetry sample, step kernels)
# never run below 1000 iterations, whatever BENCHTIME says: at one
# iteration a single stray runtime allocation reads as 1/op and fails a
# gate the code meets. The serving gates are exempt at one iteration
# instead, and run at BENCHTIME.
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 2s; use 1x for a smoke run)
#   OUT        simstruct output path (default BENCH_simstruct.json at the repo root)
#   OUT_TWIN   twin output path (default BENCH_twin.json at the repo root)
#   OUT_OBS    telemetry output path (default BENCH_obs.json at the repo root)
#   OUT_SERVE  serving output path (default BENCH_serve.json at the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
OUT="${OUT:-BENCH_simstruct.json}"
OUT_TWIN="${OUT_TWIN:-BENCH_twin.json}"
OUT_OBS="${OUT_OBS:-BENCH_obs.json}"
OUT_SERVE="${OUT_SERVE:-BENCH_serve.json}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

alloc_benchtime="$BENCHTIME"
if [[ "$BENCHTIME" =~ ^([0-9]+)x$ ]] && (( BASH_REMATCH[1] < 1000 )); then
    alloc_benchtime=1000x
fi

go test -run '^$' -bench '^(BenchmarkSimilarityIndex|BenchmarkSimilarityIndexSized|BenchmarkValueIteration|BenchmarkEMD|BenchmarkEMDSolver)$' \
    -benchmem -benchtime "$BENCHTIME" . | tee "$raw"
go test -run '^$' -bench 'BenchmarkRegistryDisabled|BenchmarkCounterVec' \
    -benchmem -benchtime "$alloc_benchtime" ./internal/obs/metrics | tee -a "$raw"
go run ./scripts/benchjson < "$raw" > "$OUT"
echo "bench.sh: wrote $OUT"

: > "$raw"
go test -run '^$' -bench 'BenchmarkBatchedStep' \
    -benchmem -benchtime "$alloc_benchtime" ./internal/twin | tee "$raw"
go run ./scripts/benchjson < "$raw" > "$OUT_TWIN"
echo "bench.sh: wrote $OUT_TWIN"

: > "$raw"
go test -run '^$' -bench 'BenchmarkStoreSample' \
    -benchmem -benchtime "$alloc_benchtime" ./internal/obs/tsdb | tee "$raw"
go run ./scripts/benchjson < "$raw" > "$OUT_OBS"
echo "bench.sh: wrote $OUT_OBS"

: > "$raw"
go test -run '^$' -bench 'BenchmarkAdmissionPath|BenchmarkCache|BenchmarkServedStep' \
    -benchmem -benchtime "$BENCHTIME" ./internal/server | tee "$raw"
go test -run '^$' -bench '^(BenchmarkCellStep|BenchmarkPackStep)$' \
    -benchmem -benchtime "$alloc_benchtime" . | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkThermalStep' \
    -benchmem -benchtime "$alloc_benchtime" ./internal/thermal | tee -a "$raw"
go run ./scripts/benchjson < "$raw" > "$OUT_SERVE"
echo "bench.sh: wrote $OUT_SERVE"
