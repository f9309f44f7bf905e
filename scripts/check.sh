#!/usr/bin/env bash
# Local CI gate: formatting, vet, build, and the race-enabled test suite.
# Run from anywhere; it operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

# Metric naming: every literal registration site must follow the
# snake_case + unit/_total suffix rules (internal/obs/metrics.CheckName).
echo "== metric naming lint =="
go run ./scripts/metriclint

# staticcheck is optional tooling: run it when installed, say so when not,
# never fail the gate over its absence.
echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping"
fi

echo "== go build =="
go build ./...

# Safety-invariant smoke: the whole fault-plan library must run clean of
# fatal violations under the runtime checker (faults perturb sensors and
# actuators, never physics), the seeded-bug and thermal-breach detection
# paths must fire, and the disabled-checker path must stay bit-identical.
echo "== invariant smoke: fault library + seeded violations =="
go test ./internal/sim -count=1 -run \
    'TestFaultPlanLibraryNoFatalViolations|TestSeededSoCBugTripsCheckerAndGuard|TestTECDropoutBreachesThermalCeiling|TestRunInvariantsBitIdentical'

# Fast-fail on the robustness layer (fault injection + capmand) before the
# full suite: these packages carry the concurrency-heavy code paths.
echo "== robustness focus: vet + race on fault/server =="
go vet ./internal/fault ./internal/server
go test -race ./internal/fault ./internal/server

# Telemetry-plane smoke: a live capmand's /v1/stream must deliver
# telemetry samples and the submitted job's completion event to a
# subscriber within 5 seconds, end to end over real HTTP.
echo "== telemetry smoke: /v1/stream samples + job-done =="
go test ./cmd/capman-serve -count=1 -run 'TestServeStreamSmoke'

# Request-tracing smoke: a live daemon with default tracing must retain
# a traced submission's finished job and serve its waterfall (queue +
# engine-phase spans) from /v1/traces/{id}; and a live daemon with
# tracing disabled must still serve a job's record (submitted -> done)
# from /v1/jobs/{id}/trace while /v1/traces is 503.
echo "== trace smoke: /v1/traces waterfall, /v1/jobs/{id}/trace record =="
go test ./cmd/capman-serve -count=1 -run 'TestServeTraceSmoke|TestServeJobRecordSmoke'

# Serving smoke: one short capbench mixed run boots the real capman-serve
# binary over loopback HTTP, primes 24 capman sims and 8 tte cohorts and
# verifies their outcome digests, then requires every hit request to come
# back cacheHit with the verified bytes (9 requests in 10) and counts any
# error as failed. capbench exits 0 even when a run is incorrect, so the
# step reads the result object (the last stdout line) itself.
echo "== serving smoke: capbench mixed run, correct and no failed ops =="
if ! smoke_result="$(bash capbench/run.sh --workload mixed --seed 1 --seconds 2 --trace 0 | tail -n 1)" \
    || ! grep -q '"correct":true' <<<"$smoke_result" \
    || ! grep -q '"failed":0[,}]' <<<"$smoke_result"; then
    echo "capbench mixed smoke failed: ${smoke_result:-capbench printed no result line}" >&2
    exit 1
fi

# capbench is its own module, so the root vet and test never reach it.
echo "== capbench: go vet + go test =="
(cd capbench && go vet ./... && go test ./...)

echo "== go test -race =="
go test -race ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash without paying for stable timings.
echo "== benchmark smoke (1 iteration each) =="
go test -run='^$' -bench=. -benchtime=1x ./... > /dev/null

# The benchmark trajectories: one-iteration run through bench.sh so every
# go test | benchjson pipeline (simstruct + twin + obs + serve) stays
# executable end to end, including the twin zero-allocs/step hard gate.
echo "== bench trajectory smoke (bench.sh) =="
smoke_out="$(mktemp)"
smoke_twin="$(mktemp)"
smoke_obs="$(mktemp)"
smoke_serve="$(mktemp)"
BENCHTIME=1x OUT="$smoke_out" OUT_TWIN="$smoke_twin" OUT_OBS="$smoke_obs" \
    OUT_SERVE="$smoke_serve" ./scripts/bench.sh > /dev/null
rm -f "$smoke_out" "$smoke_twin" "$smoke_obs" "$smoke_serve"

echo "all checks passed"
