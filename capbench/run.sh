#!/usr/bin/env bash
# Builds capman-serve and capbench from the checkout this is run
# from (its root must be the current directory), then runs capbench with
# the given arguments, e.g.
#
#   bash capbench/run.sh --workload hit --seed 1 --seconds 14 --trace 0
#
# Every build product and Go cache lives under .bench_build in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/capman-serve ]; then
	echo "capbench: run from the repository root (no cmd/capman-serve here)" >&2
	exit 2
fi
out="$PWD/.bench_build/capbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -o "$out/capman-serve" ./cmd/capman-serve
(cd capbench && go build -o "$out/capbench" .)
exec "$out/capbench" -serve "$out/capman-serve" -dir "$out" "$@"
