#!/usr/bin/env bash
# Builds the benchmark and the cmd/serve binary from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-mc --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the unix sockets all stay under
# .bench_build in the current directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd perfbench && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/serve" repro/cmd/serve)
exec "$build/bin/perfbench" --serve-bin "$build/bin/serve" "$@"
