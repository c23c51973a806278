#!/usr/bin/env bash
# Builds the CLIs and the benchmark from this checkout into .bench_build,
# then runs one benchmark run. Run from the repository root:
#
#	bash perfbench/run.sh --workload align-se --seed 1 --seconds 10 --trace 0
#
# Every build output, the Go build cache and the generated inputs stay
# under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
mkdir -p "$out/bin"
go build -o "$out/bin/" ./cmd/casa-align ./cmd/casa-smem ./cmd/casa-serve ./cmd/casa-index >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -cache "$out/perfbench" "$@"
