#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through:
#
#   bash perfbench/run.sh --workload live-wc-push --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, temp
# files and spill files all stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build/work" "$@"
