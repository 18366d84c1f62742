#!/usr/bin/env bash
# Builds the benchmark and vaschedd from source into .bench_build and runs
# one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dvfs-timeline --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write (Go build cache, binaries, spans,
# the job service's WAL and logs) stays under .bench_build.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local

(cd perfbench && go build -o "$build/perfbench" .)
go build -o "$build/vaschedd" ./cmd/vaschedd

exec "$build/perfbench" --vaschedd "$build/vaschedd" --work-dir "$build" "$@"
