#!/usr/bin/env bash
# Builds neubench and the neuserve binary under test from the checkout in
# the working directory, then runs neubench with the given arguments.
#
#   bash bench/neubench/run.sh --workload dense-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binaries, store
# directories and the cached disk-warm store.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

go -C bench/neubench build -o "$out/neubench" .
go build -o "$out/neuserve" ./cmd/neuserve
exec "$out/neubench" -neuserve "$out/neuserve" -work "$out/work" "$@"
