#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
#   bash perfbench/run.sh --workload bulk-taq --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Every build artifact (the binary, the Go
# build cache, the span dumps of traced runs) goes under .bench_build/
# in that root, and the Go tool is kept from the network and from the
# user's home directory.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
