#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything it
# writes (Go build cache, binary, data directories) stays under .bench_build/
# in the checkout; nothing is fetched from the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$out/dvvperf" .
cd "$root"
exec "$out/dvvperf" "$@"
