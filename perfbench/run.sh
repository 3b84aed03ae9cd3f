#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload wire-sync --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, module cache, tool
# configuration, temporary files) stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" --out "$out/trace" "$@"
