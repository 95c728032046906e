#!/usr/bin/env bash
# Builds the specbench driver from the checkout's sources, then runs it
# with the given arguments. Run from the repository root, e.g.
#
#   bash specbench/run.sh --workload hot-cache --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout. Build output goes to stderr, so stdout
# carries only the benchmark's result lines.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/specbench" && go build -o "$out/specbench" .) >&2
exec "$out/specbench" "$@"
