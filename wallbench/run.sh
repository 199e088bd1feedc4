#!/usr/bin/env bash
# Builds the wall-clock benchmark from this checkout and runs it.
#
#   bash wallbench/run.sh --workload cold-discovery --seed 1 --seconds 24 --trace 0
#
# Run from the root of the repository. Every build output (Go build
# cache, binary, traced-run files) goes under $CARGO_TARGET_DIR, or
# .bench_build when that is unset, so nothing is written outside the
# checkout. The module replaces `repro` with the parent directory, so a
# directory holding only the benchmark fails to build and exits non-zero
# without printing a result.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

go -C "$root/wallbench" build -o "$out/wallbench" .
exec "$out/wallbench" -trace-dir "$out/wallbench-trace" "$@"
