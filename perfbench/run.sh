#!/usr/bin/env bash
# Builds pgserved and the benchmark from the sources of the checkout it is
# run in, then runs the benchmark with the arguments given. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes (Go build cache, binaries, results, span
# files) stays under .bench_build/perfbench in the checkout.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
# The go command reads its telemetry mode from this file, not from the
# environment. Unless it says off, go starts a detached telemetry child in a
# session of its own that outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/pgserved" ./cmd/pgserved >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -pgserved "$out/pgserved" -out "$out" "$@"
