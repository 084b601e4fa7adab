#!/usr/bin/env bash
# Builds the benchmark driver and the server under test from source and
# runs one benchmark workload. Run it from the repository root:
#
#   bash bench/run.sh --workload figures --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write lands in .bench_build/ under
# the current directory: the Go build cache, the binaries, the server
# log and the traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# The go command's caches, scratch files and telemetry setting stay
# under $out too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off
# With telemetry on, any go command may start a detached upload process
# that outlives the benchmark. "go telemetry off" starts none itself and
# records the setting for the go commands that follow, here and in the
# driver (go tool pprof).
go telemetry off

go build -o "$out/locwatchd" ./cmd/locwatchd
(cd bench && go build -o "$out/locwatchbench" ./locwatchbench)
exec "$out/locwatchbench" -root "$root" -locwatchd "$out/locwatchd" "$@"
