#!/usr/bin/env bash
# Builds the benchmark harness and the wsstudy binary from the checkout it
# is run in, then runs the harness with the given arguments:
#
#   bash wsbench/run.sh --workload fig6-full --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and Go tool state lives under .bench_build
# in the checkout; the program has no dependencies to fetch. Go telemetry
# is switched off in that private config directory before the first go
# command, since otherwise the go command forks a detached upload process
# that can outlive this script.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/wsstudy" ./cmd/wsstudy
(cd wsbench && go build -o "$out/wsbench" .)
exec "$out/wsbench" -root "$root" -wsstudy "$out/wsstudy" "$@"
