#!/usr/bin/env bash
# Builds the atmperf benchmark from the checkout this script lives in and
# runs it with the given arguments, e.g.
#
#	bash bench/run.sh --workload lan_fabric --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build/ at the checkout root. The build fails,
# and nothing is run, when the repository's own module is not beside bench/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/bench" build -o "$out/atmperf" ./cmd/atmperf
exec "$out/atmperf" "$@"
