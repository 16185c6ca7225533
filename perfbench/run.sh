#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload fleet_lstm --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, the toolchain's temp and telemetry
# directories, the binary, and the traced run's spans.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
