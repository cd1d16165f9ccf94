#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the serve workload's run cache all stay
# under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" --workdir "$out/work" "$@"
