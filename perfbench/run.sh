#!/usr/bin/env bash
# Builds the benchmark and its server process from source, then runs it.
# Run from the checkout root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --train     # rerun the weights recipe
#
# Builds and runs write only under .bench_build; --train rewrites
# perfbench/weights.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off CGO_ENABLED=0
(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/server" ./server
) >&2
exec "$out/bin/perfbench" -root "$root" -server "$out/bin/server" "$@"
