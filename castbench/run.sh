#!/usr/bin/env bash
# Builds the cast benchmark from source and runs it. Run from the root of a
# checkout: every build artifact, cache and temporary file stays under
# .bench_build/ there, and nothing is fetched (the benchmark needs only the
# standard library and the morpheus module one directory up).
#
#   bash castbench/run.sh --workload flood-udp --seed 1 --seconds 10 --trace 0
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off \
	GOFLAGS=-mod=readonly
(cd castbench && go build -o "$out/castbench" .)
exec "$out/castbench" "$@"
