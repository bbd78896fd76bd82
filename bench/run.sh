#!/usr/bin/env bash
# Builds cactid-serve and the benchmark harness from this checkout into
# .bench_build/, then runs the harness with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh -workload dse-cold -seed 1 -seconds 10 -trace 0
#
# Everything it builds, caches and writes stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/cactid-serve || ! -f bench/go.mod ]]; then
  echo "bench/run.sh: run from the root of a cactid checkout" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the Go toolchain's caches, temporary files, configuration and
# telemetry inside the checkout; the module has no dependencies to fetch.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOWORK=off GOTOOLCHAIN=local

go build -o "$out/cactid-serve" ./cmd/cactid-serve
(cd bench && go build -o "$out/cactid-bench" .)
exec "$out/cactid-bench" "$@"
