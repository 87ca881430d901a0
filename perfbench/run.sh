#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload sweep-plan --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, results, scratch stores) goes under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ expected)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

# Keep the Go toolchain's caches and config inside the checkout and offline.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export PERFBENCH_OUT="$out"

rm -f "$out/perfbench"
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
