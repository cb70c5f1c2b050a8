#!/usr/bin/env bash
# Builds the DISCS benchmark from the checkout it sits in, then runs it:
#
#   bash perfbench/run.sh --workload paper-44k --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the result files all live under
# .bench_build/ at the checkout root; nothing is fetched over the network.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
