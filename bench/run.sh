#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload eval-steady --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, run
# files, span files) stays under .bench_build/ at the repository root, so
# the run touches nothing outside the checkout. The build fails, and the
# script exits non-zero without printing a result, when the repository
# sources next to bench/ are missing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/bench" && go build -o "$out/visabench" .)
cd "$root"
exec "$out/visabench" "$@"
