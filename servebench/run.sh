#!/usr/bin/env bash
# Builds the rlserve service benchmark from the sources of the checkout it
# is run from, then runs it with the given arguments:
#
#   bash servebench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact (Go build cache,
# module cache, binary, scratch stores) stays under .bench_build/ in the
# working directory, and nothing is downloaded: the benchmark imports
# only the standard library and this repository's own packages.
set -euo pipefail

root=$(pwd)
if [[ ! -f servebench/go.mod ]]; then
	echo "servebench/run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build/servebench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOWORK=off

(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -work "$out" "$@"
