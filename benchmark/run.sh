#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is BENCHMARK.json's command; it is run from the root of a checkout:
#
#   bash benchmark/run.sh --workload ckpt-llm --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays inside the checkout: the Go build cache and
# the binary under .bench_build/, the stores under test under
# .bench_scratch/ (the benchmark's -scratch default). Both are in
# .gitignore. `go run ./benchmark` does the same with the user's own
# build cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Without the module there is nothing to build; say so before the go
# command is started at all.
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program under test is not here" >&2
	exit 1
fi

build="$PWD/.bench_build"
# XDG_CONFIG_HOME moves the go command's own configuration in here, and
# the mode file turns its telemetry off: in the default "local" mode the
# go command starts a detached child of itself (counter upkeep, once per
# configuration directory per day) that outlives this script.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

# Rebuilt on every call; with a warm cache that is a fraction of a
# second, and the binary can never be stale.
go build -o "$build/lsmio-benchmark" ./benchmark
exec "$build/lsmio-benchmark" "$@"
