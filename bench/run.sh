#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash bench/run.sh --workload live_swarm --seed 3 --seconds 20 --trace 0
#
# It builds the driver from source and runs it with the arguments
# given. Everything the build writes — the binary, Go's build cache,
# its temporary and configuration directories — goes under .bench_build
# in the checkout, which .gitignore names.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

go build -C "$here" -o "$build/bench" .
exec "$build/bench" "$@"
