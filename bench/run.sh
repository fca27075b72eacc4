#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source
# into <checkout>/.bench_build (Go's build cache and temp files are kept
# there too, so nothing outside the checkout is written) and runs it
# with the caller's arguments:
#
#   bash bench/run.sh --workload words_nearest --seed 1 --seconds 10 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" "$@"
