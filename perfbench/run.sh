#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload udf_scan --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under perfbench/.build: the Go build cache,
# the binary, the databases of the run and the traced run's spans.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --dir "$build/work" "$@"
