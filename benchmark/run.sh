#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# inside the checkout and runs it; the build cache, the binary, temp
# directories and out/ all stay under the checkout, so a run reads and
# writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/baobench" .)
exec "$build/baobench" -out "$here/out" -spec "$here/../BENCHMARK.json" "$@"
