#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# (Go's build cache, temp files, module path and telemetry counters are kept
# there too, so nothing is written outside the checkout) and runs it with the
# given arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
(cd "$root/benchmark" && go build -o "$build/helix-benchmark" .)
cd "$root"
exec "$build/helix-benchmark" "$@"
