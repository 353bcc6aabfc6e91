#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness inside the checkout
# and runs it. Everything the build and the run write stays under
# .bench_build/ at the repository root (build cache, binaries, scratch).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
