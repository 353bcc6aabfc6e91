#!/usr/bin/env bash
# Candidates for ROADMAP's "use it or delete it": every exported func or
# method declared in a non-test *.go file of the main module whose name
# appears in no OTHER non-test file of the main module or of bench/. A report,
# not a gate — a name only tests read (Registry.GaugeValue), a method an
# interface outside the tree calls (String, ServeHTTP) and a facade function
# of the root package are legitimate hits; what is left has no caller.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' ! -path './.bench_build/*' | LC_ALL=C sort | xargs awk '
  # Every identifier a file mentions, once: users[word] counts files.
  {
    line = $0
    if (FILENAME !~ /^\.\/bench\// && match(line, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*/)) {
      name = substr(line, RSTART, RLENGTH); sub(/^func (\([^)]*\) )?/, "", name)
      decl[++n] = FILENAME ":" FNR ": " name; declName[n] = name; declFile[n] = FILENAME
    }
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      word = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
      if (!((FILENAME, word) in seen)) { seen[FILENAME, word] = 1; users[word]++ }
    }
  }
  END {
    for (i = 1; i <= n; i++)
      if (users[declName[i]] == 1) { sub(/^\.\//, "", decl[i]); print decl[i] }
  }'
