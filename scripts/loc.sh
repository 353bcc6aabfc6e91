#!/usr/bin/env bash
# The one definition of "lines" ROADMAP's scoreboard and CHANGES.md quote:
# non-test *.go files, per package directory, in the main module and in
# bench/ (a module of its own), counted two ways — raw (what `wc -l`
# prints) and code (neither blank nor wholly inside a comment). One row per
# package, each module's total after its packages, the grand total last.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' | LC_ALL=C sort | xargs awk '
  FNR == 1 {
    dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
    if (dir == "") dir = "."
    if (!(dir in raw)) order[++n] = dir
    block = 0
  }
  {
    raw[dir]++
    line = $0; gsub(/^[ \t]+|[ \t\r]+$/, "", line)
    if (block) { if (line ~ /\*\//) block = 0; next }
    if (line == "" || line ~ /^\/\//) next
    if (line ~ /^\/\*/) { if (line !~ /\*\//) block = 1; next }
    code[dir]++
  }
  function row(name, r, c) { printf "%-28s %8d %8d\n", name, r, c }
  END {
    printf "%-28s %8s %8s\n", "package", "raw", "code"
    for (pass = 0; pass < 2; pass++) {
      r = c = 0
      for (i = 1; i <= n; i++) {
        d = order[i]
        if ((d ~ /^bench(\/|$)/) != pass) continue
        row(d, raw[d], code[d]); r += raw[d]; c += code[d]
      }
      row(pass ? "bench module" : "main module", r, c)
      R += r; C += c
    }
    row("total", R, C)
  }'
