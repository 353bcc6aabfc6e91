#!/usr/bin/env bash
# Trace sort gate (DESIGN.md §12): Observed.Sort's radix kernel must stay
# well ahead of the stable comparison sort it replaced. Runs
# BenchmarkTraceSort on the shuffled 10^6-record day and fails when the
# reference's ns/record is less than three times the kernel's — a ratio
# taken inside one process, so it holds on a loud box. (The ratio read 6
# to 7 on two vCPUs when the kernel was introduced.)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
out="$(go test -run='^$' -bench='BenchmarkTraceSort/shuffled/1000000/' -benchtime=3x ./internal/trace/)"
echo "$out"
echo "$out" | awk '
  function figure(   i) { for (i = 2; i <= NF; i++) if ($i == "ns/record") return $(i-1); return 0 }
  $1 ~ /^BenchmarkTraceSort\/shuffled\/1000000\/reference(-[0-9]+)?$/ { ref = figure() }
  $1 ~ /^BenchmarkTraceSort\/shuffled\/1000000\/radix(-[0-9]+)?$/     { radix = figure() }
  END {
    if (ref <= 0 || radix <= 0) { print "trace sort gate: benchmark figures missing" > "/dev/stderr"; exit 1 }
    printf "trace sort: %.1f ns/record against the reference'"'"'s %.1f, ratio %.2f (floor 3)\n", radix, ref, ref / radix
    if (ref < 3 * radix) { print "trace sort gate: the radix kernel lost its lead over the comparison sort" > "/dev/stderr"; exit 1 }
  }'
