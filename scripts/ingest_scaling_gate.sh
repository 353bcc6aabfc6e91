#!/usr/bin/env bash
# Stream-engine scaling gate (DESIGN.md §13, cost model): what a shard does
# per matched record must not follow the number of forwarding servers it
# holds state for. Runs BenchmarkIngestServers and fails when ns/record at
# 2 048 servers exceeds three times ns/record at 16 — a ratio taken inside
# one process, so it holds on a loud box. (At 8277555, where every record
# walked every server's cells, the ratio was 55.)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
out="$(go test -run='^$' -bench='BenchmarkIngestServers' -benchtime=3x ./internal/stream/)"
echo "$out"
echo "$out" | awk '
  function figure(   i) { for (i = 2; i <= NF; i++) if ($i == "ns/record") return $(i-1); return 0 }
  $1 ~ /^BenchmarkIngestServers\/16(-[0-9]+)?$/   { small = figure() }
  $1 ~ /^BenchmarkIngestServers\/2048(-[0-9]+)?$/ { large = figure() }
  END {
    if (small <= 0 || large <= 0) { print "ingest scaling gate: benchmark figures missing" > "/dev/stderr"; exit 1 }
    printf "ingest scaling: %.0f ns/record at 2048 servers, %.0f at 16, ratio %.2f (limit 3)\n", large, small, large / small
    if (large > 3 * small) { print "ingest scaling gate: per-record cost follows the server count" > "/dev/stderr"; exit 1 }
  }'
