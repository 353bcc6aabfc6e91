#!/usr/bin/env bash
# Wire-path smoke (DESIGN.md §19): stand up the production pipeline —
# vantage with live estimation behind resolver, both on their zero-copy
# SO_REUSEPORT serve loops — and drive it with cmd/loadgen at a modest
# fixed open-loop rate for 5 seconds. The run must finish with zero drops
# and zero decode errors, and both daemons' /healthz must answer 200 the
# whole time (polled concurrently with the load).
#
# A second pass restarts both daemons and sends more distinct names than
# queries, so every query takes the resolver's miss pipeline (DESIGN.md
# §19): same assertions, plus every query forwarded exactly once — the
# resolver's count equals the lines the vantage wrote — and nothing left in
# flight after the drain.
#
# A third pass restarts the vantage with -checkpoint-dir and loads it
# directly, so every query is observed and the count trigger fires: same
# assertions, plus at least one checkpoint written mid-load and no sign in
# the log of the vantage having swapped serve loops (DESIGN.md §15).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
BIN="$WORK/bin"
VPID=""
RPID=""
WATCH=""
cleanup() {
  [ -n "$WATCH" ] && kill "$WATCH" 2>/dev/null || true
  [ -n "$RPID" ] && kill -9 "$RPID" 2>/dev/null || true
  [ -n "$VPID" ] && kill -9 "$VPID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT
cd "$ROOT"

VANTAGE_DNS=127.0.0.1:15490
VANTAGE_OBS=127.0.0.1:15491
RESOLVER_DNS=127.0.0.1:15492
RESOLVER_OBS=127.0.0.1:15493
RATE=1000
DURATION=5s

mkdir -p "$BIN"
go build -o "$BIN" ./cmd/vantage ./cmd/resolver ./cmd/loadgen

start_vantage() { # extra vantage flags as arguments
  "$BIN/vantage" \
    -listen "$VANTAGE_DNS" \
    -observed "$WORK/observed.jsonl" \
    -flush-interval 200ms -flush-every 64 \
    -live-estimate newgoz -live-seed 7 \
    -obs-addr "$VANTAGE_OBS" \
    "$@" \
    >>"$WORK/vantage.log" 2>&1 &
  VPID=$!
  disown
}
start_vantage

start_resolver() {
  "$BIN/resolver" \
    -listen "$RESOLVER_DNS" \
    -upstream "$VANTAGE_DNS" \
    -obs-addr "$RESOLVER_OBS" \
    >>"$WORK/resolver.log" 2>&1 &
  RPID=$!
  disown
}
start_resolver

stop_daemon() { # pid as argument: SIGTERM, so the vantage flushes its dataset
  kill "$1"
  while kill -0 "$1" 2>/dev/null; do sleep 0.1; done
}

metric() { # obs address and series name as arguments
  curl -fsS "http://$1/metrics" | awk -v name="$2" '$1 == name {print $2}'
}

wait_healthz() {
  local addr="$1" name="$2"
  for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "$name never became healthy" >&2
  cat "$WORK/$name.log" >&2
  return 1
}
wait_healthz "$VANTAGE_OBS" vantage
wait_healthz "$RESOLVER_OBS" resolver

# Health watcher: any non-200 during the load is a failure. It polls both
# daemons every 200ms and records misses; the main flow asserts the file
# stays empty.
watch_health() {
  (
    while :; do
      for pair in "vantage=$VANTAGE_OBS" "resolver=$RESOLVER_OBS"; do
        name="${pair%%=*}"
        addr="${pair#*=}"
        if ! curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
          echo "$(date -u +%T) $name /healthz not 200" >>"$WORK/health_failures"
        fi
      done
      sleep 0.2
    done
  ) &
  WATCH=$!
}
watch_health

pause_watch() {
  kill "$WATCH" 2>/dev/null || true
  wait "$WATCH" 2>/dev/null || true
  WATCH=""
}

load() { # target address, then any loadgen flags that override the defaults
  local target="$1"
  shift
  "$BIN/loadgen" \
    -target "$target" \
    -rate "$RATE" -duration "$DURATION" -drain 2s \
    -sockets 2 -domains 256 \
    -json "$WORK/summary.json" \
    -pipeline-pids "$RPID,$VPID" \
    "$@" \
    | tee "$WORK/loadgen.out"

  if [ -s "$WORK/health_failures" ]; then
    echo "healthz degraded during the load:" >&2
    cat "$WORK/health_failures" >&2
    cat "$WORK/vantage.log" "$WORK/resolver.log" >&2
    exit 1
  fi

  python3 - "$WORK/summary.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    s = json.load(f)
problems = []
if s["sent"] == 0:
    problems.append("no queries sent")
if s["drops"] != 0:
    problems.append(f"drops={s['drops']} (sent={s['sent']} received={s['received']})")
if s["decode_errors"] != 0:
    problems.append(f"decode_errors={s['decode_errors']}")
if problems:
    print("loadgen smoke failed: " + "; ".join(problems), file=sys.stderr)
    print(json.dumps(s, indent=2), file=sys.stderr)
    sys.exit(1)
print(f"OK: {s['sent']} queries, 0 drops, 0 decode errors, "
      f"p99={s['p99_sec']*1e6:.0f}us, qps/core={s.get('qps_per_core', 0):.0f}")
PY
}

load "$RESOLVER_DNS"

# Second pass: the miss pipeline. Fresh daemons, so the counters and the
# dataset start at zero, and one sender socket, so no name is asked twice.
# The health watcher is paused across each restart.
pause_watch
stop_daemon "$RPID"
stop_daemon "$VPID"
rm -f "$WORK/observed.jsonl"
start_vantage
start_resolver
wait_healthz "$VANTAGE_OBS" vantage
wait_healthz "$RESOLVER_OBS" resolver
watch_health

load "$RESOLVER_DNS" -sockets 1 -rate 2000 -domains 20000

pause_watch
sent="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["sent"])' "$WORK/summary.json")"
forwarded="$(metric "$RESOLVER_OBS" resolver_forwarded_total)"
inflight="$(metric "$RESOLVER_OBS" resolver_inflight)"
if [ "$((forwarded * 100))" -lt "$((sent * 99))" ]; then
  echo "resolver forwarded $forwarded of $sent never-seen names, want at least 99%" >&2
  cat "$WORK/resolver.log" >&2
  exit 1
fi
if [ "$inflight" != "0" ]; then
  echo "resolver_inflight is $inflight after the drain, want 0" >&2
  exit 1
fi
stop_daemon "$VPID"
observed="$(wc -l <"$WORK/observed.jsonl")"
if [ "$observed" -ne "$forwarded" ]; then
  echo "the vantage observed $observed lookups, the resolver forwarded $forwarded: a name went upstream twice" >&2
  cat "$WORK/resolver.log" >&2
  exit 1
fi
echo "OK: $forwarded of $sent misses forwarded, each observed once; nothing left in flight"

# Third pass: the crash-safe configuration.
rm -f "$WORK/observed.jsonl"
start_vantage -checkpoint-dir "$WORK/ckpt" -checkpoint-every 2000
wait_healthz "$VANTAGE_OBS" vantage
watch_health

load "$VANTAGE_DNS"

# Read the counter while the vantage still runs: the clean-shutdown
# checkpoint must not be what satisfies the assertion.
written="$(metric "$VANTAGE_OBS" stream_checkpoints_total)"
if [ "${written:-0}" -lt 1 ]; then
  echo "no checkpoint was written under load (stream_checkpoints_total=${written:-absent})" >&2
  cat "$WORK/vantage.log" >&2
  exit 1
fi
if grep -qi "demoted" "$WORK/vantage.log"; then
  echo "the vantage log mentions a demoted serve loop:" >&2
  grep -i "demoted" "$WORK/vantage.log" >&2
  exit 1
fi
echo "OK: $written checkpoint(s) written under load on the one serve loop"

kill "$WATCH" 2>/dev/null || true
WATCH=""

# Final explicit 200s after the load has drained.
curl -fsS "http://$VANTAGE_OBS/healthz" >/dev/null
curl -fsS "http://$RESOLVER_OBS/healthz" >/dev/null
echo "OK: loadgen smoke passed (pipeline healthy throughout)"
