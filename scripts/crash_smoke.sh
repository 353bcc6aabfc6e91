#!/usr/bin/env bash
# Crash-recovery smoke for the live pipeline (DESIGN.md §15): run a real
# vantage point with live estimation and checkpointing, drive real DGA
# traffic at it with dgasim, kill -9 it mid-flight, restart it, and assert
# that the recovered /landscape is exactly what a batch botmeter run
# computes over the durable observed dataset. Then verify a clean shutdown
# writes a final checkpoint generation. The vantage runs two listeners, so
# every checkpoint is a cut across more than one socket worker. Both runs log
# JSON, and every line of the log must carry the logger's field schema.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
BIN="$WORK/bin"
VPID=""
cleanup() {
  [ -n "$VPID" ] && kill -9 "$VPID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT
cd "$ROOT"

DNS_ADDR=127.0.0.1:15390
OBS_ADDR=127.0.0.1:15391
FAMILY=newgoz
SEED=7

mkdir -p "$BIN"
go build -o "$BIN" ./cmd/vantage ./cmd/dgasim ./cmd/botmeter

start_vantage() {
  "$BIN/vantage" \
    -listen "$DNS_ADDR" \
    -observed "$WORK/observed.jsonl" \
    -flush-interval 100ms -flush-every 16 \
    -live-estimate "$FAMILY" -live-seed "$SEED" \
    -checkpoint-dir "$WORK/ckpt" -checkpoint-every 500 -checkpoint-interval 5s \
    -listeners 2 \
    -obs-addr "$OBS_ADDR" \
    -log-format json \
    >>"$WORK/vantage.log" 2>&1 &
  VPID=$!
}

wait_healthz() {
  for _ in $(seq 1 100); do
    if curl -fsS "http://$OBS_ADDR/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "vantage never became healthy" >&2
  cat "$WORK/vantage.log" >&2
  return 1
}

ckpt_gens() { ls "$WORK/ckpt"/checkpoint-*.ckpt 2>/dev/null | sort | tail -1; }

start_vantage
wait_healthz

# Round 1: real DGA traffic (UDP DNS queries drawing today's barrels).
"$BIN/dgasim" -family "$FAMILY" -seed "$SEED" -bots 6 -live "$DNS_ADDR"
sleep 1 # let the writer flush and the record-count checkpoint land

gen_before_kill="$(ckpt_gens)"
if [ -z "$gen_before_kill" ]; then
  echo "no checkpoint generation written before the crash" >&2
  cat "$WORK/vantage.log" >&2
  exit 1
fi

# Crash: SIGKILL. No flush, no final checkpoint — everything after the
# last flush/checkpoint must be recovered from disk state alone.
kill -9 "$VPID"
wait "$VPID" 2>/dev/null || true

# Restart: recovery restores the newest good checkpoint, replays the tail
# of the observed dataset exactly-once, and quiesces the reorder buffers so
# /landscape immediately equals the batch answer.
start_vantage
wait_healthz

curl -fsS "http://$OBS_ADDR/healthz" >"$WORK/healthz.txt"
if ! grep -q "recovered from checkpoint generation" "$WORK/healthz.txt"; then
  echo "recovery status missing from /healthz:" >&2
  cat "$WORK/healthz.txt" >&2
  cat "$WORK/vantage.log" >&2
  exit 1
fi

curl -fsS "http://$OBS_ADDR/landscape" >"$WORK/live.json"
"$BIN/botmeter" -family "$FAMILY" -seed "$SEED" \
  -in "$WORK/observed.jsonl" -format jsonl -lenient -json >"$WORK/batch.json"

python3 - "$WORK/live.json" "$WORK/batch.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    live = json.load(f)
with open(sys.argv[2]) as f:
    batch = json.load(f)
live.pop("ingest", None)  # stream-only ingest counters; batch has none
if live != batch:
    print("live /landscape diverged from the batch analysis", file=sys.stderr)
    print("live:  " + json.dumps(live, sort_keys=True)[:2000], file=sys.stderr)
    print("batch: " + json.dumps(batch, sort_keys=True)[:2000], file=sys.stderr)
    sys.exit(1)
print("OK: /landscape after kill -9 + recovery == batch landscape")
PY

# Round 2: more traffic after recovery, then a clean shutdown. The final
# checkpoint must advance the generation so the next start restores
# instead of replaying the whole dataset.
"$BIN/dgasim" -family "$FAMILY" -seed "$SEED" -bots 3 -live "$DNS_ADDR"
sleep 1
kill "$VPID" # SIGTERM: clean shutdown path
wait "$VPID" 2>/dev/null || true
VPID=""

gen_after_shutdown="$(ckpt_gens)"
if [ -z "$gen_after_shutdown" ] || [ "$gen_after_shutdown" = "$gen_before_kill" ]; then
  echo "clean shutdown did not write a final checkpoint (before: ${gen_before_kill##*/}, after: ${gen_after_shutdown##*/})" >&2
  cat "$WORK/vantage.log" >&2
  exit 1
fi

# The log schema, on a real daemon: each line of both runs is one JSON
# object with ts, level, msg and component, and the restarted run logged
# its restore.
python3 - "$WORK/vantage.log" <<'PY'
import json, sys
restored = 0
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        try:
            rec = json.loads(line)
        except ValueError as err:
            sys.exit(f"vantage.log:{n}: not a JSON line ({err}): {line!r}")
        if not isinstance(rec, dict) or not {"ts", "level", "msg", "component"} <= rec.keys() \
                or rec["component"] != "vantage":
            sys.exit(f"vantage.log:{n}: missing ts/level/msg/component=vantage: {line!r}")
        restored += rec["msg"] == "restored checkpoint"
if not restored:
    sys.exit("vantage.log: the restarted run never logged msg=\"restored checkpoint\"")
print(f"OK: vantage.log is {n} JSON lines with the log schema, restore logged")
PY

echo "OK: crash-recovery smoke passed (final generation ${gen_after_shutdown##*/})"
