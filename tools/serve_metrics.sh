#!/bin/sh
# Metrics / observability test of the serving stack (docs/OBSERVABILITY.md,
# docs/SERVING.md):
#
#   1. exposition   — --metrics-out writes a schema-valid registry snapshot
#      at startup, rewrites it while serving, and the Prometheus variant
#      carries the expected families;
#   2. metrics op   — a `metrics` request against the live server returns a
#      schema-valid snapshot inline (validated by --serve-response), and
#      `stats` carries schema_version / git_rev / uptime_seconds;
#   3. flush_trace  — the admin op write-and-clears --trace-out on demand,
#      and SIGUSR1 does the same without stopping the daemon;
#   4. determinism  — the stability=deterministic half of the registry is
#      byte-identical for the same request script across --threads 1 and 4
#      and whether the script arrives in one write (multi-request batches)
#      or one line per write, with the cache on and with it off.
#
#   serve_metrics.sh DYNCG_SERVE DYNCG_LOAD DYNCG_JSON_CHECK
set -e
SERVE=$1
LOAD=$2
CHECK=$3
dir=$(mktemp -d)
pid=
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null
  rm -rf "$dir"
}
trap cleanup EXIT

wait_for_file() {
  i=0
  while [ ! -s "$1" ]; do
    i=$((i + 1))
    test "$i" -le 100
    sleep 0.1
  done
}

# --- 1+2+3. JSON exposition, metrics/stats/flush_trace ops, SIGUSR1 --------
"$SERVE" --port-file "$dir/port" --metrics-out "$dir/metrics.json" \
  --metrics-interval 1 --trace-out "$dir/trace.json" &
pid=$!
wait_for_file "$dir/port"

# Startup snapshot is written before the first request is accepted.
wait_for_file "$dir/metrics.json"
"$CHECK" --metrics "$dir/metrics.json" > /dev/null

{
  echo '{"op":"neighbor","scenario":{"seed":1,"n":8,"k":1},"query":0}'
  echo '{"op":"neighbor","scenario":{"seed":1,"n":8,"k":1},"query":0}'
  echo '{"op":"stats","id":"s"}'
  echo '{"op":"metrics","id":"m"}'
  echo '{"op":"flush_trace","id":"f"}'
} > "$dir/reqs"
"$LOAD" --port-file "$dir/port" --send "$dir/reqs" --results-out "$dir/resp"
"$CHECK" --serve-response "$dir/resp" > /dev/null
grep -q '"schema_version":4' "$dir/resp"
grep -q '"git_rev":"' "$dir/resp"
grep -q '"uptime_seconds":' "$dir/resp"
grep -q '"kind":"dyncg-metrics"' "$dir/resp"
grep -q '"id":"f","status":"OK"' "$dir/resp"
test -s "$dir/trace.json"

# SIGUSR1 write-and-clears the trace file without stopping the daemon.
rm "$dir/trace.json"
kill -USR1 "$pid"
wait_for_file "$dir/trace.json"

# The periodic rewrite reflects requests served after startup.
rm "$dir/metrics.json"
wait_for_file "$dir/metrics.json"
"$CHECK" --metrics "$dir/metrics.json" > /dev/null
grep -q '"name":"serve.cache.hits","help"' "$dir/metrics.json"

kill -TERM "$pid"
wait "$pid"
pid=

# --- 1b. Prometheus exposition ---------------------------------------------
"$SERVE" --port-file "$dir/port2" --metrics-out "$dir/metrics.prom" &
pid=$!
{
  echo '{"op":"ping"}'
  echo '{"op":"neighbor","scenario":{"seed":1,"n":8,"k":1},"query":0}'
} > "$dir/ping"
"$LOAD" --port-file "$dir/port2" --send "$dir/ping" > /dev/null
kill -TERM "$pid"
wait "$pid"
pid=
# The shutdown write is unconditional, so the final file has the families.
grep -q '^# TYPE dyncg_serve_requests_ping counter$' "$dir/metrics.prom"
grep -q '^# TYPE dyncg_serve_query_rounds histogram$' "$dir/metrics.prom"
grep -q '_bucket{le="+Inf"}' "$dir/metrics.prom"

# --- 4. deterministic half independent of threads and batch boundaries ----
# Nine distinct requests, each twice.
: > "$dir/script"
for pass in 1 2; do
  for seed in 1 2 3; do
    {
      echo '{"op":"neighbor","scenario":{"seed":'$seed',"n":8,"k":1},"query":0}'
      echo '{"op":"collisions","scenario":{"seed":'$seed',"n":8,"k":1},"query":1}'
      echo '{"op":"contain","scenario":{"seed":'$seed',"n":8,"k":1},"box":[8,6]}'
    } >> "$dir/script"
  done
done
# det NAME LOAD_FLAGS [DYNCG_SERVE FLAGS...]: serve the script on a fresh
# daemon and keep the deterministic half of its final registry in
# $dir/det.NAME.  LOAD_FLAGS "--pipeline" sends the script in one write, so
# the daemon forms multi-request batches; "" sends one line per write and
# waits for each answer, so every batch holds one request.
det() {
  name=$1
  load_flags=$2
  shift 2
  "$SERVE" --port-file "$dir/port.$name" --metrics-out "$dir/m.$name.json" \
    "$@" &
  pid=$!
  "$LOAD" --port-file "$dir/port.$name" --send "$dir/script" $load_flags \
    --oracle > /dev/null
  kill -TERM "$pid"
  wait "$pid"
  pid=
  "$CHECK" --metrics-deterministic "$dir/m.$name.json" > "$dir/det.$name"
  test -s "$dir/det.$name"
}
det t1 --pipeline --threads 1
det t4 --pipeline --threads 4
det lines "" --threads 1
diff "$dir/det.t1" "$dir/det.t4"
diff "$dir/det.t1" "$dir/det.lines"
# With the cache off every repeat computes again, in a batch or alone.
det off --pipeline --cache-cap 0
det off_lines "" --cache-cap 0
diff "$dir/det.off" "$dir/det.off_lines"
