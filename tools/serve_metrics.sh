#!/bin/sh
# Metrics / observability test of the serving stack (docs/OBSERVABILITY.md,
# docs/SERVING.md):
#
#   1. exposition   — --metrics-out writes a registry snapshot at startup,
#      rewrites it while serving, and the Prometheus variant carries the
#      expected families;
#   2. metrics op   — a `metrics` request against the live server returns a
#      snapshot inline, and `stats` carries schema_version / git_rev /
#      uptime_seconds;
#   3. flush_trace  — the admin op write-and-clears --trace-out on demand,
#      and SIGUSR1 does the same without stopping the daemon.
# The registry's schema is checked where it is written
# (Metrics.ToJsonIsSchemaValidAndSorted), the responses' form where they
# are rendered (the ServeRender tests), and the deterministic half's
# independence of threads and batch boundaries in-process
# (ServeMetrics.DeterministicHalfIgnoresThreadsAndBatching).
#
#   serve_metrics.sh DYNCG_SERVE DYNCG_LOAD
set -e
SERVE=$1
LOAD=$2
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
grep -q '"kind":"dyncg-metrics"' "$dir/metrics.json"

{
  echo '{"op":"neighbor","scenario":{"seed":1,"n":8,"k":1},"query":0}'
  echo '{"op":"neighbor","scenario":{"seed":1,"n":8,"k":1},"query":0}'
  echo '{"op":"stats","id":"s"}'
  echo '{"op":"metrics","id":"m"}'
  echo '{"op":"flush_trace","id":"f"}'
} > "$dir/reqs"
"$LOAD" --port-file "$dir/port" --send "$dir/reqs" --results-out "$dir/resp"
test "$(grep -c '"status":"OK"' "$dir/resp")" = 5
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
grep -q '"kind":"dyncg-metrics"' "$dir/metrics.json"
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
