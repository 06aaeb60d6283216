#!/bin/sh
# End-to-end test of the serving stack (docs/SERVING.md):
#
#   1. byte-identity  — a mixed batch (3 ops x 3 scenarios) served over the
#      socket must decode to exactly the bytes dyncg_cli prints for the
#      same scenarios (minus the CLI's trailing cost line);
#   2. cache counters — after 3 identical passes plus the decode pass the
#      server must report exactly 9 misses and 27 hits (FIFO cache +
#      ordered stream = exact counters, docs/SERVING.md#cache); then the
#      other four mappings (pairs, hullwhen, steady, contain without a box)
#      x 3 scenarios decode to the CLI's bytes too, so all six ops are
#      diffed;
#   3. error paths    — malformed JSON, unknown ops, out-of-range
#      scenarios, and over-long lines are rejected with the documented
#      status names, and the connection stays usable afterwards;
#   4. shutdown       — both daemons exit 0 on SIGTERM.
# Every query line also passes the server's own parser (dyncg_load --decode
# exits 5 on an answer that is not OK), and every query answer is
# byte-checked against an in-process run (dyncg_load --oracle).
#
#   serve_e2e.sh DYNCG_SERVE DYNCG_LOAD DYNCG_CLI
set -e
SERVE=$1
LOAD=$2
CLI=$3
dir=$(mktemp -d)
pid=
pid2=
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null
  [ -n "$pid2" ] && kill "$pid2" 2>/dev/null
  rm -rf "$dir"
}
trap cleanup EXIT

"$SERVE" --port-file "$dir/port" &
pid=$!

# --- 1. mixed batch vs the CLI oracle -------------------------------------
# 9 unique requests: neighbor / collisions / contain over seeds 1..3.
: > "$dir/uniq"
for seed in 1 2 3; do
  {
    echo '{"op":"neighbor","scenario":{"seed":'$seed',"n":8,"k":1},"query":0}'
    echo '{"op":"collisions","scenario":{"seed":'$seed',"n":8,"k":1},"query":1}'
    echo '{"op":"contain","scenario":{"seed":'$seed',"n":8,"k":1},"box":[8,6]}'
  } >> "$dir/uniq"
done

# Three identical passes: pass 1 -> 9 misses, passes 2-3 -> 18 hits.
cat "$dir/uniq" "$dir/uniq" "$dir/uniq" > "$dir/reqs"
"$LOAD" --port-file "$dir/port" --send "$dir/reqs" --oracle \
  --results-out "$dir/resp"
test "$(grep -c '"cache":"miss"' "$dir/resp")" = 9
test "$(grep -c '"cache":"hit"' "$dir/resp")" = 18

# Decode pass (9 more hits): served bytes == CLI stdout minus its cost line.
"$LOAD" --port-file "$dir/port" --send "$dir/uniq" --decode \
  --results-out "$dir/got"
: > "$dir/want"
for seed in 1 2 3; do
  "$CLI" neighbor --seed "$seed" --n 8 --k 1 --query 0 | sed '$d' >> "$dir/want"
  "$CLI" collisions --seed "$seed" --n 8 --k 1 --query 1 | sed '$d' >> "$dir/want"
  "$CLI" contain --seed "$seed" --n 8 --k 1 --box 8,6 | sed '$d' >> "$dir/want"
done
diff "$dir/want" "$dir/got"

# --- 2. exact counters ----------------------------------------------------
echo '{"op":"stats","id":"s"}' > "$dir/statreq"
"$LOAD" --port-file "$dir/port" --send "$dir/statreq" > "$dir/stats"
grep -q '"hits":27,"misses":9,"evictions":0' "$dir/stats"

# The remaining CLI mappings, after the counter check so its figures stay
# exact: 12 more requests, decoded, oracle-checked and diffed.
: > "$dir/more"
: > "$dir/want2"
for seed in 1 2 3; do
  {
    echo '{"op":"pairs","scenario":{"seed":'$seed',"n":8,"k":1}}'
    echo '{"op":"hullwhen","scenario":{"seed":'$seed',"n":8,"k":1},"query":2}'
    echo '{"op":"steady","scenario":{"seed":'$seed',"n":8,"k":1},"query":3}'
    echo '{"op":"contain","scenario":{"seed":'$seed',"n":8,"k":1}}'
  } >> "$dir/more"
  "$CLI" pairs --seed "$seed" --n 8 --k 1 | sed '$d' >> "$dir/want2"
  "$CLI" hullwhen --seed "$seed" --n 8 --k 1 --query 2 | sed '$d' >> "$dir/want2"
  "$CLI" steady --seed "$seed" --n 8 --k 1 --query 3 | sed '$d' >> "$dir/want2"
  "$CLI" contain --seed "$seed" --n 8 --k 1 | sed '$d' >> "$dir/want2"
done
"$LOAD" --port-file "$dir/port" --send "$dir/more" --decode --oracle \
  --results-out "$dir/got2"
diff "$dir/want2" "$dir/got2"

# --- 3. error paths on a live connection ----------------------------------
{
  echo 'this is not json'
  echo '{"op":"frobnicate"}'
  echo '{"op":"neighbor","scenario":{"n":99999}}'
  echo '{"op":"neighbor","query":"zero"}'
  echo '{"op":"pairs","machine":"ccc"}'
  echo '{"op":"neighbor","faults":"bogus:1@2"}'
  echo '{"op":"ping","id":"still-alive"}'
} > "$dir/errs"
"$LOAD" --port-file "$dir/port" --send "$dir/errs" --results-out "$dir/errresp"
test "$(grep -c '"status":"PARSE_ERROR"' "$dir/errresp")" = 2
test "$(grep -c '"status":"INVALID_ARGUMENT"' "$dir/errresp")" = 4
grep -q '"id":"still-alive","status":"OK"' "$dir/errresp"

# --- 3b. admission: over-long lines against a tight max-line ---------------
"$SERVE" --port-file "$dir/port2" --max-line 200 &
pid2=$!
{
  awk 'BEGIN { printf "{\"op\":\"ping\",\"pad\":\""; \
               for (i = 0; i < 400; i++) printf "x"; print "\"}" }'
  echo '{"op":"ping","id":"after-long"}'
} > "$dir/long"
"$LOAD" --port-file "$dir/port2" --send "$dir/long" \
  --results-out "$dir/longresp"
grep -q 'exceeds max_line' "$dir/longresp"
grep -q '"id":"after-long","status":"OK"' "$dir/longresp"

# --- 4. clean SIGTERM shutdown --------------------------------------------
kill -TERM "$pid"
wait "$pid"
pid=
kill -TERM "$pid2"
wait "$pid2"
pid2=
