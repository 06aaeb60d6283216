#!/bin/sh
# Fleet-session stream gate: start dyncg_serve on an ephemeral port, drive
# seeded randomized fleet_update streams through dyncg_load --stream on both
# session machines, and require every fleet_query to byte-match the
# in-process from-scratch oracle (dyncg_load exits 7 on divergence).  Also
# checks that --max-fleet-members reaches the session registry, then shuts
# the daemon down with SIGTERM and requires a clean exit 0.  The fleet
# responses' exact form is pinned by ServeRender.FleetResponsesExactForm.  A
# stream never reaches the member cap (it erases once a session passes 256
# members), so the cap's rejection is tested in-process by
# ServeFleet.AdmissionCapsSessionsAndMembers.
#
#   serve_stream.sh DYNCG_SERVE DYNCG_LOAD
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

"$SERVE" --port-file "$dir/port" --max-fleet-members 512 &
pid=$!

# Two seeds per machine: each stream opens its own session, mutates it a few
# hundred times, and oracle-checks along the way.
"$LOAD" --port-file "$dir/port" --stream 200 --seed 3
"$LOAD" --port-file "$dir/port" --stream 150 --seed 11 --machine hypercube

# One session's lifecycle over the wire, then the session count.
printf '%s\n%s\n%s\n%s\n%s\n' \
  '{"op":"fleet_open","d":2,"k":1}' \
  '{"op":"fleet_update","fleet":"fleet-3","insert":[{"id":1,"point":[[1,1],[2]]}],"advance":0.5}' \
  '{"op":"fleet_query","fleet":"fleet-3"}' \
  '{"op":"fleet_close","fleet":"fleet-3"}' \
  '{"op":"stats"}' > "$dir/req"
"$LOAD" --port-file "$dir/port" --send "$dir/req" --results-out "$dir/resp"
test "$(grep -c '"status":"OK"' "$dir/resp")" = 5
grep -q '"max_members":512' "$dir/resp"
grep -q '"op":"fleet_query"' "$dir/resp"
grep -q '"fleets":0' "$dir/resp"

kill -TERM "$pid"
wait "$pid"   # set -e: a non-zero daemon exit fails the test
pid=
