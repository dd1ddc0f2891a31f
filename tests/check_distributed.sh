#!/usr/bin/env bash
# End-to-end determinism gate for the distributed campaign service
# (DESIGN.md section 12).
#
#   check_distributed.sh XSER XSER_SERVER XSER_WORKER XSER_CLIENT \
#                        XSER_METRICS
#
# Runs the same reduced campaign four ways -- locally with --jobs 8,
# through xser-server with two workers, again with one of the two
# workers crashing mid-campaign (exercising the requeue path), and
# twice in a row through one server and the same two workers (the
# second campaign restores from the prefix the workers sealed during
# the first, and must still account for it once) -- and asserts the
# report text and .xtrace bytes are identical with cmp and the run
# manifests identical modulo the wall-clock "timing" section with
# xser-metrics diff. Any drift is a determinism regression in the
# shard protocol, the merge order, the worker's sealed prefix, or the
# telemetry transfer. A fifth run detaches from a server that runs
# until told otherwise, attaches by campaign id for the report, and
# shuts the service down: the server and both workers must exit 0.
set -eu

if [ "$#" -ne 5 ]; then
    echo "usage: $0 XSER XSER_SERVER XSER_WORKER XSER_CLIENT XSER_METRICS" >&2
    exit 2
fi
XSER=$1 SERVER=$2 WORKER=$3 CLIENT=$4 METRICS=$5

SCALE=0.005
SEED=7
REPLICATES=2

WORKDIR=$(mktemp -d)
PIDS=""
cleanup() {
    for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# The report embeds the --trace path verbatim, so every run uses the
# same relative path from its own directory.
run_local() {
    local dir=$1
    mkdir -p "$WORKDIR/$dir"
    (cd "$WORKDIR/$dir" &&
     "$XSER" campaign --scale "$SCALE" --seed "$SEED" --jobs 8 \
         --replicates "$REPLICATES" --trace out.xtrace \
         --metrics out.json > report.txt)
}

# start_service DIR MAX_CAMPAIGNS WORKER1_FLAGS...
# Starts a server (running until shut down when MAX_CAMPAIGNS is empty)
# and two workers, the first with WORKER1_FLAGS; sets PORT, SERVER_PID
# and WORKER_PIDS.
start_service() {
    local d=$1 campaigns=$2; shift 2
    mkdir -p "$d"
    "$SERVER" --port 0 --port-file "$d/port.txt" \
        ${campaigns:+--max-campaigns "$campaigns"} > "$d/server.log" 2>&1 &
    SERVER_PID=$!
    PIDS="$PIDS $SERVER_PID"
    for _ in $(seq 1 100); do
        [ -s "$d/port.txt" ] && break
        sleep 0.1
    done
    [ -s "$d/port.txt" ] || { echo "server never bound" >&2; exit 1; }
    PORT=$(cat "$d/port.txt")
    "$WORKER" --port "$PORT" "$@" > "$d/worker1.log" 2>&1 &
    WORKER_PIDS=$!
    "$WORKER" --port "$PORT" > "$d/worker2.log" 2>&1 &
    WORKER_PIDS="$WORKER_PIDS $!"
    PIDS="$PIDS $WORKER_PIDS"
}

# run_distributed DIR CAMPAIGNS EXTRA_WORKER_FLAGS...
# Runs CAMPAIGNS consecutive client runs through one server and its two
# workers, campaign i into DIR/i.
run_distributed() {
    local dir=$1 campaigns=$2; shift 2
    local d="$WORKDIR/$dir"
    start_service "$d" "$campaigns" "$@"
    for i in $(seq 1 "$campaigns"); do
        mkdir -p "$d/$i"
        (cd "$d/$i" &&
         "$CLIENT" run --port "$PORT" --scale "$SCALE" --seed "$SEED" \
             --replicates "$REPLICATES" --trace out.xtrace \
             --metrics out.json > report.txt 2> client.log)
    done
    wait "$SERVER_PID"
}

compare() {
    local dir=$1 label=$2
    cmp "$WORKDIR/local/report.txt" "$WORKDIR/$dir/report.txt" ||
        { echo "FAIL: $label report differs from local run" >&2; exit 1; }
    cmp "$WORKDIR/local/out.xtrace" "$WORKDIR/$dir/out.xtrace" ||
        { echo "FAIL: $label trace differs from local run" >&2; exit 1; }
    "$METRICS" diff --a "$WORKDIR/local/out.json" \
        --b "$WORKDIR/$dir/out.json" ||
        { echo "FAIL: $label manifest differs from local run" >&2; exit 1; }
}

echo "== local reference (--jobs 8) =="
run_local local

echo "== distributed: server + 2 workers =="
run_distributed dist 1
compare dist/1 "distributed"

echo "== distributed: one worker crashes mid-campaign =="
run_distributed crash 1 --crash-on-shard 2
compare crash/1 "crash-requeue"
grep -q "requeueing" "$WORKDIR/crash/server.log" ||
    { echo "FAIL: crash scenario never exercised the requeue path" >&2
      exit 1; }

echo "== distributed: two campaigns through the same workers =="
run_distributed twice 2
compare twice/1 "first of two campaigns"
compare twice/2 "second of two campaigns"

echo "== distributed: detach, attach by id, shut down =="
d="$WORKDIR/detach"
start_service "$d" ""
id=$("$CLIENT" run --port "$PORT" --scale "$SCALE" --seed "$SEED" \
         --replicates "$REPLICATES" --detach 2> "$d/client.log")
[ "$id" -ge 1 ] 2> /dev/null ||
    { echo "FAIL: run --detach printed '$id', not a campaign id" >&2
      exit 1; }
"$CLIENT" attach --port "$PORT" --id "$id" > "$d/report.txt" \
    2>> "$d/client.log"
# The detached run records no trace, so its report has no trace line.
grep -v '^trace: ' "$WORKDIR/local/report.txt" | cmp - "$d/report.txt" ||
    { echo "FAIL: attached report differs from local run" >&2; exit 1; }
"$CLIENT" shutdown --port "$PORT" 2>> "$d/client.log"
for pid in $SERVER_PID $WORKER_PIDS; do
    wait "$pid" ||
        { echo "FAIL: process $pid exited $? after shutdown" >&2; exit 1; }
done

echo "PASS: distributed campaign byte-identical to local run"
