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
# second campaign restores from the prefixes the workers cached during
# the first, and must still account for them once) -- and asserts the
# report text and .xtrace bytes are identical with cmp and the run
# manifests identical modulo the wall-clock "timing" section with
# xser-metrics diff. Any drift is a determinism regression in the
# shard protocol, the merge order, the worker's prefix cache, or the
# telemetry transfer.
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

# run_distributed DIR CAMPAIGNS EXTRA_WORKER_FLAGS...
# Runs CAMPAIGNS consecutive client runs through one server and its two
# workers, campaign i into DIR/i.
run_distributed() {
    local dir=$1 campaigns=$2; shift 2
    local d="$WORKDIR/$dir"
    mkdir -p "$d"
    "$SERVER" --port 0 --port-file "$d/port.txt" \
        --max-campaigns "$campaigns" > "$d/server.log" 2>&1 &
    local server_pid=$!
    PIDS="$PIDS $server_pid"
    for _ in $(seq 1 100); do
        [ -s "$d/port.txt" ] && break
        sleep 0.1
    done
    [ -s "$d/port.txt" ] || { echo "server never bound" >&2; exit 1; }
    local port
    port=$(cat "$d/port.txt")
    "$WORKER" --port "$port" "$@" > "$d/worker1.log" 2>&1 &
    PIDS="$PIDS $!"
    "$WORKER" --port "$port" > "$d/worker2.log" 2>&1 &
    PIDS="$PIDS $!"
    for i in $(seq 1 "$campaigns"); do
        mkdir -p "$d/$i"
        (cd "$d/$i" &&
         "$CLIENT" run --port "$port" --scale "$SCALE" --seed "$SEED" \
             --replicates "$REPLICATES" --trace out.xtrace \
             --metrics out.json > report.txt 2> client.log)
    done
    wait "$server_pid"
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

echo "PASS: distributed campaign byte-identical to local run"
