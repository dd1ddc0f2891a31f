#!/usr/bin/env bash
# Command lines the binaries must refuse before doing any work: each
# must exit 1 with a message naming the offending option. Covers counts
# that would otherwise narrow into a smaller integer, an AVF burst that
# is empty or wider than a stored word, numbers that are not finite or
# have no clock period, a detached client run asked for files it
# would never write, and bench_paper given an XSER_FULL, XSER_SCALE or
# XSER_JOBS it cannot use.
#
#   check_cli_refusals.sh XSER XSER_SERVER XSER_WORKER XSER_CLIENT \
#                         XSER_TRACE BENCH_PAPER
set -u

if [ "$#" -ne 6 ]; then
    echo "usage: $0 XSER XSER_SERVER XSER_WORKER XSER_CLIENT XSER_TRACE" \
        "BENCH_PAPER" >&2
    exit 2
fi
XSER=$1 SERVER=$2 WORKER=$3 CLIENT=$4 TRACE=$5 PAPER=$6

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR" || exit 1

failures=0

# refuse MESSAGE COMMAND...: COMMAND must exit 1 and print MESSAGE.
refuse() {
    local message=$1 output status
    shift
    output=$(timeout 60 "$@" 2>&1 < /dev/null)
    status=$?
    if [ "$status" -ne 1 ] || ! grep -qF -- "$message" <<< "$output"; then
        echo "FAIL: $* exited $status; wanted 1 and '$message', got:" >&2
        tail -n 3 <<< "$output" >&2
        failures=$((failures + 1))
    fi
}

# refuse_env NAME=VALUE: bench_paper run with that environment must
# exit 1 naming NAME before it prints anything to stdout.
refuse_env() {
    local name=${1%%=*} stdout status
    stdout=$(env "$1" timeout 60 "$PAPER" 2> stderr.txt < /dev/null)
    status=$?
    if [ "$status" -ne 1 ] || [ -n "$stdout" ] ||
        ! grep -qF -- "fatal: $name expects" stderr.txt; then
        echo "FAIL: $1 bench_paper exited $status; wanted 1, no" \
            "output and 'fatal: $name expects', got:" >&2
        head -n 3 <<< "$stdout" >&2
        tail -n 3 stderr.txt >&2
        failures=$((failures + 1))
    fi
}

SESSION=(session --pmd 920 --events 2 --fluence 1e9 --warmup 1)
TOO_BIG=4294967297 # 2^32 + 1: narrowed to 1 by a 32-bit cast

refuse "option --trials expects a count" \
    "$XSER" avf --workload EP --trials "$TOO_BIG" --flips 2
refuse "option --flips expects a count" \
    "$XSER" avf --workload EP --trials 2 --flips "$TOO_BIG"
refuse "option --burst expects a count" \
    "$XSER" avf --workload EP --trials 2 --flips 2 --burst "$TOO_BIG"
refuse "option --burst expects a count in [1, 64], got 0" \
    "$XSER" avf --workload EP --trials 2 --flips 2 --burst 0
refuse "option --burst expects a count in [1, 64], got 144" \
    "$XSER" avf --workload EP --trials 2 --flips 2 --burst 144
refuse "option --runs expects a count" \
    "$XSER" characterize --runs "$TOO_BIG" --start 960 --stop 955
refuse "option --warmup expects a count" \
    "$XSER" session --pmd 920 --warmup 4294967296
refuse "option --max-campaigns expects a count" \
    "$SERVER" --port 0 --max-campaigns "$TOO_BIG"
refuse "option --crash-on-shard expects a count" \
    "$WORKER" --port 1 --crash-on-shard "$TOO_BIG"
refuse "option --session expects a count" \
    "$TRACE" filter --in none.xtrace --session "$TOO_BIG"
refuse "option --replicate expects a count" \
    "$TRACE" filter --in none.xtrace --replicate "$TOO_BIG"

refuse "option --freq expects a finite number" \
    "$XSER" "${SESSION[@]}" --freq nan
refuse "option --freq expects a finite number" \
    "$XSER" "${SESSION[@]}" --freq inf
refuse "option --pmd expects a finite number" \
    "$XSER" session --pmd nan --events 2 --fluence 1e9 --warmup 1
refuse "option --soc expects a finite number" \
    "$XSER" "${SESSION[@]}" --soc nan
refuse "clock frequency 1e+300 Hz has a period below" \
    "$XSER" "${SESSION[@]}" --freq 1e300

refuse "--detach conflicts with --trace and --metrics" \
    "$CLIENT" run --port 1 --detach --trace out.xtrace
refuse "--detach conflicts with --trace and --metrics" \
    "$CLIENT" run --port 1 --detach --metrics out.json

# A full-scale switch other than 0 or 1, a scale that is not a number,
# has trailing text or lies outside (0, 1e17] (1e18 would overflow the
# ablations' event targets), and job counts outside --jobs' range.
for setting in XSER_FULL=yes XSER_FULL=10 XSER_FULL= XSER_SCALE=abc \
    XSER_SCALE= XSER_SCALE=2x XSER_SCALE=0 XSER_SCALE=-1 XSER_SCALE=nan \
    XSER_SCALE=1e18 XSER_JOBS=abc XSER_JOBS=4x XSER_JOBS=0 XSER_JOBS=-1 \
    XSER_JOBS=1025; do
    refuse_env "$setting"
done

if [ "$failures" -ne 0 ]; then
    echo "$failures command line(s) not refused" >&2
    exit 1
fi
echo "PASS: every command line refused by name"
