#!/usr/bin/env bash
# Pin the AVF table of e2ebench's avf_inject shape at seed 7: run
# `xser avf` in that shape, keep stdout up to its first blank line (the
# bytes e2ebench digests), and diff them against the committed table.
# The table's FNV-1a-64 is the avf_inject digest e2ebench pins
# (0x09b41fb7a3c836a4), so an AVF drift fails here before it reaches a
# benchmark run.
#
#   check_avf_table.sh XSER GOLDEN_TABLE
set -u

if [ "$#" -ne 2 ]; then
    echo "usage: $0 XSER GOLDEN_TABLE" >&2
    exit 2
fi
XSER=$1 GOLDEN=$2

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

if ! "$XSER" avf --workload MG --trials 15 --flips 48 --burst 3 \
        --seed 7 > "$WORKDIR/stdout.txt"; then
    echo "FAIL: xser avf exited nonzero" >&2
    exit 1
fi
sed -n '/^$/q;p' "$WORKDIR/stdout.txt" > "$WORKDIR/table.txt"
if ! diff -u "$GOLDEN" "$WORKDIR/table.txt"; then
    echo "FAIL: the avf_inject table drifted from $GOLDEN" >&2
    exit 1
fi
echo "PASS: xser avf prints the pinned table"
