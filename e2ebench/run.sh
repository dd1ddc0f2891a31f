#!/usr/bin/env bash
# Build xser and xser-bench from this checkout into .bench_build, then
# measure one workload (or all four):
#
#   bash e2ebench/run.sh --workload NAME --seed N --seconds T --trace 0|1
#
# Run it from the root of the checkout. Build output goes to stderr, so
# the last line on stdout is the run's JSON result.
set -euo pipefail

build=.bench_build
here=$(dirname "$0")

if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
    generator=()
    if command -v ninja > /dev/null 2>&1; then
        generator=(-G Ninja)
    fi
    cmake -S "$here" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --parallel 4 >&2

exec "$build/xser-bench" run "$@"
