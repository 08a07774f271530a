#!/usr/bin/env bash
# The perf-regression gate (`make perf-gate`): perf_pair.sh on the named
# workloads, and a slowdown confirmed on fresh pairs before it fails.
#
#   scripts/perf_gate.sh REF WORKLOAD[,WORKLOAD...]
#
# Runs `scripts/perf_pair.sh REF WORKLOADS 3` and exits 0 if it does.  A
# `DIGEST` line (the two sides of a pair gave different results), a rise
# in failed operations (`REGRESSION <workload> failed <ref> -> <tree>`)
# or a failure that names nothing fails the gate at once.  When the run
# fails with `REGRESSION <workload> <metric> x<ratio>` lines only, each
# workload named is run again alone for ten fresh pairs, and the gate
# fails with the first rerun that fails, whatever metric it names: ten
# pairs are the sample perf_pair.sh's REGRESSION rule is written for,
# while with three its "nine tenths of the pairs lost" is every pair,
# which three pairs of background interference can meet.
#
# The workloads are named rather than `all`: perf_pair.sh resolves `all`
# from the tree's BENCHMARK.json, so a workload the tree adds would run on
# REF, whose perfbench lacks it, and fail the gate.
set -uo pipefail

ref=${1:?usage: scripts/perf_gate.sh REF WORKLOAD[,WORKLOAD...]}
workloads=${2:?usage: scripts/perf_gate.sh REF WORKLOAD[,WORKLOAD...]}
pairs=3
confirm=10

log=$(mktemp)
trap 'rm -f "$log"' EXIT

run() {  # workloads pairs -> perf_pair.sh's status; its output in $log
    local status=0
    "$(dirname "$0")/perf_pair.sh" "$ref" "$1" "$2" | tee "$log" || status=$?
    return "$status"
}

status=0
run "$workloads" "$pairs" || status=$?
if (( status == 0 )); then
    exit 0
fi
suspects=$(awk '$1 == "REGRESSION" && $3 != "failed" { print $2 }' "$log" | sort -u)
if grep -qE '^(DIGEST |REGRESSION [^ ]+ failed )' "$log" || [[ -z $suspects ]]; then
    exit "$status"
fi

for workload in $suspects; do
    echo "perf-gate: confirming $workload on $confirm fresh pairs" >&2
    status=0
    run "$workload" "$confirm" || status=$?
    if (( status != 0 )); then
        echo "perf-gate: $workload failed again on $confirm pairs"
        exit "$status"
    fi
done
echo "perf-gate: no REGRESSION confirmed on $confirm pairs; passing"
