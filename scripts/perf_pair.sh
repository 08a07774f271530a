#!/usr/bin/env bash
# Paired before/after runs of perfbench workloads.
#
#   scripts/perf_pair.sh REF WORKLOAD[,WORKLOAD...|all] [PAIRS=10]
#
# REF is a commit-ish, checked out into one temporary `git worktree`
# shared by every workload, or a directory that already holds a checkout.
# For each pair and each workload it runs
#   perfbench/run.py --workload WORKLOAD --seed N --seconds 8 --trace 0
# on REF and on the working tree, a fresh seed per pair and the side
# that goes first alternating (the machine's speed drifts).  Prints
# every pair, the wins, and each side's median and quartiles, then one
# row per workload x end-to-end metric: a gain is claimed only when the
# tree wins at least nine tenths of the pairs and the medians differ by
# more than the distance between REF's own quartiles.  Each row ends in
# its verdict: `gain` by that rule, `REGRESSION` by the one below, `—`
# otherwise.  Each side runs the perfbench/ of its own checkout.
#
# Every run also writes its full result document (`--detail`), and the
# two sides of a pair — same workload, same seed — must report the same
# `result_digest`: a perf change must not change a single result.
#
# The exit status is the regression gate (`make perf-gate`): 1, after one
# `REGRESSION <workload> <metric> x<ratio>` line each, when the tree's
# median is worse than REF's by more than the metric's `bound` in
# BENCHMARK.json and the tree loses at least nine tenths of the pairs,
# or when more of the tree's operations failed than REF's; 1, after one
# `DIGEST <workload> pair N <ref digest> != <tree digest>` line each, when
# a pair's digests differ; 0 otherwise.
#
# Runs write no bytecode, as in the benchmark's environment: every run
# compiles what it imports, so no run's `setup_s` times bytecode an
# earlier run of the pair wrote.
set -euo pipefail
export PYTHONDONTWRITEBYTECODE=1

usage="usage: scripts/perf_pair.sh REF WORKLOAD[,WORKLOAD...|all] [PAIRS=10]"
ref=${1:?$usage}
workloads=${2:?$usage}
pairs=${3:-10}

tree=$(git rev-parse --show-toplevel)
if [[ $workloads == all ]]; then
    workloads=$(python3 -c 'import json, sys
print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "$tree/BENCHMARK.json")
fi
IFS=, read -r -a names <<< "$workloads"

tmp=$(mktemp -d)
cleanup() {
    git -C "$tree" worktree remove --force "$tmp/ref" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
if [[ -f $ref/perfbench/run.py ]]; then
    refdir=$ref
    ref=$(basename "$ref")
else
    git -C "$tree" worktree add --quiet --detach "$tmp/ref" "$ref"
    refdir=$tmp/ref
fi

measure() {  # checkout workload seed detail -> the run's result line
    python3 "$1/perfbench/run.py" --workload "$2" --seed "$3" \
        --seconds 8 --trace 0 --detail "$4" | tail -n 1
}

for pair in $(seq 1 "$pairs"); do
    if (( pair % 2 )); then order="ref tree"; else order="tree ref"; fi
    for workload in "${names[@]}"; do
        for side in $order; do
            if [[ $side == ref ]]; then checkout=$refdir; else checkout=$tree; fi
            measure "$checkout" "$workload" "$pair" "$tmp/$workload.$side.$pair.json" \
                >> "$tmp/$workload.$side.jsonl"
        done
    done
    echo "pair $pair/$pairs done (seed $pair, $order)" >&2
done

python3 - "$tree/BENCHMARK.json" "$tmp" "$ref" "${names[@]}" <<'EOF'
import json
import statistics
import sys

benchmark, tmp, ref_name, *workloads = sys.argv[1:]
with open(benchmark) as handle:
    end_to_end = json.load(handle)["end_to_end"]


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def digest(workload, side, pair):
    with open(f"{tmp}/{workload}.{side}.{pair}.json") as handle:
        return json.load(handle)["result_digest"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


summary = []
regressions = []
mismatches = []
for workload in workloads:
    ref_runs = load(f"{tmp}/{workload}.ref.jsonl")
    tree_runs = load(f"{tmp}/{workload}.tree.jsonl")
    failed = [sum(run["failed"] for run in runs) for runs in (ref_runs, tree_runs)]
    attempted = [
        sum(run["attempted"] for run in runs) for runs in (ref_runs, tree_runs)
    ]
    print(f"\n== {workload}: failed/attempted {ref_name} "
          f"{failed[0]}/{attempted[0]}, tree {failed[1]}/{attempted[1]}")
    if failed[1] > failed[0]:
        regressions.append(f"{workload} failed {failed[0]} -> {failed[1]}")
    differing = 0
    for pair in range(1, len(ref_runs) + 1):
        ref_digest, tree_digest = (digest(workload, side, pair) for side in ("ref", "tree"))
        if ref_digest != tree_digest:
            differing += 1
            mismatches.append(f"{workload} pair {pair} {ref_digest} != {tree_digest}")
    print(f"   result_digest differs on {differing}/{len(ref_runs)} pairs")
    for metric in end_to_end:
        name, direction = metric["name"], metric["better"]
        ref = [run["metrics"][name]["value"] for run in ref_runs]
        tree = [run["metrics"][name]["value"] for run in tree_runs]
        unit = ref_runs[0]["metrics"][name]["unit"]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (t - r) > 0 for r, t in zip(ref, tree))
        losses = sum(sign * (t - r) < 0 for r, t in zip(ref, tree))
        print(f"\n{workload} {name} ({unit}, {direction} is better)")
        for pair, (r, t) in enumerate(zip(ref, tree), start=1):
            print(f"  pair {pair:2d}  {ref_name} {r:10.4f}   tree {t:10.4f}"
                  f"   x{t / r:.3f}")
        print(f"  tree wins {wins}/{len(ref)}, loses {losses}/{len(ref)}")
        for label, values in ((ref_name, ref), ("tree", tree)):
            q1, median, q3 = quartiles(values)
            print(f"  {label:>8s}  median {median:.4f}  "
                  f"quartiles {q1:.4f} .. {q3:.4f}")
        ref_q1, ref_median, ref_q3 = quartiles(ref)
        tree_median = quartiles(tree)[1]
        print(f"  medians differ by {abs(tree_median - ref_median):.4f} "
              f"(x{tree_median / ref_median:.3f}); {ref_name} quartile distance "
              f"{ref_q3 - ref_q1:.4f}")
        ratio = tree_median / ref_median
        worse = 1.0 - ratio if direction == "higher" else ratio - 1.0
        if worse > metric["bound"] and 10 * losses >= 9 * len(ref):
            regressions.append(f"{workload} {name} x{ratio:.3f}")
            verdict = "REGRESSION"
        elif (10 * wins >= 9 * len(ref)
              and sign * (tree_median - ref_median) > ref_q3 - ref_q1):
            verdict = "gain"
        else:
            verdict = "—"
        summary.append((
            workload, name, ref_median, tree_median, ratio,
            f"{wins}/{len(ref)}", abs(tree_median - ref_median), ref_q3 - ref_q1,
            verdict,
        ))

print(f"\n{'workload':<16s} {'metric':<17s} {ref_name:>10s} {'tree':>10s} "
      f"{'ratio':>7s} {'wins':>6s} {'|gap|':>10s} {'ref q3-q1':>10s} verdict")
for workload, name, ref, tree, ratio, wins, gap, spread, verdict in summary:
    print(f"{workload:<16s} {name:<17s} {ref:10.4f} {tree:10.4f} "
          f"x{ratio:<6.3f} {wins:>6s} {gap:10.4f} {spread:10.4f} {verdict}")
for regression in regressions:
    print(f"REGRESSION {regression}")
for mismatch in mismatches:
    print(f"DIGEST {mismatch}")
sys.exit(1 if regressions or mismatches else 0)
EOF
