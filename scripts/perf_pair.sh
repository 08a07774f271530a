#!/usr/bin/env bash
# Paired before/after runs of one perfbench workload.
#
#   scripts/perf_pair.sh REF WORKLOAD [PAIRS=10]
#
# Checks REF out into a temporary `git worktree`, then runs
#   perfbench/run.py --workload WORKLOAD --seed N --seconds 8 --trace 0
# on it and on the working tree PAIRS times, a fresh seed per pair and
# the side that goes first alternating (the machine's speed drifts).
# Prints every pair, the wins, and each side's median and quartiles: a
# gain is claimed only when the tree wins at least nine tenths of the
# pairs and the medians differ by more than the distance between REF's
# own quartiles.  Each side runs the perfbench/ of its own checkout.
set -euo pipefail

ref=${1:?usage: scripts/perf_pair.sh REF WORKLOAD [PAIRS=10]}
workload=${2:?usage: scripts/perf_pair.sh REF WORKLOAD [PAIRS=10]}
pairs=${3:-10}

tree=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
    git -C "$tree" worktree remove --force "$tmp/ref" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$tree" worktree add --quiet --detach "$tmp/ref" "$ref"

measure() {  # checkout seed -> the run's result line
    python3 "$1/perfbench/run.py" --workload "$workload" --seed "$2" \
        --seconds 8 --trace 0 | tail -n 1
}

for pair in $(seq 1 "$pairs"); do
    if (( pair % 2 )); then order="ref tree"; else order="tree ref"; fi
    for side in $order; do
        if [[ $side == ref ]]; then checkout=$tmp/ref; else checkout=$tree; fi
        measure "$checkout" "$pair" >> "$tmp/$side.jsonl"
    done
    echo "pair $pair/$pairs done (seed $pair, $order)" >&2
done

python3 - "$tree/BENCHMARK.json" "$tmp/ref.jsonl" "$tmp/tree.jsonl" "$ref" <<'EOF'
import json
import statistics
import sys

benchmark, ref_path, tree_path, ref_name = sys.argv[1:]
with open(benchmark) as handle:
    better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


ref_runs, tree_runs = load(ref_path), load(tree_path)
failed = [sum(run["failed"] for run in runs) for runs in (ref_runs, tree_runs)]
attempted = [sum(run["attempted"] for run in runs) for runs in (ref_runs, tree_runs)]
print(f"failed/attempted: {ref_name} {failed[0]}/{attempted[0]}, "
      f"tree {failed[1]}/{attempted[1]}")
for name, direction in better.items():
    ref = [run["metrics"][name]["value"] for run in ref_runs]
    tree = [run["metrics"][name]["value"] for run in tree_runs]
    unit = ref_runs[0]["metrics"][name]["unit"]
    sign = 1 if direction == "higher" else -1
    wins = sum(sign * (t - r) > 0 for r, t in zip(ref, tree))
    losses = sum(sign * (t - r) < 0 for r, t in zip(ref, tree))
    print(f"\n{name} ({unit}, {direction} is better)")
    for pair, (r, t) in enumerate(zip(ref, tree), start=1):
        print(f"  pair {pair:2d}  {ref_name} {r:10.4f}   tree {t:10.4f}   x{t / r:.3f}")
    print(f"  tree wins {wins}/{len(ref)}, loses {losses}/{len(ref)}")
    for label, values in ((ref_name, ref), ("tree", tree)):
        q1, median, q3 = quartiles(values)
        print(f"  {label:>8s}  median {median:.4f}  quartiles {q1:.4f} .. {q3:.4f}")
    ref_q1, ref_median, ref_q3 = quartiles(ref)
    tree_median = quartiles(tree)[1]
    print(f"  medians differ by {abs(tree_median - ref_median):.4f} "
          f"(x{tree_median / ref_median:.3f}); {ref_name} quartile distance "
          f"{ref_q3 - ref_q1:.4f}")
EOF
