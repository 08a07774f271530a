"""One workload, one fresh process, one result line.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
measures workload ``W`` and prints, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
separate traced run with ``--trace 1``.  It builds nothing and imports
the library from the ``src/`` tree next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"perfbench: no library source tree at {ROOT}/src/repro")
# Run as a script, sys.path[0] is this directory; the package is imported
# from the checkout root instead and the library from its source tree.
sys.path[:] = [ROOT, os.path.join(ROOT, "src")] + [
    entry for entry in sys.path if os.path.abspath(entry or ".") != _HERE
]


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repetitions", type=int, default=None)
    parser.add_argument("--setup-runs", type=int, default=None)
    parser.add_argument("--detail", help="write the full result document here")
    parser.add_argument("--spans", help="traced run: write every span here")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="internal: get ready to run, print the monotonic clock, exit",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    from perfbench import configs

    workload = configs.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(configs.WORKLOADS)}"
        )
    repetitions = args.repetitions or configs.REPETITIONS
    if args.setup_only:
        configs.prepare(
            workload, args.seed,
            workload.repetition_trials(args.seconds, repetitions),
        )
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    from perfbench import manifest, measure, metrics

    scratch = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(dir=scratch)
    try:
        if args.trace:
            from perfbench import layers

            document = layers.trace_workload(
                workload, args.seed, args.seconds, tmp_dir, spans_path=args.spans
            )
        else:
            document = measure.run_workload(
                workload, args.seed, args.seconds, tmp_dir,
                repetitions=repetitions,
                setup_runs=args.setup_runs or measure.SETUP_RUNS,
            )
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    document["manifest"] = manifest.build(
        ROOT, args.seed, args.seconds, repetitions, workload.workers()
    )
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    for note in document["failures"]:
        print(f"perfbench: {workload.name}: {note}", file=sys.stderr)
    declared = metrics.result_line_names(bool(args.trace))
    print(json.dumps({
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in document["metrics"].items()
            if name in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
