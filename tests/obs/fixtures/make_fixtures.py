#!/usr/bin/env python
"""Regenerate (or ``--check``) the committed report fixtures.

Run from the repo root::

    PYTHONPATH=src python tests/obs/fixtures/make_fixtures.py          # rewrite
    PYTHONPATH=src python tests/obs/fixtures/make_fixtures.py --check  # exit 1 on a diff

``metrics.json`` comes from a real (deterministic) engine run;
``telemetry.jsonl`` is hand-shaped but schema-valid; ``crash-k2.trace.jsonl``
is ``repro run``'s streamed trace of one small crash execution.  ``report.md`` is
the golden rendering of both — regenerate it only when the report
format intentionally changes, and review the diff.  ``--check`` writes
every fixture into a temporary directory and compares it byte for byte
with the committed file, rewriting nothing.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

from repro.cli import main as cli_main
from repro.engine import ParallelRunner, TrialPlan
from repro.obs import (
    build_report,
    load_metrics_artifact,
    summarize_telemetry,
    write_metrics_artifact,
)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = ("crash-k2.trace.jsonl", "metrics.json", "report.md", "telemetry.jsonl")


def write(out_dir):
    """Write every fixture into ``out_dir``."""
    plan = TrialPlan.concat(
        "fixture-plan",
        [
            TrialPlan.monte_carlo(
                name="one_third",
                protocol="ba_one_third",
                inputs=(0, 0, 1, 1),
                max_faulty=1,
                trials=6,
                params={"kappa": 2},
                adversary="straddle13",
                adversary_params={"victims": (3,)},
                seed=41,
            ),
            TrialPlan.monte_carlo(
                name="one_half",
                protocol="ba_one_half",
                inputs=(0, 0, 1, 1, 1),
                max_faulty=2,
                trials=6,
                params={"kappa": 2},
                adversary="straddle12",
                adversary_params={"victims": (3, 4)},
                seed=42,
            ),
        ],
    )
    result = ParallelRunner(workers=1, metrics=True).run(plan)
    metrics_path = os.path.join(out_dir, "metrics.json")
    write_metrics_artifact(metrics_path, result.metrics_payload())

    telemetry_path = os.path.join(out_dir, "telemetry.jsonl")
    records = [
        {"t": "telemetry", "schema": "repro-telemetry/1",
         "meta": {"plan": "fixture-plan"}},
        {"t": "run_start", "at": 0.0, "label": "fixture-plan", "mode": "pool",
         "workers": 2, "trials": 12},
        {"t": "chunk_dispatch", "at": 0.001, "chunk": 0, "trials": 6},
        {"t": "chunk_dispatch", "at": 0.002, "chunk": 1, "trials": 6},
        {"t": "chunk_complete", "at": 0.41, "chunk": 0, "seconds": 0.4,
         "payload_bytes": 512},
        {"t": "chunk_complete", "at": 0.52, "chunk": 1, "seconds": 0.5,
         "payload_bytes": 498},
        {"t": "probe_cache", "at": 0.53, "hits": 3, "misses": 1},
        {"t": "vector_batch", "at": 0.54, "batched": 6, "fallback": 6,
         "coins": 6, "batches": 1,
         "fallback_reasons": {"real-RSA backend": 6}},
        {"t": "run_complete", "at": 0.6, "label": "fixture-plan"},
    ]
    with open(telemetry_path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
        handle.write(json.dumps({"t": "end", "records": len(records) - 1}) + "\n")

    with contextlib.redirect_stdout(io.StringIO()):
        cli_main([
            "run", "--protocol", "one_third", "--kappa", "2",
            "--inputs", "1,0,1,0", "--t", "1", "--adversary", "crash",
            "--trace-jsonl", os.path.join(out_dir, "crash-k2.trace.jsonl"),
        ])

    markdown = build_report(
        metrics=load_metrics_artifact(metrics_path),
        telemetry=summarize_telemetry(telemetry_path),
    )
    with open(os.path.join(out_dir, "report.md"), "w", encoding="utf-8") as handle:
        handle.write(markdown)


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the committed fixtures instead of rewriting them",
    )
    args = parser.parse_args(argv)
    if not args.check:
        write(HERE)
        print("fixtures written to", HERE)
        return 0
    with tempfile.TemporaryDirectory() as out_dir:
        write(out_dir)
        stale = [
            name for name in FIXTURES
            if _read(os.path.join(out_dir, name)) != _read(os.path.join(HERE, name))
        ]
    for name in stale:
        print(f"{os.path.join(HERE, name)} differs from its regeneration",
              file=sys.stderr)
    if stale:
        return 1
    print(f"{len(FIXTURES)} fixtures in {HERE} match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
