#!/usr/bin/env python
"""Regenerate the golden ``repro run`` / ``repro trace`` / ``repro ledger`` outputs.

Run from the repo root::

    PYTHONPATH=src python tests/cli_golden/make_golden.py

``cases.json`` and ``crash.trace.jsonl`` were captured at ``fe9062a``,
the last commit where ``repro run`` built its own simulator; the CLI has
gone through the engine since and ``tests/test_cli.py::TestGolden``
holds it to these bytes.  The ``trace crash.trace.jsonl --stats`` case
(the per-round tally table) was added at ``34b7dad``.  Regenerate only when the output format
intentionally changes, and review the diff.
"""

import contextlib
import io
import json
import os

from repro.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

SHAPES = {
    "one_third": ["--inputs", "1,0,1,0", "--t", "1"],
    "one_half": ["--inputs", "1,0,1,0,1", "--t", "2"],
    "feldman_micali": ["--inputs", "1,0,1,0", "--t", "1"],
    "micali_vaikuntanathan": ["--inputs", "1,0,1,0,1", "--t", "2"],
    "dolev_strong": ["--inputs", "1,0,1,0", "--t", "1"],
}
ADVERSARIES = ("none", "crash", "malformed", "two_face", "straddle")
TRACE_ARGV = [
    "run", "--protocol", "one_third", "--kappa", "4", "--inputs", "1,0,1,0",
    "--t", "1", "--adversary", "crash", "--trace-jsonl", "crash.trace.jsonl",
]


def argvs():
    for protocol, shape in SHAPES.items():
        for adversary in ADVERSARIES:
            for seed in ("0", "7"):
                yield ["run", "--protocol", protocol, "--kappa", "4", *shape,
                       "--adversary", adversary, "--seed", seed]
    yield ["run", "--protocol", "one_third", "--kappa", "4", "--inputs",
           "1,1,1,1", "--t", "1", "--faults", "lossy", "--fault-params",
           '{"rate": 0.3}', "--seed", "7"]
    yield TRACE_ARGV
    yield ["trace", "crash.trace.jsonl", "--stats"]
    yield ["ledger"]


def capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


def main_():
    os.chdir(HERE)  # the trace lands beside this script under its bare name
    cases = [capture(argv) for argv in argvs()]
    with open("cases.json", "w", encoding="utf-8") as handle:
        json.dump(cases, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    print(f"wrote {len(cases)} cases and crash.trace.jsonl to {HERE}")


if __name__ == "__main__":
    main_()
