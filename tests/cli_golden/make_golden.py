#!/usr/bin/env python
"""Regenerate (or ``--check``) the golden CLI outputs.

Run from the repo root::

    PYTHONPATH=src python tests/cli_golden/make_golden.py          # rewrite
    PYTHONPATH=src python tests/cli_golden/make_golden.py --check  # exit 1 on a diff

``cases.json`` and ``crash.trace.jsonl`` were captured at ``fe9062a``,
the last commit where ``repro run`` built its own simulator; the CLI has
gone through the engine since and ``tests/test_cli.py::TestGolden``
holds it to these bytes.  The ``trace crash.trace.jsonl --stats`` case
(the per-round tally table) was added at ``34b7dad``, and the ``compare``
and ``tables`` cases at ``08dd4fa``.  Regenerate only when the output
format intentionally changes, and review the diff.  ``--check`` writes
both files into a temporary directory and compares them byte for byte
with the committed ones, rewriting nothing.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

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
    yield ["compare", "--kappas", "4,8,16,32"]
    yield ["tables"]


def capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


FILES = ("cases.json", "crash.trace.jsonl")


def write(out_dir):
    os.chdir(out_dir)  # the trace lands in out_dir under its bare name
    cases = [capture(argv) for argv in argvs()]
    with open("cases.json", "w", encoding="utf-8") as handle:
        json.dump(cases, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    return len(cases)


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def main_(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the committed goldens instead of rewriting them",
    )
    args = parser.parse_args(argv)
    if not args.check:
        count = write(HERE)
        print(f"wrote {count} cases and crash.trace.jsonl to {HERE}")
        return 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as out_dir:
        try:
            write(out_dir)
        finally:
            os.chdir(cwd)
        stale = [
            name for name in FILES
            if _read(os.path.join(out_dir, name)) != _read(os.path.join(HERE, name))
        ]
    for name in stale:
        print(f"{os.path.join(HERE, name)} differs from its regeneration",
              file=sys.stderr)
    if stale:
        return 1
    print(f"{len(FILES)} goldens in {HERE} match")
    return 0


if __name__ == "__main__":
    sys.exit(main_())
