#!/usr/bin/env python
"""Regenerate (or ``--check``) the fixed-round BA wire golden.

Run from the repo root::

    PYTHONPATH=src python tests/core/make_pi_iter_golden.py          # rewrite
    PYTHONPATH=src python tests/core/make_pi_iter_golden.py --check  # exit 1 on a diff

``pi_iter_golden.json`` holds, for every registered program built on the
generalized iteration, the outputs and ``RunMetrics`` rows of
``run_trial`` with no adversary and under ``two_face``, two seeds each.
The rows of the first six programs were captured at ``fe9062a`` (the
last commit where the iteration was one undivided generator); the
``mv_pki`` rows were added at ``87b1e41``, before the fixed-round BAs
became one driver.  ``tests/core/test_iteration_edges.py`` holds
``run_trial`` to these rows.  Regenerate only when a program's wire
behaviour intentionally changes, and review the diff.
"""

import argparse
import json
import os
import sys

from repro.engine import TrialSpec, run_trial

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "pi_iter_golden.json")

THIRD = {"inputs": [0, 0, 1, 1], "max_faulty": 1, "victims": [3]}
HALF = {"inputs": [0, 0, 1, 1, 1], "max_faulty": 2, "victims": [3, 4]}

#: protocol → (shape, params), in the golden's row order.
PROGRAMS = {
    "ba_one_third": (THIRD, {"kappa": 2}),
    "ba_one_half": (HALF, {"kappa": 3}),
    "feldman_micali": (THIRD, {"kappa": 2}),
    "micali_vaikuntanathan": (HALF, {"kappa": 2}),
    "ba_one_third_chunked": (THIRD, {"chunk": 2, "kappa": 4}),
    "ba_one_half_generalized": (HALF, {"kappa": 3}),
    "mv_pki": (HALF, {"kappa": 2}),
}


def specs():
    for protocol, (shape, params) in PROGRAMS.items():
        for adversary in (None, "two_face"):
            for seed in (1, 2):
                document = {
                    "protocol": protocol,
                    "inputs": shape["inputs"],
                    "max_faulty": shape["max_faulty"],
                    "params": params,
                    "seed": seed,
                    "session": f"seam{seed}",
                }
                if adversary is not None:
                    document["adversary"] = adversary
                    document["adversary_params"] = {"victims": shape["victims"]}
                yield TrialSpec.from_json(json.dumps(document))


def row(spec):
    result = run_trial(spec)
    return {
        "spec": json.loads(spec.to_json()),
        "outputs": sorted(result.outputs.items()),
        "rounds": result.metrics.rounds,
        "tallies": result.metrics.rows,
    }


def render():
    lines = [json.dumps(row(spec), separators=(",", ":")) for spec in specs()]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the committed golden instead of rewriting it",
    )
    args = parser.parse_args(argv)
    text = render()
    if args.check:
        with open(GOLDEN, encoding="utf-8") as handle:
            if handle.read() != text:
                print(f"{GOLDEN} differs from the programs' runs", file=sys.stderr)
                return 1
        print(f"{GOLDEN} matches")
        return 0
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {text.count(chr(10)) - 1} rows to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
