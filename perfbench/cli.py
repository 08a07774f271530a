"""``python -m perfbench``: ``run``, ``trace`` and ``compare``.

``run`` and ``trace`` start ``perfbench/run.py`` once per workload, each
in a fresh interpreter, and print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from . import VERSION, manifest, selfcheck
from .configs import WORKLOADS
from .metrics import END_TO_END, PER_LAYER, result_line_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP = os.path.join(ROOT, ".perfbench-tmp")

#: ``--smoke``: tiny trial counts, two repetitions, two set-up runs.
SMOKE = {"seconds": 0.6, "repetitions": 2, "setup_runs": 2}


def _child(workload: str, traced: bool, seed: int, seconds: float,
           repetitions: Optional[int] = None, setup_runs: Optional[int] = None,
           spans: Optional[str] = None) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; return its full document."""
    os.makedirs(TMP, exist_ok=True)
    handle, detail = tempfile.mkstemp(suffix=".json", dir=TMP)
    os.close(handle)
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(traced)), "--detail", detail,
    ]
    if repetitions:
        command += ["--repetitions", str(repetitions)]
    if setup_runs:
        command += ["--setup-runs", str(setup_runs)]
    if spans:
        command += ["--spans", spans]
    try:
        finished = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(finished.stderr)
        if finished.returncode != 0:
            raise SystemExit(f"perfbench: {workload} exited {finished.returncode}")
        with open(detail, "r", encoding="utf-8") as source:
            document = json.load(source)
        document["result_line"] = json.loads(finished.stdout.strip().splitlines()[-1])
        return document
    finally:
        os.remove(detail)


def _print_metrics(document: Dict[str, Any], names: List[str]) -> None:
    for name in names:
        entry = document["metrics"][name]
        spread = ""
        if "iqr" in entry:
            spread = (
                f"   [min {entry['min']:.6g}  max {entry['max']:.6g}  "
                f"iqr {entry['iqr']:.3g}  n {entry['n']}]"
            )
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']:9s}{spread}")


def _spans_path(path: Optional[str], workload: str, several: bool) -> Optional[str]:
    if path is None or not several:
        return path
    stem, extension = os.path.splitext(path)
    return f"{stem}.{workload}{extension}"


def _measure(args: argparse.Namespace, traced: bool) -> Dict[str, Any]:
    """One pass over the selected workloads, printed as it goes."""
    names = [n for n, *_ in (PER_LAYER if traced else END_TO_END)]
    workloads = args.workload or list(WORKLOADS)
    options = dict(SMOKE) if args.smoke else {"seconds": args.seconds}

    def measure(workload: str) -> Dict[str, Any]:
        spans = _spans_path(getattr(args, "spans", None), workload, len(workloads) > 1)
        return _child(workload, traced, args.seed, spans=spans, **options)

    # Workloads never share the machine when their timings matter; the
    # smoke pass only checks behaviour, so it may overlap two of them.
    documents = {}
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        for workload, document in zip(workloads, pool.map(measure, workloads)):
            documents[workload] = document
            print(f"{workload}  ({'traced' if traced else 'untraced'}, "
                  f"seed {args.seed}, workers {document['workers']})")
            _print_metrics(document, names)
            if traced:
                print(f"  {'layers account for':40s} "
                      f"{document['accounted_frac']:14.4f} of traced trial time")
            else:
                print(f"  {'result_digest':40s} {document['result_digest']}")
            for note in document["failures"]:
                print(f"  FAILED: {note}")
    return {
        "perfbench_version": VERSION,
        "mode": "trace" if traced else "run",
        "workloads": documents,
    }


def _write(path: Optional[str], document: Dict[str, Any]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)


def _failed(document: Dict[str, Any]) -> bool:
    return any(entry["failed"] for entry in document["workloads"].values())


def _declaration_drift(run: Dict[str, Any], traced: Dict[str, Any]) -> List[str]:
    """Where BENCHMARK.json and what the code just printed disagree."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    complaints = []

    def same(what: str, printed: Any, listed: Any) -> None:
        if printed != listed:
            complaints.append(
                f"{what}: code has {printed!r}, BENCHMARK.json has {listed!r}"
            )

    same("workloads", {name: w.why for name, w in WORKLOADS.items()},
         {w["name"]: w["why"] for w in declared["workloads"]})
    same("workloads run", sorted(run["workloads"]), sorted(WORKLOADS))
    bounded = {name: (unit, better, bound) for name, unit, better, bound in END_TO_END}
    same(
        "end_to_end",
        {name: bounded[name] for name in result_line_names(False)},
        {m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]},
    )
    same(
        "per_layer",
        {name: (unit, better) for name, unit, better in PER_LAYER},
        {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]},
    )
    for documents, listed in ((run, "end_to_end"), (traced, "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[listed]}
        for workload, document in documents["workloads"].items():
            printed = {
                name: entry["unit"]
                for name, entry in document["result_line"]["metrics"].items()
            }
            same(f"{listed} printed by {workload}", printed, units)
    return complaints


def _cmd_run(args: argparse.Namespace) -> int:
    document = _measure(args, traced=False)
    _write(args.json, document)
    status = int(_failed(document))
    if args.smoke:
        traced = _measure(args, traced=True)
        complaints = _declaration_drift(document, traced) + selfcheck.run_all()
        for complaint in complaints:
            print(f"SMOKE FAILED: {complaint}")
        status = int(bool(status or _failed(traced) or complaints))
        print("smoke:", "FAILED" if status else "ok")
    return status


def _cmd_trace(args: argparse.Namespace) -> int:
    document = _measure(args, traced=True)
    _write(args.json, document)
    return int(_failed(document))


def _cmd_compare(args: argparse.Namespace) -> int:
    with open(args.base, "r", encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, "r", encoding="utf-8") as handle:
        new = json.load(handle)
    try:
        lines, clean = manifest.compare(base, new)
    except ValueError as error:
        print(f"perfbench compare: refused: {error}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0 if clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", _cmd_run), ("trace", _cmd_trace)):
        sub = commands.add_parser(name)
        sub.add_argument("--workload", action="append", choices=list(WORKLOADS))
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float, default=30.0)
        sub.add_argument("--json", help="write the full result document here")
        sub.add_argument("--smoke", action="store_true",
                         help="tiny counts; with `run`, also the traced pass, the "
                              "harness self-checks and the BENCHMARK.json drift check")
        sub.set_defaults(handler=handler)
    commands.choices["trace"].add_argument(
        "--spans", help="write every span here (JSON lines)"
    )
    sub = commands.add_parser("compare")
    sub.add_argument("base")
    sub.add_argument("new")
    sub.set_defaults(handler=_cmd_compare)
    args = parser.parse_args(argv)
    return args.handler(args)
