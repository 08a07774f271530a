"""The run manifest stamped into every perfbench JSON, and ``compare``.

Two result documents are comparable only when they were produced by the
same benchmark (version, config table, trial counts, seed) on the same
kind of machine (python, numpy, CPU and worker counts); the git sha is
the one field allowed to differ — it is what is being compared.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Any, Dict, List, Optional, Tuple

import numpy

from . import VERSION
from .configs import table_digest
from .metrics import END_TO_END, FAILED_FRAC

__all__ = ["build", "compare", "mismatches"]


def _git(root: str, *arguments: str) -> Optional[str]:
    # The ceiling keeps git from adopting a repository *above* a checkout
    # that is not one itself.
    environment = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        finished = subprocess.run(
            ["git", "-C", root, *arguments], env=environment, timeout=30,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return finished.stdout.strip()


def build(
    root: str, seed: int, seconds: float, repetitions: int, workers: int
) -> Dict[str, Any]:
    """Everything a reader needs to decide whether two runs compare."""
    status = _git(root, "status", "--porcelain")
    return {
        "perfbench_version": VERSION,
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "seed": seed,
        "seconds": seconds,
        "repetitions": repetitions,
        "table_sha256": table_digest(seconds, repetitions),
    }


def mismatches(base: Dict[str, Any], other: Dict[str, Any]) -> List[str]:
    """Manifest fields, other than the git state, on which two runs differ."""
    return [
        f"{field}: {base.get(field)!r} != {other.get(field)!r}"
        for field in sorted(set(base) | set(other))
        if field not in ("git_sha", "git_dirty")
        and base.get(field) != other.get(field)
    ]


def _verdict(base: Dict[str, Any], new: Dict[str, Any], better: str,
             bound: float) -> Tuple[float, str]:
    """Ratio new/base and where it sits against the metric's bound.

    The change is the share of the base by which the metric got worse;
    the band around it is the mean of the two runs' IQRs.  A band that
    straddles the bound is "unresolved", not "unchanged".
    """
    ratio = new["value"] / base["value"]
    worse = 1.0 - ratio if better == "higher" else ratio - 1.0
    band = (base.get("iqr", 0.0) + new.get("iqr", 0.0)) / 2.0 / base["value"]
    if worse + band <= bound:
        return ratio, "inside bound"
    if worse - band > bound:
        return ratio, "OUTSIDE bound"
    return ratio, "unresolved"


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Per workload row, every end-to-end metric's ratio with its base.

    Returns the report lines and whether every metric is inside its
    bound.  Raises ``ValueError`` on documents that must not be compared.
    """
    lines: List[str] = []
    clean = True
    for name in base["workloads"]:
        if name not in new["workloads"]:
            raise ValueError(f"workload {name!r} is missing from the second run")
        before, after = base["workloads"][name], new["workloads"][name]
        differing = mismatches(before["manifest"], after["manifest"])
        if differing:
            raise ValueError(
                f"{name}: manifests differ, runs are not comparable: "
                + "; ".join(differing)
            )
        lines.append(
            f"{name}  ({before['manifest']['git_sha']} -> "
            f"{after['manifest']['git_sha']})"
        )
        for metric, unit, better, bound in END_TO_END:
            old, now = before["metrics"][metric], after["metrics"][metric]
            if metric == FAILED_FRAC:
                verdict = "inside bound" if now["value"] <= old["value"] else "OUTSIDE bound"
                change = f"{old['value']:.6g} -> {now['value']:.6g}"
            else:
                ratio, verdict = _verdict(old, now, better, bound)
                change = (
                    f"{now['value']:.6g} / {old['value']:.6g} {unit} = "
                    f"{ratio:.4f}x (bound {bound:.0%} {better}-is-better)"
                )
            clean = clean and verdict == "inside bound"
            lines.append(f"  {metric:18s} {change}: {verdict}")
        if before["result_digest"] != after["result_digest"]:
            lines.append("  result_digest differs (behaviour changed)")
    return lines, clean
