"""Every exported name has a caller outside the tests.

The guard walks the ``__all__`` of every module under ``src/repro``
(except ``repro.cli`` and ``repro.__main__``, whose exports are the
command line) and requires each name to be *used* somewhere in
``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``: read as an
``ast.Name`` or as the attribute of an ``ast.Attribute``.  A definition,
an ``__all__`` entry or an import re-export is not a use.  A name no
caller reaches is deleted, or goes on ``ALLOWED`` below with the reason
it stays.

The scan is syntactic, so it is an under-approximation of dead code: a
name read only inside a module nobody imports (a helper class used by
its sibling in the same dead module) counts as used, and so does a name
that happens to share its spelling with an unrelated attribute.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "examples", "benchmarks", "perfbench")
SKIPPED_MODULES = ("repro/cli.py", "repro/__main__.py")

# name -> why it stays without a non-test caller
ALLOWED = {
    "messages_prox_one_third": "analysis.comm closed form the tests compare against",
    "messages_prox_linear_half": "analysis.comm closed form the tests compare against",
    "messages_prox_quadratic_half": "analysis.comm closed form the tests compare against",
    "messages_proxcast": "analysis.comm closed form the tests compare against",
    "messages_ba_one_third": "analysis.comm closed form the tests compare against",
    "messages_ba_one_half": "analysis.comm closed form the tests compare against",
    "messages_feldman_micali": "analysis.comm closed form the tests compare against",
    "messages_mv": "analysis.comm closed form the tests compare against",
    "clear_suite_cache": "test hook: drops the memoised benchmark suites",
    "measure_payload_bytes": "test hook behind the >=5x payload pin",
    "ideal_coin_factory": "protocol variant with its own tests",
    "vrf_coin_factory": "protocol variant with its own tests",
    "rounds_mv": "one of the rounds_* family; its siblings have callers",
    "oracle_digest": "the random oracle's domain-separation test calls it",
    "MESSAGE_KINDS": "documents summary_kind's label space; a metrics test pins it",
}


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return ast.literal_eval(node.value)
    return []


def _scan():
    used, exports = set(), {}
    for top in SCANNED:
        for path in _python_files(os.path.join(ROOT, top)):
            tree = _parse(path)
            used |= _used_names(tree)
            rel = os.path.relpath(path, os.path.join(ROOT, "src"))
            if top == "src" and rel.replace(os.sep, "/") not in SKIPPED_MODULES:
                for name in _exported(tree):
                    exports.setdefault(name, rel)
    return used, exports


USED, EXPORTS = _scan()


def test_every_exported_name_has_a_caller_or_a_reason():
    unused = sorted(
        f"{module}: {name}" for name, module in EXPORTS.items()
        if name not in USED and name not in ALLOWED
    )
    assert not unused, (
        "exported but read nowhere under " + ", ".join(SCANNED)
        + "; delete it or add it to ALLOWED with a reason:\n  "
        + "\n  ".join(unused)
    )


def test_allowlist_names_only_exported_unused_names():
    stale = sorted(
        name for name in ALLOWED if name not in EXPORTS or name in USED
    )
    assert not stale, f"ALLOWED entries that no longer need a reason: {stale}"


def test_the_scan_sees_the_package():
    assert "run_trial" in EXPORTS and "run_trial" in USED
    assert len(EXPORTS) > 200
