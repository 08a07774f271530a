"""The gate itself: `repro check` stays clean on this repository.

These tests are the CI contract: the first asserts the shipped source
tree has no violations (so any new finding fails the suite, not just
the separate `make check` leg); the second asserts the pass actually
*detects* — a copy of the real tree with one seeded `time.time()` in
`core/` must fail, naming the rule, file and line.

Every seeded case works on one module-scoped copy of the package and
undoes its edit afterwards, and a case that is about one rule (or about
an artifact or an error path, not about the rules) selects the rules it
needs: a single rule over the whole tree costs a fifth of all of them.
The clean-tree check and the two seeded cases at the top stay full-rule
runs.
"""

import shutil
from pathlib import Path

import pytest

import repro
from repro.checks import run_check
from repro.cli import main

PACKAGE_ROOT = Path(repro.__file__).parent

#: What an artifact or error-path case runs: it needs a report, not
#: rules, so it selects the rule that costs least over the whole tree.
CHEAP_RULE = "LAY202"


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("selfcheck") / "repro"
    shutil.copytree(
        PACKAGE_ROOT, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    return root


@pytest.fixture
def seed(tree):
    """Write one file of the shared tree; teardown puts it back."""
    undo = []

    def write(rel, source):
        target = tree.joinpath(*rel.split("/"))
        undo.append((target, target.read_text() if target.exists() else None))
        target.write_text(source)

    yield write
    for target, original in reversed(undo):
        if original is None:
            target.unlink()
        else:
            target.write_text(original)


@pytest.fixture(scope="module")
def clean_report():
    return run_check(PACKAGE_ROOT)


class TestSelfCheck:
    def test_repo_source_tree_is_clean(self, clean_report):
        assert clean_report.findings == []
        assert clean_report.files > 50  # the whole tree, not a stub scan

    def test_cli_default_path_exits_zero(self, capsys):
        assert main(["check", "--select", CHEAP_RULE]) == 0
        assert "clean" in capsys.readouterr().out

    def test_seeded_violation_fails_naming_rule_file_line(
        self, tree, seed, capsys
    ):
        seed(
            "core/seeded.py",
            "import time\n\n\ndef now():\n    return time.time()\n",
        )
        assert main(["check", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "DET101" in out
        assert "core/seeded.py" in out
        assert ":5:" in out  # the offending line

    def test_seeded_layering_leak_fails(self, tree, seed, capsys):
        seed("crypto/leak.py", "from ..engine.runner import run_trial\n")
        assert main(["check", str(tree)]) == 1
        assert "LAY201" in capsys.readouterr().out

    def test_json_artifact_round_trips(self, tmp_path, capsys):
        artifact = tmp_path / "check-report.json"
        assert main([
            "check", str(PACKAGE_ROOT), "--select", CHEAP_RULE,
            "--json", str(artifact),
        ]) == 0
        import json

        payload = json.loads(artifact.read_text())
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["files_scanned"] > 50


class TestSeededNewFamilies:
    """Each new rule id must catch its violation seeded into the real tree."""

    @pytest.fixture
    def seeded(self, tree, seed, capsys):
        def check(rel, source, rule):
            seed(rel, source)
            assert main(["check", str(tree), "--select", rule]) == 1
            out = capsys.readouterr().out
            assert rule in out
            assert rel in out

        return check

    def test_det201_argless_rng(self, seeded):
        seeded(
            "core/seeded.py",
            "import random\n\n\ndef f():\n    return random.Random()\n",
            "DET201",
        )

    def test_det202_silent_fallback(self, seeded):
        seeded(
            "core/seeded.py",
            "import random\n\n\ndef f(seed, rng=None):\n"
            "    rng = rng or random.Random(seed)\n"
            "    return rng\n\n\ndef g(rng=None):\n"
            "    rng = rng or random.Random()\n    return rng\n",
            "DET202",
        )

    def test_det203_module_rng(self, seeded):
        seeded(
            "network/seeded.py",
            "import random\n\n_RNG = random.Random(0)\n",
            "DET203",
        )


class TestCliErrorPaths:
    def test_json_into_missing_directory_exits_two(self, capsys):
        code = main([
            "check", str(PACKAGE_ROOT), "--select", CHEAP_RULE,
            "--json", "/nonexistent-dir/report.json",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot write" in err

    def test_unreadable_source_path_exits_two(self, tree, capsys):
        # A directory named like a module defeats read_text() even as
        # root (chmod tricks don't); the walk must fail loudly, not
        # traceback.
        evil = tree / "core" / "evil.py"
        evil.mkdir()
        try:
            code = main(["check", str(tree), "--select", CHEAP_RULE])
        finally:
            evil.rmdir()
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "evil.py" in err
