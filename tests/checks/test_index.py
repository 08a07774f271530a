"""Phase-1 ProjectIndex: the symbol model cross-module rules read."""

import ast

from repro.checks import run_check
from repro.checks.framework import SourceModule
from repro.checks.index import ProjectIndex


def _index(tree, files):
    root = tree(files)
    modules = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        text = path.read_text()
        modules.append(
            SourceModule(path, rel, ast.parse(text), text.splitlines())
        )
    return ProjectIndex(modules)


class TestConstants:
    def test_recovers_frozenset_vocabulary_without_importing(self, tree):
        index = _index(tree, {
            "obs/sinks.py": """
                TRACE_RECORD_TYPES = frozenset({"trace", "msg", "end"})
            """,
        })
        assert index.constant("obs", "TRACE_RECORD_TYPES") == {
            "trace", "msg", "end",
        }

    def test_union_spelling_and_tuple(self, tree):
        index = _index(tree, {
            "engine/vectorized.py": """
                A = frozenset({"x"})
                B = A | frozenset({"y"})
                PREFIXES = ("no ", "unsupported ")
            """,
        })
        # B unions a Name, which is not a literal — only PREFIXES resolves.
        assert index.constant("engine", "PREFIXES") == ("no ", "unsupported ")
        assert index.constant("engine", "B") is None

    def test_missing_layer_or_name_is_none(self, tree):
        index = _index(tree, {"core/a.py": "X = 1\n"})
        assert index.constant("obs", "X") is None
        assert index.constant("core", "Y") is None


class TestRunCheckIntegration:
    def test_rules_see_across_modules(self, tree):
        # OBS602 requires the index: the span vocabulary lives in obs/,
        # the span is emitted (or misspelled) in engine/.
        root = tree({
            "obs/telemetry.py": """
                TELEMETRY_EVENT_TYPES = frozenset({"telemetry", "run_start"})
            """,
            "engine/runner.py": """
                def start(tele):
                    tele.emit("run_start", workers=1)
                    tele.emit("run_strat", workers=1)
            """,
        })
        report = run_check(root, select=["OBS602"])
        assert [f.rule for f in report.findings] == ["OBS602"]
        assert report.findings[0].path == "engine/runner.py"
        assert "run_strat" in report.findings[0].message
