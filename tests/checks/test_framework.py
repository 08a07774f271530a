"""Framework behavior: suppression, selection, reports, parse failures."""

import json

import pytest

from repro.checks import CheckError, all_rule_classes, run_check

from .conftest import check, rule_ids

BAD_CORE = {
    "core/bad.py": (
        "import time\n"
        "import random\n"
        "T = time.time()\n"
        "R = random.random()\n"
    )
}


class TestNoqa:
    def test_bare_noqa_silences_every_rule_on_the_line(self, tree):
        root = tree({"core/waived.py": "import time\nT = time.time()  # repro: noqa\n"})
        report = check(root)
        assert report.ok and report.suppressed == 1

    def test_noqa_family_prefix_matches(self, tree):
        root = tree({
            "core/waived.py": "import time\nT = time.time()  # repro: noqa[DET]\n"
        })
        assert check(root).ok

    def test_noqa_for_a_different_rule_does_not_match(self, tree):
        root = tree({
            "core/bad.py": "import time\nT = time.time()  # repro: noqa[DET104]\n"
        })
        report = check(root)
        # The DET101 finding survives, and the useless DET104 waiver is
        # itself flagged stale (SUP901).
        assert rule_ids(report) == ["DET101", "SUP901"]
        assert report.suppressed == 0


class TestSelection:
    def test_select_restricts_to_family(self, tree):
        report = check(tree(BAD_CORE), select=["DET101"])
        assert rule_ids(report) == ["DET101"]
        assert report.rules == ["DET101"]

    def test_ignore_drops_family(self, tree):
        report = check(tree(BAD_CORE), ignore=["DET101"])
        assert rule_ids(report) == ["DET103"]

    def test_unknown_selector_is_loud(self, tree):
        with pytest.raises(CheckError, match="unknown rule selector"):
            check(tree(BAD_CORE), select=["DET999"])


class TestReport:
    def test_findings_sorted_and_counted(self, tree):
        report = check(tree(BAD_CORE))
        assert [f.rule for f in report.findings] == ["DET101", "DET103"]
        assert report.counts_by_rule() == {"DET101": 1, "DET103": 1}
        assert not report.ok

    def test_json_payload_shape(self, tree):
        report = check(tree(BAD_CORE))
        payload = json.loads(report.to_json())
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        assert payload["counts_by_rule"] == {"DET101": 1, "DET103": 1}
        first = payload["findings"][0]
        assert first["rule"] == "DET101"
        assert first["path"] == "core/bad.py"
        assert first["line"] == 3
        assert first["hint"]
        assert set(payload["rules"]) == {cls.id for cls in all_rule_classes()}

    def test_render_names_rule_file_and_line(self, tree):
        report = check(tree(BAD_CORE))
        text = report.render()
        assert "core/bad.py:3:" in text and "DET101" in text

    def test_syntax_error_reported_not_raised(self, tree):
        root = tree({"core/broken.py": "def oops(:\n"})
        report = check(root)
        assert rule_ids(report) == ["CHK001"]
        assert "syntax error" in report.findings[0].message

    def test_bad_root_raises(self, tmp_path):
        with pytest.raises(CheckError, match="not a directory"):
            run_check(tmp_path / "missing")


class TestRuleCatalogue:
    def test_three_families_present(self):
        families = {cls.id.rstrip("0123456789") for cls in all_rule_classes()}
        assert families == {"DET", "LAY", "SUP"}

    def test_every_rule_has_metadata(self):
        for cls in all_rule_classes():
            assert cls.id and cls.title and cls.hint
            assert cls.__doc__, f"{cls.id} needs a rationale docstring"
