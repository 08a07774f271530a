"""SUP901: stale-suppression detection (the meta-rule over noqa comments)."""

from .conftest import check, rule_ids


class TestStaleNoqa:
    def test_stale_selector_is_flagged(self, tree):
        report = check(tree({
            "core/ok.py": "X = 1  # repro: noqa[DET101] long-gone waiver\n"
        }))
        assert rule_ids(report) == ["SUP901"]
        finding = report.findings[0]
        assert "DET101" in finding.message

    def test_stale_bare_noqa_is_flagged(self, tree):
        report = check(tree({"core/ok.py": "X = 1  # repro: noqa\n"}))
        assert rule_ids(report) == ["SUP901"]

    def test_working_suppression_is_not_stale(self, tree):
        report = check(tree({
            "core/clock.py": (
                "import time\nT = time.time()  # repro: noqa[DET101] fixture\n"
            )
        }))
        assert report.findings == [] and report.suppressed == 1

    def test_family_selector_matching_any_finding_is_not_stale(self, tree):
        report = check(tree({
            "core/clock.py": (
                "import time\nT = time.time()  # repro: noqa[DET] fixture\n"
            )
        }))
        assert report.findings == []

    def test_sup901_finding_is_itself_suppressible(self, tree):
        report = check(tree({
            "core/ok.py": "X = 1  # repro: noqa[DET101,SUP901] placeholder\n"
        }))
        assert report.findings == [] and report.suppressed == 1


class TestSelectorNarrowing:
    def test_not_judged_when_its_rule_is_deselected(self, tree):
        # Under --select DET104 the DET101 rule never ran, so a DET101
        # waiver cannot be judged stale — it might be load-bearing.
        report = check(
            tree({
                "core/clock.py": (
                    "import time\nT = time.time()  # repro: noqa[DET101]\n"
                )
            }),
            select=["DET104", "SUP901"],
        )
        assert report.findings == []

    def test_unknown_selector_is_not_judged(self, tree):
        # Docstrings mentioning the syntax with a placeholder selector
        # (e.g. RULE) must not be reported as stale suppressions.
        report = check(tree({
            "core/doc.py": '"""Use  # repro: noqa[RULE]  to waive."""\n'
        }))
        assert report.findings == []

    def test_sup901_can_be_ignored(self, tree):
        report = check(
            tree({"core/ok.py": "X = 1  # repro: noqa[DET101] stale\n"}),
            ignore=["SUP"],
        )
        assert report.findings == []
