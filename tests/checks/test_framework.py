"""Framework behavior: no waivers, selection, reports, parse failures."""

import json

import pytest

from repro.checks import CheckError, all_rule_classes, run_check
from repro.cli import main

from .conftest import check, rule_ids

BAD_CORE = {
    "core/bad.py": (
        "import time\n"
        "import random\n"
        "T = time.time()\n"
        "R = random.random()\n"
    )
}


#: One hit per rule: ``{rule: (offending file, line, {path: source})}``
#: with ``{waiver}`` at the end of the offending line.
HITS = {
    "DET101": ("core/m.py", 5,
               {"core/m.py": "import time\n\n\ndef now():\n"
                             "    return time.time(){waiver}\n"}),
    "DET102": ("crypto/m.py", 5,
               {"crypto/m.py": "import os\n\n\ndef nonce():\n"
                               "    return os.urandom(8){waiver}\n"}),
    "DET103": ("proxcensus/m.py", 5,
               {"proxcensus/m.py": "import random\n\n\ndef flip():\n"
                                   "    return random.random(){waiver}\n"}),
    "DET104": ("network/m.py", 2,
               {"network/m.py": "def anyone(pids):\n"
                                "    for pid in set(pids):{waiver}\n"
                                "        return pid\n"}),
    "DET105": ("core/m.py", 2,
               {"core/m.py": "def order(parties):\n"
                             "    return sorted(parties, key=id){waiver}\n"}),
    "DET107": ("core/m.py", 2,
               {"core/m.py": "def pick(tally):\n"
                             "    return next(iter(tally.keys())){waiver}\n"}),
    "DET201": ("core/m.py", 5,
               {"core/m.py": "import random\n\n\ndef f():\n"
                             "    return random.Random(){waiver}\n"}),
    "DET202": ("core/m.py", 5,
               {"core/m.py": "import random\n\n\ndef f(rng=None):\n"
                             "    rng = rng or random.Random(){waiver}\n"
                             "    return rng\n"}),
    "DET203": ("network/m.py", 3,
               {"network/m.py": "import random\n\n"
                                "_RNG = random.Random(0){waiver}\n"}),
    "LAY201": ("crypto/m.py", 1,
               {"crypto/m.py": "from ..engine import runner{waiver}\n"}),
    "LAY202": ("util/a.py", 1,
               {"util/a.py": "from .b import f{waiver}\n\n\ndef g():\n"
                             "    return f\n",
                "util/b.py": "from .a import g\n\n\ndef f():\n"
                             "    return g\n"}),
}


class TestNoWaivers:
    """A comment waives nothing: every rule's finding survives one."""

    @pytest.mark.parametrize("waiver", [
        "  # repro: noqa[{rule}] justified", "  # repro: noqa",
    ], ids=["selector", "bare"])
    @pytest.mark.parametrize("rule", [cls.id for cls in all_rule_classes()])
    def test_a_noqa_comment_is_still_reported(
        self, tree, capsys, rule, waiver
    ):
        path, line, files = HITS[rule]
        comment = waiver.replace("{rule}", rule)
        root = tree({
            rel: source.replace("{waiver}", comment)
            for rel, source in files.items()
        })
        assert main(["check", str(root), "--select", rule]) == 1
        out = capsys.readouterr().out
        assert f"{path}:{line}:" in out and rule in out


class TestSelection:
    def test_select_restricts_to_family(self, tree):
        report = check(tree(BAD_CORE), select=["DET101"])
        assert rule_ids(report) == ["DET101"]
        assert report.rules == ["DET101"]

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
        assert "suppressed" not in payload
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
    def test_two_families_present(self):
        families = {cls.id.rstrip("0123456789") for cls in all_rule_classes()}
        assert families == {"DET", "LAY"}

    def test_every_rule_has_metadata(self):
        for cls in all_rule_classes():
            assert cls.id and cls.title and cls.hint
            assert cls.__doc__, f"{cls.id} needs a rationale docstring"
