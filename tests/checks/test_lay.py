"""LAY rules: layer-map violations and module-level import cycles."""

from pathlib import Path

import repro
from repro.checks import det, lay

from .conftest import check, rule_ids


def test_layer_maps_name_only_real_packages():
    """Every layer the LAY map or the DET scope names is a package of
    ``repro``, so a deleted layer cannot outlive its code in either map."""
    root = Path(repro.__file__).parent
    named = set(lay.ALLOWED_IMPORTS).union(*lay.ALLOWED_IMPORTS.values())
    named |= det.PROTOCOL_SCOPE
    missing = sorted(n for n in named if not (root / n / "__init__.py").is_file())
    assert missing == []


class TestLAY201Layering:
    def test_hit_crypto_importing_upward(self, tree):
        root = tree({
            "crypto/bad.py": "from ..engine import runner\n",
            "engine/runner.py": "X = 1\n",
        })
        report = check(root, select=["LAY201"])
        assert rule_ids(report) == ["LAY201"]
        assert "'crypto' must not import 'engine'" in report.findings[0].message

    def test_hit_core_importing_engine_absolute(self, tree):
        root = tree({
            "core/bad.py": "from repro.engine.runner import run_trial\n",
        })
        report = check(root, select=["LAY201"])
        assert rule_ids(report) == ["LAY201"]

    def test_hit_lazy_import_still_counts(self, tree):
        # Deferring an upward import does not make it architectural.
        root = tree({"proxcensus/bad.py": """
            def sneaky():
                from ..analysis import stats
                return stats
        """})
        assert rule_ids(check(root, select=["LAY201"])) == ["LAY201"]

    def test_pass_downward_and_intra_layer(self, tree):
        root = tree({
            "network/ok.py": (
                "from ..crypto import keys\nfrom .messages import Outbox\n"
            ),
            "crypto/keys.py": "KEYS = 1\n",
            "network/messages.py": "Outbox = dict\n",
        })
        assert check(root, select=["LAY201"]).ok

    def test_pass_unmapped_layer_is_unconstrained(self, tree):
        root = tree({"cli.py": "from .engine import runner  # app layer\n"})
        assert check(root, select=["LAY201"]).ok


class TestLAY202Cycles:
    def test_hit_two_module_cycle(self, tree):
        root = tree({
            "util/a.py": "from .b import f\n\ndef g():\n    return f\n",
            "util/b.py": "from .a import g\n\ndef f():\n    return g\n",
        })
        report = check(root, select=["LAY202"])
        assert rule_ids(report) == ["LAY202"]
        finding = report.findings[0]
        assert "util.a -> util.b -> util.a" in finding.message
        assert finding.path == "util/a.py" and finding.line == 1

    def test_pass_acyclic_chain(self, tree):
        root = tree({
            "util/a.py": "from .b import f\n",
            "util/b.py": "from .c import h\n\ndef f():\n    return h\n",
            "util/c.py": "def h():\n    return 1\n",
        })
        assert check(root, select=["LAY202"]).ok

    def test_pass_deferred_import_breaks_cycle(self, tree):
        # The sanctioned idiom: one direction moves inside a function.
        root = tree({
            "util/a.py": "def g():\n    from .b import f\n    return f\n",
            "util/b.py": "from .a import g\n\ndef f():\n    return g\n",
        })
        assert check(root, select=["LAY202"]).ok
