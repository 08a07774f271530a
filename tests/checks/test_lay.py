"""LAY rules: layer-map violations and module-level import cycles."""

from pathlib import Path

import pytest

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

    @pytest.mark.parametrize("call", [
        "importlib.import_module('repro.analysis.stats')",
        "import_module('..analysis.stats', __package__)",
        "__import__('repro.analysis.stats')",
    ])
    def test_hit_dynamic_import_hides_its_edge(self, tree, call):
        # Even an unmapped layer's: no import statement shows the target.
        root = tree({"cli.py": f"""
            import importlib
            from importlib import import_module

            def sneaky():
                return {call}
        """})
        report = check(root, select=["LAY201"])
        assert rule_ids(report) == ["LAY201"]
        assert "dynamic import" in report.findings[0].message
        assert report.findings[0].line == 6

    def test_hit_dynamic_import_outside_the_package_resolver(self, tree):
        root = tree({"crypto/__init__.py": """
            import importlib

            TABLES = importlib.import_module(".tables", __name__)
        """})
        assert rule_ids(check(root, select=["LAY201"])) == ["LAY201"]

    @pytest.mark.parametrize("call", [
        "importlib.import_module('repro.cli')",
        "importlib.import_module(name, __name__)",
        "importlib.import_module(module)",
        "__import__(module, __name__)",
    ])
    def test_hit_resolver_import_not_drawn_from_the_export_table(self, tree, call):
        root = tree({"crypto/__init__.py": f"""
            import importlib

            _EXPORTS = {{".keys": ("CryptoSuite",)}}


            def __getattr__(name):
                for module, names in _EXPORTS.items():
                    if name in names:
                        return getattr({call}, name)
                raise AttributeError(name)
        """})
        report = check(root, select=["LAY201"])
        assert rule_ids(report) == ["LAY201"]
        assert "dynamic import" in report.findings[0].message

    @pytest.mark.parametrize("key", ["'..analysis.stats'", "'.keys.rsa'", "KEYS"])
    def test_hit_export_key_past_own_submodules(self, tree, key):
        root = tree({"crypto/__init__.py": f"""
            _EXPORTS = {{{key}: ("CryptoSuite",)}}
        """})
        report = check(root, select=["LAY201"])
        assert rule_ids(report) == ["LAY201"]
        assert "export table key" in report.findings[0].message

    def test_pass_lazy_package_resolver(self, tree):
        root = tree({"crypto/__init__.py": """
            import importlib

            __all__ = ["CryptoSuite"]

            _EXPORTS = {".keys": ("CryptoSuite",)}


            def __getattr__(name):
                for module, names in _EXPORTS.items():
                    if name in names:
                        return getattr(importlib.import_module(module, __name__), name)
                raise AttributeError(name)
        """})
        assert check(root, select=["LAY201"]).ok

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
