"""DET2xx: intraprocedural RNG taint tracking (hit / pass per rule)."""

from .conftest import check, rule_ids

_SELECT = ["DET201", "DET202", "DET203"]


def _only(tree, files):
    return check(tree(files), select=_SELECT)


class TestDet201Construction:
    def test_argless_constructor_is_flagged(self, tree):
        report = _only(tree, {
            "core/party.py": """
                import random

                def f():
                    rng = random.Random()
                    return rng.random()
            """,
        })
        assert rule_ids(report) == ["DET201"]
        assert "without a seed" in report.findings[0].message

    def test_clock_seed_laundered_through_local_is_flagged(self, tree):
        # The taint pass, not the call-site scan: time.time() lands in a
        # local first, the constructor only ever sees the local.
        report = _only(tree, {
            "core/party.py": """
                import random
                import time

                def f():
                    stamp = time.time()
                    noise = int(stamp * 1000)
                    return random.Random(noise)
            """,
        })
        assert rule_ids(report) == ["DET201"]
        assert "nondeterministic expression" in report.findings[0].message

    def test_seeded_construction_passes(self, tree):
        report = _only(tree, {
            "core/party.py": """
                import random

                def f(seed, pid):
                    return random.Random((seed << 8) ^ pid)
            """,
        })
        assert report.findings == []

    def test_numpy_argless_default_rng_is_flagged(self, tree):
        report = _only(tree, {
            "engine/worker.py": """
                import numpy as np

                def f():
                    return np.random.default_rng()
            """,
        })
        assert rule_ids(report) == ["DET201"]


class TestDet202SilentFallback:
    def test_none_fallback_to_argless_constructor_is_flagged(self, tree):
        report = _only(tree, {
            "core/party.py": """
                import random

                def f(n, rng=None):
                    if rng is None:
                        rng = random.Random()
                    return rng.randrange(n)
            """,
        })
        assert "DET202" in rule_ids(report)

    def test_or_fallback_to_global_draw_is_flagged(self, tree):
        report = _only(tree, {
            "core/party.py": """
                import random

                def f(coin_rng=None):
                    coin_rng = coin_rng or random.Random()
                    return coin_rng
            """,
        })
        assert "DET202" in rule_ids(report)

    def test_seeded_fallback_passes(self, tree):
        report = _only(tree, {
            "core/party.py": """
                import random

                def f(seed, rng=None):
                    if rng is None:
                        rng = random.Random(seed ^ 0xC0FFEE)
                    return rng.random()
            """,
        })
        assert report.findings == []


class TestDet203ModuleState:
    def test_module_level_rng_is_flagged(self, tree):
        report = _only(tree, {
            "network/jitter.py": """
                import random

                _RNG = random.Random(0)
            """,
        })
        assert rule_ids(report) == ["DET203"]
        assert "_RNG" in report.findings[0].message

    def test_global_rebind_inside_function_is_flagged(self, tree):
        report = _only(tree, {
            "core/party.py": """
                import random

                _shared = None

                def install(seed):
                    global _shared
                    _shared = random.Random(seed)
            """,
        })
        assert "DET203" in rule_ids(report)

    def test_rng_stored_into_module_container_is_flagged(self, tree):
        report = _only(tree, {
            "engine/pool.py": """
                _CACHE = {}

                def remember(key, trial_rng):
                    _CACHE[key] = trial_rng
            """,
        })
        assert "DET203" in rule_ids(report)
        assert "_CACHE" in report.findings[0].message

    def test_local_rng_passed_down_passes(self, tree):
        report = _only(tree, {
            "core/party.py": """
                import random

                def run(seed, helper):
                    rng = random.Random(seed)
                    return helper(rng)
            """,
        })
        assert report.findings == []


class TestScope:
    def test_analysis_and_cli_layers_are_exempt(self, tree):
        report = _only(tree, {
            "analysis/plots.py": """
                import random

                _RNG = random.Random()
            """,
        })
        assert report.findings == []
