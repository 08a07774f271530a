"""VEC rules: vector-model registration, purity, fallback vocabulary, keys."""

from .conftest import check, rule_ids

_REGISTRY = """
    def register_protocol(name, factory):
        pass

    def register_adversary(name, factory):
        pass

    def register_vector_model(protocol, adversary, model):
        pass
"""

_CORE = """
    from ..engine.registry import register_protocol, register_adversary

    register_protocol("ba_one_third", lambda: None)
    register_adversary("crash", lambda: None)
"""


def _tree(tree, vectorized, select):
    return check(
        tree({
            "engine/registry.py": _REGISTRY,
            "core/protos.py": _CORE,
            "engine/vectorized.py": vectorized,
        }),
        select=select,
    )


class TestVec501Registration:
    def test_known_pair_passes(self, tree):
        report = _tree(tree, """
            from .registry import register_vector_model

            class Model:
                pass

            register_vector_model("ba_one_third", "crash", Model)
            register_vector_model("ba_one_third", None, Model)
        """, ["VEC501"])
        assert report.findings == []

    def test_unknown_protocol_and_adversary_are_flagged(self, tree):
        report = _tree(tree, """
            from .registry import register_vector_model

            class Model:
                pass

            register_vector_model("ba_phantom", "crash", Model)
            register_vector_model("ba_one_third", "ghost", Model)
        """, ["VEC501"])
        messages = sorted(f.message for f in report.findings)
        assert len(messages) == 2
        assert "ba_phantom" in messages[1]
        assert "ghost" in messages[0]

    def test_duplicate_pair_is_flagged(self, tree):
        report = _tree(tree, """
            from .registry import register_vector_model

            class Model:
                pass

            register_vector_model("ba_one_third", "crash", Model)
            register_vector_model("ba_one_third", "crash", Model)
        """, ["VEC501"])
        assert rule_ids(report) == ["VEC501"]
        assert "duplicate" in report.findings[0].message

    def test_computed_name_is_flagged(self, tree):
        report = _tree(tree, """
            from .registry import register_vector_model

            NAME = "ba_one_third"

            class Model:
                pass

            register_vector_model(NAME, "crash", Model)
        """, ["VEC501"])
        assert rule_ids(report) == ["VEC501"]

    def test_noqa_suppresses(self, tree):
        report = _tree(tree, """
            from .registry import register_vector_model

            class Model:
                pass

            register_vector_model("ba_phantom", None, Model)  # repro: noqa[VEC501] fixture
        """, ["VEC501"])
        assert report.findings == [] and report.suppressed == 1


class TestVec502Purity:
    def test_clock_and_live_rng_in_model_body_are_flagged(self, tree):
        report = _tree(tree, """
            import time
            from .registry import register_vector_model

            class Impure:
                def run(self, batch, party):
                    t = time.time()
                    return party.rng.random() + t

            register_vector_model("ba_one_third", "crash", Impure)
        """, ["VEC502"])
        messages = {f.message for f in report.findings}
        assert any("wall clock" in m for m in messages)
        assert any(".rng" in m for m in messages)

    def test_pure_model_passes(self, tree):
        report = _tree(tree, """
            from .registry import register_vector_model

            class Pure:
                def run(self, seeds, tallies):
                    return [s ^ t for s, t in zip(seeds, tallies)]

            register_vector_model("ba_one_third", "crash", Pure)
        """, ["VEC502"])
        assert report.findings == []

    def test_model_class_resolved_across_modules(self, tree):
        report = check(tree({
            "engine/registry.py": _REGISTRY,
            "core/protos.py": _CORE,
            "engine/models.py": """
                import time

                class Imported:
                    def run(self, batch):
                        return time.time()
            """,
            "engine/vectorized.py": """
                from .models import Imported
                from .registry import register_vector_model

                register_vector_model("ba_one_third", "crash", Imported)
            """,
        }), select=["VEC502"])
        assert rule_ids(report) == ["VEC502"]
        assert report.findings[0].path == "engine/models.py"

    def test_noqa_suppresses(self, tree):
        report = _tree(tree, """
            import time
            from .registry import register_vector_model

            class Impure:
                def run(self, batch):
                    return time.time()  # repro: noqa[VEC502] fixture

            register_vector_model("ba_one_third", "crash", Impure)
        """, ["VEC502"])
        assert report.findings == [] and report.suppressed == 1


class TestVec503FallbackVocabulary:
    def test_reason_in_vocabulary_passes(self, tree):
        report = _tree(tree, """
            FALLBACK_REASONS = frozenset({"numpy unavailable"})
            FALLBACK_REASON_PREFIXES = ("no ",)

            def unsupported_reason(spec):
                if spec is None:
                    return "numpy unavailable"
                return f"no vector model for {spec!r}"
        """, ["VEC503"])
        assert report.findings == []

    def test_novel_constant_reason_is_flagged(self, tree):
        report = _tree(tree, """
            FALLBACK_REASONS = frozenset({"numpy unavailable"})
            FALLBACK_REASON_PREFIXES = ("no ",)

            def unsupported_reason(spec):
                return "a reason nobody aggregated on"
        """, ["VEC503"])
        assert rule_ids(report) == ["VEC503"]

    def test_fstring_head_outside_prefixes_is_flagged(self, tree):
        report = _tree(tree, """
            FALLBACK_REASONS = frozenset({"numpy unavailable"})
            FALLBACK_REASON_PREFIXES = ("no ",)

            def _kappa_reason(spec):
                return f"weird kappa {spec!r}"
        """, ["VEC503"])
        assert rule_ids(report) == ["VEC503"]

    def test_missing_vocabulary_is_one_finding(self, tree):
        report = _tree(tree, """
            def unsupported_reason(spec):
                return "numpy unavailable"
        """, ["VEC503"])
        assert len(report.findings) == 1
        assert "FALLBACK_REASONS" in report.findings[0].message

    def test_noqa_suppresses(self, tree):
        report = _tree(tree, """
            FALLBACK_REASONS = frozenset({"numpy unavailable"})
            FALLBACK_REASON_PREFIXES = ("no ",)

            def unsupported_reason(spec):
                return "novel"  # repro: noqa[VEC503] fixture
        """, ["VEC503"])
        assert report.findings == [] and report.suppressed == 1


class TestVec504BatchKey:
    def test_literal_excluding_both_fields_passes(self, tree):
        report = _tree(tree, """
            import operator

            PER_TRIAL_FIELDS = ("seed", "session", "config")
            _fields = operator.attrgetter("protocol", "adversary")

            def batch_key(spec):
                return _fields(spec)
        """, ["VEC504"])
        assert report.findings == []

    def test_literal_missing_session_is_flagged(self, tree):
        report = _tree(tree, """
            PER_TRIAL_FIELDS = ("seed", "config")

            def batch_key(spec):
                return (spec.protocol, spec.adversary)
        """, ["VEC504"])
        assert rule_ids(report) == ["VEC504"]
        assert "session" in report.findings[0].message

    def test_no_literal_at_all_is_flagged(self, tree):
        report = _tree(tree, """
            import dataclasses

            def batch_key(spec):
                return dataclasses.replace(spec, seed=0, session="")
        """, ["VEC504"])
        assert rule_ids(report) == ["VEC504"]
        assert "PER_TRIAL_FIELDS" in report.findings[0].message

    def test_reading_a_per_trial_field_is_flagged(self, tree):
        report = _tree(tree, """
            PER_TRIAL_FIELDS = ("seed", "session")

            def batch_key(spec):
                return (spec.protocol, spec.seed, getattr(spec, "session"))
        """, ["VEC504"])
        assert rule_ids(report) == ["VEC504"]
        assert sorted(f.message for f in report.findings) == [
            "batch_key reads 'seed' off the spec",
            "batch_key reads 'session' off the spec",
        ]

    def test_noqa_suppresses(self, tree):
        report = _tree(tree, """
            PER_TRIAL_FIELDS = ("seed",)  # repro: noqa[VEC504] fixture

            def batch_key(spec):
                return (spec.protocol, spec.adversary)
        """, ["VEC504"])
        assert report.findings == [] and report.suppressed == 1
