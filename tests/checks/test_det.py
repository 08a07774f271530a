"""DET rules: hit, clean-pass and noqa-suppressed cases for every id."""

from .conftest import check, rule_ids


class TestDET101WallClock:
    def test_hit_time_call(self, tree):
        root = tree({"core/bad.py": """
            import time

            def now():
                return time.time()
        """})
        report = check(root)
        assert rule_ids(report) == ["DET101"]
        finding = report.findings[0]
        assert finding.path == "core/bad.py"
        assert finding.line == 5

    def test_hit_through_alias_and_from_import(self, tree):
        root = tree({"network/bad.py": """
            from time import perf_counter as tick

            def stamp():
                return tick()
        """})
        assert rule_ids(check(root)) == ["DET101"]

    def test_pass_outside_protocol_scope(self, tree):
        # The engine layer times runs deliberately; DET does not apply.
        root = tree({"engine/ok.py": """
            import time

            def wall():
                return time.perf_counter()
        """})
        assert check(root).ok

    def test_pass_clean_protocol_code(self, tree):
        root = tree({"core/ok.py": """
            def rounds_used(metrics):
                return metrics.rounds
        """})
        assert check(root).ok

    def test_noqa_suppresses(self, tree):
        root = tree({"core/waived.py": """
            import time

            def now():
                return time.time()  # repro: noqa[DET101] test fixture
        """})
        report = check(root)
        assert report.ok and report.suppressed == 1


class TestDET102AmbientEntropy:
    def test_hit_urandom_and_uuid(self, tree):
        root = tree({"crypto/bad.py": """
            import os
            import uuid

            def nonce():
                return os.urandom(8) + uuid.uuid4().bytes
        """})
        report = check(root)
        assert rule_ids(report) == ["DET102"]
        assert len(report.findings) == 2

    def test_pass_os_path_is_not_entropy(self, tree):
        root = tree({"crypto/ok.py": """
            import os

            def here():
                return os.path.join("a", "b")
        """})
        assert check(root).ok

    def test_noqa_suppresses(self, tree):
        root = tree({"crypto/waived.py": """
            import os

            def nonce():
                return os.urandom(8)  # repro: noqa[DET102] test fixture
        """})
        report = check(root)
        assert report.ok and report.suppressed == 1


class TestDET103GlobalRng:
    def test_hit_module_level_random(self, tree):
        root = tree({"proxcensus/bad.py": """
            import random

            def flip():
                return random.randint(0, 1)
        """})
        report = check(root)
        assert rule_ids(report) == ["DET103"]

    def test_pass_seeded_instance(self, tree):
        root = tree({"proxcensus/ok.py": """
            import random

            def flip(seed):
                rng = random.Random(seed)
                return rng.randint(0, 1)
        """})
        assert check(root).ok

    def test_noqa_suppresses(self, tree):
        root = tree({"proxcensus/waived.py": """
            import random

            def flip():
                return random.random()  # repro: noqa[DET103] test fixture
        """})
        report = check(root)
        assert report.ok and report.suppressed == 1


class TestDET104SetIteration:
    def test_hit_for_loop_and_list_conversion(self, tree):
        root = tree({"network/bad.py": """
            def payloads(pids):
                out = []
                for pid in set(pids):
                    out.append(pid)
                return out, list({1, 2, 3})
        """})
        report = check(root)
        assert rule_ids(report) == ["DET104"]
        assert len(report.findings) == 2

    def test_hit_comprehension_over_set_op(self, tree):
        root = tree({"core/bad.py": """
            def union(a, b):
                return [x for x in a.union(b)]
        """})
        assert rule_ids(check(root)) == ["DET104"]

    def test_pass_sorted_wrapping(self, tree):
        root = tree({"network/ok.py": """
            def payloads(pids):
                return [pid for pid in sorted(set(pids))]
        """})
        assert check(root).ok

    def test_pass_order_insensitive_reductions(self, tree):
        root = tree({"core/ok.py": """
            def stats(pids):
                quorum = {p for p in pids if p >= 0}
                return len(quorum), max(quorum), 3 in quorum
        """})
        assert check(root).ok

    def test_noqa_suppresses(self, tree):
        root = tree({"network/waived.py": """
            def anyone(pids):
                for pid in set(pids):  # repro: noqa[DET104] test fixture
                    return pid
        """})
        report = check(root)
        assert report.ok and report.suppressed == 1


class TestDET105IdOrdering:
    def test_hit_sort_key_and_comparison(self, tree):
        root = tree({"core/bad.py": """
            def order(parties, a, b):
                parties.sort(key=id)
                return id(a) < id(b)
        """})
        report = check(root)
        assert rule_ids(report) == ["DET105"]
        assert len(report.findings) == 2

    def test_hit_sorted_with_id_lambda(self, tree):
        root = tree({"core/bad2.py": """
            def order(parties):
                return sorted(parties, key=lambda p: id(p))
        """})
        assert rule_ids(check(root)) == ["DET105"]

    def test_pass_identity_cache_and_stable_keys(self, tree):
        root = tree({"crypto/ok.py": """
            def memo(cache, message, parties):
                cache[id(message)] = message
                return sorted(parties, key=lambda p: p.pid)
        """})
        assert check(root).ok

    def test_noqa_suppresses(self, tree):
        root = tree({"core/waived.py": """
            def order(parties):
                return sorted(parties, key=id)  # repro: noqa[DET105] test fixture
        """})
        report = check(root)
        assert report.ok and report.suppressed == 1


class TestDET107DictOrdering:
    def test_hit_next_iter_over_keys(self, tree):
        root = tree({"core/bad.py": """
            def pick(tally):
                return next(iter(tally.keys()))
        """})
        report = check(root)
        assert rule_ids(report) == ["DET107"]
        assert report.findings[0].path == "core/bad.py"

    def test_hit_max_with_key_over_keys(self, tree):
        root = tree({"proxcensus/bad.py": """
            def winner(tally):
                return max(tally.keys(), key=tally.get)
        """})
        assert rule_ids(check(root)) == ["DET107"]

    def test_hit_next_iter_over_dict_literal(self, tree):
        root = tree({"network/bad.py": """
            def first(pairs):
                return next(iter({k: v for k, v in pairs}))
        """})
        assert rule_ids(check(root)) == ["DET107"]

    def test_pass_sorted_keys_and_keyless_max(self, tree):
        root = tree({"core/ok.py": """
            def pick(tally):
                return next(iter(sorted(tally)))

            def biggest_key(tally):
                return max(tally.keys())
        """})
        assert check(root).ok

    def test_pass_items_with_total_key(self, tree):
        # The sanctioned tie-free idiom (turpin_coan, prox tallies).
        root = tree({"core/ok.py": """
            def winner(tally):
                value, _count = max(
                    tally.items(), key=lambda kv: (kv[1], repr(kv[0]))
                )
                return value
        """})
        assert check(root).ok

    def test_pass_outside_protocol_scope(self, tree):
        root = tree({"analysis/ok.py": """
            def pick(tally):
                return next(iter(tally.keys()))
        """})
        assert check(root).ok

    def test_noqa_suppresses(self, tree):
        root = tree({"core/waived.py": """
            def pick(tally):
                return next(iter(tally.keys()))  # repro: noqa[DET107] test fixture
        """})
        report = check(root)
        assert report.ok and report.suppressed == 1
