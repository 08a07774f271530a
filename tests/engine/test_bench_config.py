"""Benchmark-suite configuration parsing is strict where it must be.

``REPRO_BENCH_BACKEND`` selects which executor produces published
numbers; a typo silently falling back to the object simulator would
label one backend's results with another's name.  Unknown values are
therefore a hard error naming the valid set — pinned here, alongside
the deliberately *lenient* ``REPRO_BENCH_WORKERS`` parsing (a stray
worker count must never abort collection of the whole suite).
"""

import ast
import pathlib

import pytest

from benchmarks.conftest import (
    VALID_BENCH_BACKENDS,
    bench_backend,
    bench_workers,
)

REPO = pathlib.Path(__file__).resolve().parents[2]
BENCHMARKS_DIR = REPO / "benchmarks"


class TestBenchBackend:
    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_BACKEND", raising=False)
        assert bench_backend() == "object"
        assert bench_backend(default="vector") == "vector"

    @pytest.mark.parametrize("value", VALID_BENCH_BACKENDS)
    def test_valid_values_pass_through(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BENCH_BACKEND", value)
        assert bench_backend() == value

    @pytest.mark.parametrize("value", ["vectro", "OBJECT", "numpy", "1"])
    def test_unknown_value_errors_and_lists_valid_backends(
        self, monkeypatch, value
    ):
        monkeypatch.setenv("REPRO_BENCH_BACKEND", value)
        with pytest.raises(ValueError) as excinfo:
            bench_backend()
        message = str(excinfo.value)
        assert repr(value) in message
        for backend in VALID_BENCH_BACKENDS:
            assert backend in message


class TestEveryBenchmarkDrivesTheEngine:
    """Nothing bypasses the engine with a hand-built simulator.

    ``REPRO_BENCH_WORKERS`` / ``REPRO_BENCH_BACKEND`` only apply to
    executions routed through :func:`benchmarks.conftest.run_plan`, and a
    replay line only exists for a trial the engine ran; a direct
    ``SyncSimulator(...)`` would silently escape both.  So one is
    constructed in exactly two functions — ``run_protocol`` for ad-hoc
    programs, the engine's ``_build_simulator`` for everything a
    ``TrialSpec`` names — and the pre-engine harness stays deleted.
    """

    TREES = ("src/repro", "examples", "benchmarks")
    CONSTRUCTION_SITES = [
        ("src/repro/engine/runner.py", "_build_simulator"),
        ("src/repro/network/simulator.py", "run_protocol"),
    ]
    DELETED = ("ExperimentSetup", "run_trials")

    def _sources(self):
        for tree in self.TREES:
            for path in sorted((REPO / tree).rglob("*.py")):
                yield path.relative_to(REPO).as_posix(), path.read_text("utf-8")

    def _constructions(self):
        """``(file, enclosing function)`` of every ``SyncSimulator(...)`` call."""

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Call):
                callee = node.func
                name = getattr(callee, "id", getattr(callee, "attr", None))
                if name == "SyncSimulator":
                    yield function
            for child in ast.iter_child_nodes(node):
                yield from visit(child, function)

        for relative, source in self._sources():
            for function in visit(ast.parse(source), None):
                yield relative, function

    def test_no_direct_simulator_construction_in_benchmarks(self):
        assert sorted(self._constructions()) == self.CONSTRUCTION_SITES
        offenders = [
            (relative, name)
            for relative, source in self._sources()
            for name in self.DELETED
            if name in source
        ]
        assert not offenders, f"the deleted serial harness is back: {offenders}"

    def _engine_counts(self):
        """How often the engine package does each thing that must have
        one home: opens a pool, submits to one, imports the profiler."""
        counts = {"ProcessPoolExecutor(": 0, ".submit(": 0, "cProfile": 0}
        private_imports = []
        for relative, source in self._sources():
            if not relative.startswith("src/repro/engine/"):
                continue
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Call):
                    callee = node.func
                    if getattr(callee, "id", None) == "ProcessPoolExecutor":
                        counts["ProcessPoolExecutor("] += 1
                    if getattr(callee, "attr", None) == "submit":
                        counts[".submit("] += 1
                elif isinstance(node, ast.Import):
                    counts["cProfile"] += sum(
                        alias.name == "cProfile" for alias in node.names
                    )
                elif isinstance(node, ast.ImportFrom):
                    counts["cProfile"] += node.module == "cProfile"
                    if relative.endswith("/adaptive.py") and node.module == "runner":
                        private_imports += [
                            alias.name for alias in node.names
                            if alias.name.startswith("_")
                        ]
        return counts, private_imports

    def test_a_plan_is_dispatched_from_one_place(self):
        """Two pools (the dealing pool in ``predeal_suites``, the
        session's), one ``submit``, one profiler, and an adaptive runner
        that sees only the runner's public names."""
        counts, private_imports = self._engine_counts()
        assert counts == {"ProcessPoolExecutor(": 2, ".submit(": 1, "cProfile": 1}
        assert private_imports == []

    def test_the_vector_backend_keeps_one_cache(self):
        """One cross-batch cache in ``engine/vectorized.py`` — the
        configuration LRU — assigned at module level; no second LRU
        beside it and none rebuilt inside a function."""
        tree = ast.parse((REPO / "src/repro/engine/vectorized.py").read_text("utf-8"))
        calls = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "OrderedDict"
        ]
        module_level = [
            node.value for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Call)
        ]
        assert len(calls) == 1
        assert calls[0] in module_level

    def test_benchmarks_dir_exists_and_is_nonempty(self):
        # Guard the guard: a tree whose glob matches nothing is vacuously
        # free of simulators and deleted names.
        scanned = [relative for relative, _ in self._sources()]
        for tree in self.TREES:
            assert sum(r.startswith(tree + "/") for r in scanned) >= 8, tree
        assert len(list(BENCHMARKS_DIR.glob("bench_*.py"))) >= 8
        # ... and a walker that sees no call sees no second pool either.
        assert all(self._engine_counts()[0].values())


class TestBenchWorkers:
    def test_non_integer_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "many")
        with pytest.warns(UserWarning, match="REPRO_BENCH_WORKERS"):
            assert bench_workers(default=1) == 1

    def test_non_positive_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "0")
        with pytest.warns(UserWarning, match="must be >= 1"):
            assert bench_workers(default=2) == 2
