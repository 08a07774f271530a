"""Tests for the command-line interface."""

import json
import os
import re
import shlex

import pytest

from repro.cli import build_parser, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden")
with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as _handle:
    GOLDEN_CASES = json.load(_handle)


class TestGolden:
    """`repro run` / `repro ledger` print what they printed at fe9062a,
    before they went through the engine (tests/cli_golden/make_golden.py)."""

    @pytest.mark.parametrize(
        "case", GOLDEN_CASES, ids=lambda case: " ".join(case["argv"])
    )
    def test_stdout_and_exit_code(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a --trace-jsonl path is relative
        assert main(case["argv"]) == case["code"]
        assert capsys.readouterr().out == case["stdout"]
        traced = "--trace-jsonl" in case["argv"]
        assert os.listdir(tmp_path) == ["crash.trace.jsonl"] * traced
        for written in os.listdir(tmp_path):
            with open(os.path.join(GOLDEN, written), "rb") as golden:
                assert (tmp_path / written).read_bytes() == golden.read()


class TestNoTraceback:
    """A trial that raises, or flags that describe none, exit 2 in one
    message; a raising trial's message ends with a line that replays it."""

    @pytest.mark.parametrize("argv, cause", [
        (["run", "--adversary", "crash", "--victims", "9"],
         "SimulationError: adversary named nonexistent party 9"),
        (["run", "--protocol", "one_half", "--inputs", "1,0,1,0", "--t", "2"],
         "ValueError: ba_one_half requires t < n/2, got t=2, n=4"),
        (["run", "--kappa", "0"], "ValueError: kappa must be at least 1"),
        (["run", "--spec", '{"protocol":"ba_one_half","inputs":[1,0,1,0],'
          '"max_faulty":2,"params":{"kappa":2}}'],
         "ValueError: ba_one_half requires t < n/2, got t=2, n=4"),
        (["ledger", "--queues", "a;b", "--t", "1"],
         "ValueError: regime 'one_third' requires t < n/3"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
    def test_raising_trial_exits_2_and_its_replay_line_fails_alike(
        self, argv, cause, capsys
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"repro {argv[0]}: trial 0 of")
        assert f"): {cause}\nreplay it alone with:\n" in captured.err
        replay = shlex.split(captured.err.splitlines()[-1])
        assert replay[:3] == ["repro", "run", "--spec"]
        assert main(replay[1:]) == 2
        again = capsys.readouterr().err
        assert f"): {cause}\n" in again and again.endswith(captured.err.splitlines()[-1] + "\n")

    @pytest.mark.parametrize("argv", [
        ["run", "--inputs", "1,0", "--t", "5"],
        ["ledger", "--queues", "a;b", "--t", "5"],
    ], ids=" ".join)
    def test_flags_that_describe_no_trial_are_a_one_line_usage_error(
        self, argv, capsys
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro {argv[0]}: need 0 <= t < n, got t=5, n=2\n"


class TestRun:
    def test_basic_run_agrees(self, capsys):
        code = main(
            ["run", "--protocol", "one_third", "--kappa", "4",
             "--inputs", "1,0,1,0", "--t", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement  : True" in out
        assert "rounds     : 5" in out

    def test_run_with_straddle_alias(self, capsys):
        code = main(
            ["run", "--protocol", "one_half", "--kappa", "4",
             "--inputs", "1,0,1,0,1", "--t", "2", "--adversary", "straddle"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)  # worst-case attack may win at kappa=4 rarely
        assert "corrupted  : [3, 4]" in out

    def test_run_with_trace(self, capsys):
        main(
            ["run", "--protocol", "one_third", "--kappa", "2",
             "--inputs", "1,1,1,1", "--t", "1", "--trace"]
        )
        out = capsys.readouterr().out
        assert "transcript:" in out and "── round 1" in out

    def test_dolev_strong(self, capsys):
        code = main(
            ["run", "--protocol", "dolev_strong",
             "--inputs", "1,1,1,0", "--t", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rounds     : 2" in out

    def test_crash_and_malformed_adversaries(self, capsys):
        for adversary in ("crash", "malformed", "two_face"):
            code = main(
                ["run", "--protocol", "one_third", "--kappa", "4",
                 "--inputs", "1,1,1,1", "--t", "1", "--adversary", adversary]
            )
            assert code == 0, capsys.readouterr().out


class TestTrace:
    """`repro run --trace-jsonl` streams a file `repro trace` replays."""

    def _stream(self, tmp_path, capsys, extra=()):
        path = str(tmp_path / "run.trace.jsonl")
        code = main(
            ["run", "--protocol", "one_third", "--kappa", "4",
             "--inputs", "1,0,1,0", "--t", "1", "--adversary", "crash",
             "--trace-jsonl", path, *extra]
        )
        assert code == 0
        return path, capsys.readouterr().out

    def test_replay_matches_live_transcript_byte_for_byte(
        self, tmp_path, capsys
    ):
        path, live_out = self._stream(tmp_path, capsys, extra=["--trace"])
        live = live_out.split("transcript:\n", 1)[1]
        live = live.split("\nwrote trace:", 1)[0]
        assert main(["trace", path]) == 0
        replayed = capsys.readouterr().out
        # Skip the meta line + blank separator; the timeline must match
        # the live `--trace` rendering exactly.
        body = replayed.split("\n\n", 1)[1]
        assert body.strip("\n") == live.strip("\n")

    def test_stats_cross_check(self, tmp_path, capsys):
        path, out = self._stream(tmp_path, capsys)
        assert "wrote trace:" in out
        assert main(["trace", path, "--stats"]) == 0
        replayed = capsys.readouterr().out
        assert "per-round tallies" in replayed
        # Headers and counters use the pinned repro-metrics/1 vocabulary.
        assert "messages_honest" in replayed
        assert "signatures_corrupt" in replayed
        assert "sig_verify_ops" in replayed

    def test_filters(self, tmp_path, capsys):
        path, _ = self._stream(tmp_path, capsys)
        assert main(["trace", path, "--round", "1", "--corrupt-only"]) == 0
        out = capsys.readouterr().out
        assert "── round 1" in out and "── round 2" not in out
        assert main(["trace", path, "--party", "3"]) == 0
        out = capsys.readouterr().out
        assert "P3" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "repro trace:" in capsys.readouterr().err

    def test_schema_mismatch_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "wrong.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"t": "trace", "schema": "repro-trace/99"}\n')
            handle.write('{"t": "end", "events": 0, "corruptions": 0}\n')
        assert main(["trace", path, "--stats"]) == 2
        assert "schema" in capsys.readouterr().err

    def test_truncated_file_exits_2(self, tmp_path, capsys):
        full, _ = self._stream(tmp_path, capsys)
        clipped = str(tmp_path / "clipped.jsonl")
        with open(full, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        with open(clipped, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
        assert main(["trace", clipped]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_diff_identical_traces_exits_0(self, tmp_path, capsys):
        path, _ = self._stream(tmp_path, capsys)
        twin = str(tmp_path / "twin.trace.jsonl")
        with open(path, encoding="utf-8") as handle:
            contents = handle.read()
        with open(twin, "w", encoding="utf-8") as handle:
            handle.write(contents)
        assert main(["trace", path, "--diff", twin]) == 0
        assert "traces identical" in capsys.readouterr().out

    def test_diff_perturbed_trace_exits_1_with_divergence(
        self, tmp_path, capsys
    ):
        """The regression pin: a single flipped payload is caught and
        located at its round, with both conflicting lines rendered."""
        import json

        path, _ = self._stream(tmp_path, capsys)
        perturbed = str(tmp_path / "perturbed.trace.jsonl")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        flipped = None
        with open(perturbed, "w", encoding="utf-8") as handle:
            for line in lines:
                record = json.loads(line)
                if flipped is None and record.get("t") == "msg":
                    record["p"] = record["p"] + "-tampered"
                    flipped = record["r"]
                    line = json.dumps(record)
                handle.write(line + "\n")
        assert flipped is not None
        assert main(["trace", path, "--diff", perturbed]) == 1
        out = capsys.readouterr().out
        assert f"diverge at round {flipped}" in out
        assert "-tampered" in out

    def test_diff_against_different_run_reports_meta(self, tmp_path, capsys):
        path, _ = self._stream(tmp_path, capsys)
        other = str(tmp_path / "other.trace.jsonl")
        assert main(
            ["run", "--protocol", "one_third", "--kappa", "4",
             "--inputs", "1,0,1,0", "--t", "1", "--adversary", "two_face",
             "--trace-jsonl", other]
        ) == 0
        capsys.readouterr()
        assert main(["trace", path, "--diff", other]) == 1
        out = capsys.readouterr().out
        assert "diverge at header" in out

    def test_diff_unreadable_other_exits_2(self, tmp_path, capsys):
        path, _ = self._stream(tmp_path, capsys)
        missing = str(tmp_path / "nope.jsonl")
        assert main(["trace", path, "--diff", missing]) == 2
        assert "repro trace:" in capsys.readouterr().err

    def test_round_out_of_range_exits_2(self, tmp_path, capsys):
        path, _ = self._stream(tmp_path, capsys)
        for bad in ("0", "99"):
            assert main(["trace", path, "--round", bad]) == 2
            err = capsys.readouterr().err
            assert "out of range" in err and "usage:" in err
        # An empty list would render an empty timeline: a usage error.
        for bad in ("", ","):
            with pytest.raises(SystemExit) as excinfo:
                main(["trace", path, "--round", bad])
            err = capsys.readouterr().err
            assert excinfo.value.code == 2
            assert "usage:" in err and "at least one round" in err

    def test_party_out_of_range_exits_2(self, tmp_path, capsys):
        path, _ = self._stream(tmp_path, capsys)
        for bad in ("-1", "17"):
            assert main(["trace", path, "--party", bad]) == 2
            err = capsys.readouterr().err
            assert "out of range" in err and "usage:" in err
        # In-range values still work after the validation pass.
        assert main(["trace", path, "--party", "0"]) == 0


class TestRunFaults:
    """`repro run --faults` injects a registered scenario and reports it."""

    BASE = ["run", "--protocol", "one_third", "--kappa", "4",
            "--inputs", "1,1,1,1", "--t", "1"]

    def test_lossy_scenario_reports_counts(self, capsys):
        code = main(
            self.BASE + ["--faults", "lossy",
                         "--fault-params", '{"rate": 0.3}', "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)  # heavy loss may break agreement; both report
        assert "faults     : lossy (lost=" in out

    def test_unknown_scenario_exits_2_and_lists_registered(self, capsys):
        assert main(self.BASE + ["--faults", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bad fault scenario" in err
        assert "lossy" in err and "crash_recover" in err

    def test_bad_fault_params_json_exits_2(self, capsys):
        assert main(
            self.BASE + ["--faults", "lossy", "--fault-params", "{rate:"]
        ) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bad_fault_params_value_exits_2(self, capsys):
        assert main(
            self.BASE + ["--faults", "lossy", "--fault-params", '{"rate": 2}']
        ) == 2
        assert "bad fault scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, params, names", [
        ("crash_recover", '{"crashes": [[99,1,3]]}',
         "fault plan names party 99; this run has parties 0..3"),
        ("partitioned", '{"groups": [[0,7]]}',
         "fault plan names party 7; this run has parties 0..3"),
        ("rotating_membership", '{"epoch_length": 1, "disabled": [[9]]}',
         "fault plan names party 9; this run has parties 0..3"),
        ("lossy", '{"bogus": 2}',
         "fault scenario 'lossy' takes (rate): got an unexpected keyword "
         "argument 'bogus'"),
        ("crash_recover", '{"crashes": [["a",1,3]]}',
         "fault scenario 'crash_recover' takes (crashes): "),
    ])
    def test_inapplicable_fault_params_are_one_line_usage_errors(
        self, capsys, scenario, params, names
    ):
        """A party the run lacks, or params the scenario rejects: exit 2,
        never a silent no-op, a traceback or the builder's ``<lambda>``."""
        assert main(
            ["run", "--protocol", "one_third", "--inputs", "0,0,1,1", "--t", "1",
             "--kappa", "2", "--faults", scenario, "--fault-params", params]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        first, usage = captured.err.splitlines()
        assert first.startswith(f"repro run: bad fault scenario: {names}")
        assert usage.startswith("usage: --faults takes one of")
        assert "Traceback" not in captured.err and "<lambda>" not in captured.err

    def test_faulted_trace_jsonl_stats_report_faults(self, tmp_path, capsys):
        path = str(tmp_path / "faulty.trace.jsonl")
        code = main(
            self.BASE + ["--faults", "lossy",
                         "--fault-params", '{"rate": 0.4}',
                         "--seed", "3", "--trace-jsonl", path]
        )
        assert code in (0, 1)
        capsys.readouterr()
        assert main(["trace", path, "--stats"]) == 0
        assert "fault_hits" in capsys.readouterr().out


class TestCompare:
    def test_table_printed(self, capsys):
        assert main(["compare", "--kappas", "4,8"]) == 0
        out = capsys.readouterr().out
        assert "ours t<n/3" in out
        assert " 5" in out and " 9" in out  # kappa+1 column

    @pytest.mark.parametrize("kappas", ["-3", "0", "", "4,0"])
    def test_kappa_below_one_is_a_usage_error(self, kappas, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--kappas", kappas])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert "repro compare: error:" in captured.err
        assert "rounds to reach" not in captured.out


class TestTables:
    @pytest.mark.parametrize("which,needle", [
        ("table1", "Σ0"),
        ("table2", "Ω6"),
        ("fig3", "c=9"),
    ])
    def test_each_table(self, which, needle, capsys):
        assert main(["tables", "--which", which]) == 0
        assert needle in capsys.readouterr().out

    def test_all(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "table2" in out and "fig3" in out


def _measured(out):
    """The `measured` column of the rate table `error-sweep` printed."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if "bound 2^-k" in line)
    column = []
    for line in lines[start + 2:]:
        if not line.strip():
            break
        column.append(line.split()[-1])
    return column


def _reference_rates(protocol, kappas, trials, seed=0):
    """The same sweep, one engine plan per kappa."""
    from repro.engine import ParallelRunner, TrialPlan

    if protocol == "one_third":
        config = ("ba_one_third", (0, 0, 1, 1), 1)
        attack = {"adversary": "straddle13", "adversary_params": {"victims": (3,)}}
    else:
        config = ("ba_one_half", (0, 0, 1, 1, 1), 2)
        attack = {"adversary": "straddle12", "adversary_params": {"victims": (3, 4)}}
    return [
        "%.4f" % ParallelRunner().run(
            TrialPlan.monte_carlo(
                "reference", *config, trials, params={"kappa": kappa},
                seed=seed + kappa, **attack,
            )
        ).disagreement_rate()
        for kappa in kappas
    ]


class TestErrorSweep:
    EXECUTORS = ([], ["--workers", "2"], ["--vector"])

    def test_sweep_prints_rates(self, capsys):
        assert main(
            ["error-sweep", "--protocol", "one_third",
             "--kappas", "1", "--trials", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "bound 2^-k" in out

    @pytest.mark.parametrize("protocol", ["one_third", "one_half"])
    def test_measured_equals_reference_on_every_executor(
        self, protocol, capsys
    ):
        expected = _reference_rates(protocol, [1, 2], 40)
        for executor in self.EXECUTORS:
            assert main(
                ["error-sweep", "--protocol", protocol, "--kappas", "1,2",
                 "--trials", "40", *executor]
            ) == 0
            out = capsys.readouterr().out
            assert _measured(out) == expected, executor
            if executor == ["--workers", "2"] and (os.cpu_count() or 1) < 2:
                # Worker counts are clamped to the CPUs present, and the
                # CLI must say so rather than pretend it ran a pool.
                assert "clamped to 1" in out

    def test_kappa_64_runs_on_the_vector_backend(self, tmp_path, capsys):
        """Coins are Python ints: κ past a machine word batches (it used
        to die in an int64 column) and prints the object path's table."""
        from repro.obs import summarize_telemetry

        tables = []
        for executor in ([], ["--vector", "--telemetry", str(tmp_path)]):
            assert main(
                ["error-sweep", "--protocol", "one_third", "--kappas", "64",
                 "--trials", "8", *executor]
            ) == 0
            out = capsys.readouterr().out
            tables.append(_measured(out))
        assert tables[0] == tables[1] == ["0.0000"]
        summary = summarize_telemetry(str(tmp_path / "telemetry.jsonl"))
        assert (
            summary["vector_batched"], summary["vector_fallback"], summary["coins"]
        ) == (8, 0, 8)

    def test_telemetry_artifact_written_and_consistent(self, tmp_path, capsys):
        tele_dir = str(tmp_path / "tele")
        code = main(
            ["error-sweep", "--kappas", "1", "--trials", "8",
             "--workers", "2", "--telemetry", tele_dir]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry spans consistent" in out and "OK" in out
        tele_path = os.path.join(tele_dir, "telemetry.jsonl")
        assert tele_path in out

        from repro.obs import summarize_telemetry

        summary = summarize_telemetry(tele_path)
        assert summary["consistent"] is True
        assert summary["records"] > 0
        assert len(summary["runs"]) == 1  # one plan execution, not one per leg

    def test_adaptive_telemetry_records_allocations(self, tmp_path, capsys):
        import json

        from repro.obs import summarize_telemetry

        for backend in ([], ["--vector"]):
            tele_dir = str(tmp_path / ("tele" + "".join(backend)))
            code = main(
                ["error-sweep", "--kappas", "1,2", "--trials", "8",
                 "--adaptive", "--batch", "4", "--telemetry", tele_dir,
                 *backend]
            )
            captured = capsys.readouterr()
            assert code == 0, captured.out + captured.err
            assert "verdicts match fixed run" in captured.out
            summary = summarize_telemetry(
                os.path.join(tele_dir, "telemetry.jsonl")
            )
            assert summary["consistent"] is True
            assert summary["adaptive_rounds"] >= 1
            assert len(summary["runs"]) == 2  # the fixed run, then the adaptive
            # Both runs are on the selected backend: the fixed run is
            # one vector batch, each adaptive allocation another.
            with open(os.path.join(tele_dir, "telemetry.jsonl")) as handle:
                batches = sum(
                    json.loads(line)["t"] == "vector_batch" for line in handle
                )
            assert batches > 1 if backend else batches == 0

    def test_metrics_and_profile_artifacts_written(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        profile_dir = tmp_path / "prof"
        tele_dir = tmp_path / "tele"
        code = main(
            ["error-sweep", "--kappas", "1", "--trials", "6",
             "--metrics", str(metrics_path), "--profile", str(profile_dir),
             "--telemetry", str(tele_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert str(metrics_path) in out and str(profile_dir) in out

        import json

        from repro.obs import summarize_telemetry, validate_metrics_payload

        payload = json.loads(metrics_path.read_text())
        assert validate_metrics_payload(payload) == []
        assert [
            name for name in os.listdir(profile_dir) if name.endswith(".pstats")
        ]
        # Metrics, profile and telemetry all ride one run.
        summary = summarize_telemetry(str(tele_dir / "telemetry.jsonl"))
        assert len(summary["runs"]) == 1 and summary["profiles"]

    def test_metrics_artifact_bytes_equal_on_every_executor(
        self, tmp_path, capsys
    ):
        artifacts = []
        for number, executor in enumerate(self.EXECUTORS):
            path = tmp_path / f"metrics-{number}.json"
            assert main(
                ["error-sweep", "--protocol", "both", "--kappas", "1,2",
                 "--trials", "6", "--metrics", str(path), *executor]
            ) == 0
            artifacts.append(path.read_bytes())
        assert artifacts[0] == artifacts[1] == artifacts[2]

    def test_unpredicted_vector_fallback_exits_2_and_writes_no_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        """A supported spec that lands on the object path is bit-identical,
        so the run audits its batch spans instead of its results."""
        from repro.engine.vectorized import VectorModelError
        from tests.conftest import swap_vector_model

        def broken(specs):
            raise VectorModelError("injected")

        swap_vector_model(monkeypatch, "ba_one_half", None, batch=broken)
        path = tmp_path / "metrics.json"
        code = main(
            ["error-sweep", "--protocol", "both", "--kappas", "1,2",
             "--trials", "6", "--vector", "--metrics", str(path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "12 supported trials fell back" in err and "injected" in err
        assert not path.exists()

    @pytest.mark.parametrize("flags", [
        ["--trials", "0"],
        ["--kappas", "0"],
        ["--adaptive", "--bound", "foo"],
        ["--backend", "real", "--rsa-bits", "8"],
        ["--telemetry", "/dev/null/x"],
        ["--metrics", "/nonexistent/dir/m.json"],
    ], ids=lambda flags: flags[-2])
    def test_bad_flag_is_a_usage_error_before_any_trial(
        self, flags, capsys, monkeypatch
    ):
        from repro.engine import ParallelRunner

        def no_run(self, plan):
            raise AssertionError("a trial ran before the flags were checked")

        monkeypatch.setattr(ParallelRunner, "run", no_run)
        with pytest.raises(SystemExit) as excinfo:
            main(["error-sweep", "--kappas", "1", "--trials", "4", *flags])
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert "repro error-sweep: error:" in err
        assert "Traceback" not in err

    def test_raising_trial_exits_2_with_its_replay_line(
        self, capsys, monkeypatch
    ):
        from tests.conftest import swap_vector_model

        def buggy(specs):
            raise RuntimeError("boom")

        swap_vector_model(monkeypatch, "ba_one_third", None, batch=buggy)
        code = main(
            ["error-sweep", "--kappas", "1", "--trials", "4", "--vector"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro error-sweep: trial 0 of")
        assert "RuntimeError: boom" in err
        assert "repro run --spec '{" in err
        assert "Traceback" not in err


class TestReport:
    FIXTURES = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "obs", "fixtures"
    )

    def test_no_inputs_is_a_usage_error(self, capsys):
        assert main(["report"]) == 2
        err = capsys.readouterr().err
        assert "nothing to report" in err
        assert "--metrics" in err

    def test_renders_fixture_inputs_and_checks_clean(self, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        html_path = tmp_path / "report.html"
        code = main(
            ["report",
             "--metrics", os.path.join(self.FIXTURES, "metrics.json"),
             "--telemetry", self.FIXTURES,
             "--check", "--out", str(out_path), "--html", str(html_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "report inputs: OK" in out
        golden = os.path.join(self.FIXTURES, "report.md")
        with open(golden, encoding="utf-8") as handle:
            assert out_path.read_text() == handle.read()
        assert html_path.read_text().startswith("<!doctype html>")

    def test_stdout_rendering_without_out(self, capsys):
        code = main(
            ["report",
             "--metrics", os.path.join(self.FIXTURES, "metrics.json")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# repro run report")
        assert "## Protocol metrics" in out

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        code = main(
            ["report", "--metrics", str(tmp_path / "missing.json")]
        )
        assert code == 2
        assert "repro report:" in capsys.readouterr().err


class TestLedger:
    def test_identical_logs_and_exit_zero(self, capsys):
        code = main(
            ["ledger", "--queues", "a+b;a;a+b;a", "--slots", "2",
             "--kappa", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "forked   : False" in out
        assert out.count("'a'") >= 4  # committed at every replica

    def test_local_proposer_policy(self, capsys):
        code = main(
            ["ledger", "--queues", "x;x;x;x", "--slots", "1",
             "--proposer", "local", "--kappa", "4"]
        )
        assert code == 0
        assert "'x'" in capsys.readouterr().out


class TestCheck:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["check"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_select_and_json(self, tmp_path, capsys):
        artifact = tmp_path / "report.json"
        assert main(["check", "--select", "LAY", "--json", str(artifact)]) == 0
        import json

        payload = json.loads(artifact.read_text())
        assert payload["rules"] == ["LAY201", "LAY202"]
        assert payload["ok"] is True

    def test_unknown_selector_exits_2(self, capsys):
        # API, SER and OBS were families once; their contracts are
        # runtime checks now, so selecting them is a typo like any other.
        for selector in ("NOPE", "API", "SER", "OBS"):
            assert main(["check", "--select", selector]) == 2
            assert "unknown rule selector" in capsys.readouterr().err

    def test_list_rules_catalogue(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET101", "DET201", "LAY201", "SUP901"):
            assert rule_id in out
        # One line per rule plus its fix; DET106 (numpy's global RNG)
        # went with numpy; VEC501–504, SER301–302, API401–404 and
        # OBS601–603 became runtime checks.
        ids = [line.split()[0] for line in out.splitlines() if line[:1].isalpha()]
        assert len(ids) == 12
        assert {rule_id[:3] for rule_id in ids} == {"DET", "LAY", "SUP"}

    def test_docs_catalogue_lists_exactly_the_rules(self, capsys):
        """docs/static-analysis.md's rule tables and ``--list-rules``
        name the same ids: a rule added, renamed or deleted on one side
        only fails here."""
        assert main(["check", "--list-rules"]) == 0
        listed = {
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line[:1].isalpha()
        }
        docs = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "docs", "static-analysis.md",
        )
        with open(docs, encoding="utf-8") as handle:
            documented = set(re.findall(r"^\| ([A-Z]{3}\d{3}) \|", handle.read(), re.M))
        assert documented == listed
        assert len(listed) == 12


class TestParser:
    def test_bad_int_list_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--inputs", "1,x,0"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestErgonomics:
    """The CLI ergonomics contract (see `main`'s docstring)."""

    SUBCOMMANDS = (
        "run", "trace", "compare", "tables", "error-sweep", "report",
        "check", "ledger",
    )

    def test_help_lists_every_subcommand_with_a_summary(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in self.SUBCOMMANDS:
            assert name in out, f"--help must list {name!r}"
        # One-line summaries ride along, not just the bare names.
        assert "execute one protocol" in out
        assert "static analysis" in out

    def test_bare_invocation_prints_overview_and_exits_2(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        for name in self.SUBCOMMANDS:
            assert name in err

    def test_unknown_subcommand_exits_2_and_names_the_available_set(
        self, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'frobnicate'" in err
        for name in ("run", "error-sweep", "check"):
            assert name in err
