"""The fused run report renders deterministically and gates schemas.

The golden fixture under ``fixtures/`` pins the exact markdown for a
committed (metrics, telemetry) pair — regenerate via
``PYTHONPATH=src python tests/obs/fixtures/make_fixtures.py`` only when
the report format intentionally changes, and review the diff.  Profile
sections are exercised against freshly generated ``cProfile`` dumps
instead (their timings are inherently machine-dependent, so they stay
out of the golden).
"""

import cProfile
import json
import os

import pytest

from repro.obs import (
    ObsFormatError,
    build_report,
    check_report,
    load_metrics_artifact,
    load_profile_summary,
    load_report_inputs,
    render_html,
    summarize_telemetry,
)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def _fixture_inputs():
    metrics = load_metrics_artifact(os.path.join(FIXTURES, "metrics.json"))
    telemetry = summarize_telemetry(os.path.join(FIXTURES, "telemetry.jsonl"))
    return metrics, telemetry


class TestGoldenRendering:
    def test_matches_committed_golden_byte_for_byte(self):
        metrics, telemetry = _fixture_inputs()
        rendered = build_report(metrics=metrics, telemetry=telemetry)
        with open(os.path.join(FIXTURES, "report.md"), encoding="utf-8") as handle:
            golden = handle.read()
        assert rendered == golden

    def test_rendering_is_deterministic(self):
        metrics, telemetry = _fixture_inputs()
        first = build_report(metrics=metrics, telemetry=telemetry)
        second = build_report(metrics=metrics, telemetry=telemetry)
        assert first == second

    def test_sections_render_only_for_provided_inputs(self):
        metrics, _ = _fixture_inputs()
        report = build_report(metrics=metrics)
        assert "## Protocol metrics" in report
        assert "## Engine telemetry" not in report

    def test_empty_report_still_renders(self):
        report = build_report()
        assert report.startswith("# repro run report")
        assert "Inputs: none." in report


class TestProfileSection:
    def _profile_dir(self, tmp_path):
        path = str(tmp_path / "prof")
        os.makedirs(path)
        profiler = cProfile.Profile()
        profiler.enable()
        sum(i * i for i in range(200_000))
        profiler.disable()
        profiler.dump_stats(os.path.join(path, "chunk-00000.pstats"))
        return path

    def test_summary_shape_and_order(self, tmp_path):
        summary = load_profile_summary(self._profile_dir(tmp_path))
        assert summary["files"] == 1
        assert summary["total_seconds"] >= 0
        own = [f["own_seconds"] for f in summary["functions"]]
        assert own == sorted(own, reverse=True)
        assert len(summary["functions"]) <= 10

    def test_empty_directory_returns_none(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert load_profile_summary(str(empty)) is None

    def test_attribution_rendered_against_busy_seconds(self, tmp_path):
        profile = load_profile_summary(self._profile_dir(tmp_path))
        telemetry = {
            "schema": "repro-telemetry/1", "records": 1, "runs": [],
            "pooled_runs": 0, "consistent": True, "fallback_reasons": {},
            "unknown_types": {}, "profiles": [], "chunks": 1,
            "busy_seconds": max(profile["total_seconds"], 1e-6),
            "payload_bytes": 0, "trials": 1, "setup_seconds": 0.0,
            "probe_cache_hits": 0,
            "probe_cache_misses": 0, "profile_seconds": 0.0,
        }
        report = build_report(telemetry=telemetry, profile=profile)
        assert "## Profile" in report
        assert "of telemetry busy time attributed" in report

    @pytest.mark.parametrize("damage", ["empty", "garbage", "truncated"])
    def test_a_dump_that_does_not_load_exits_2_naming_it(
        self, tmp_path, capsys, damage
    ):
        from repro.cli import main

        path = self._profile_dir(tmp_path)
        dump = os.path.join(path, "chunk-00000.pstats")
        with open(dump, "rb") as handle:
            data = handle.read()
        blobs = {
            "empty": b"",
            "garbage": b"not a profile\n",
            "truncated": data[: len(data) // 2],
        }
        bad = os.path.join(path, "chunk-00001.pstats")
        with open(bad, "wb") as handle:
            handle.write(blobs[damage])
        with pytest.raises(ObsFormatError, match="00001.pstats: not a cProfile dump"):
            load_profile_summary(path)
        assert main(["report", "--profile", path]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: not a cProfile dump" in err and "Traceback" not in err


class TestCheckReport:
    def test_clean_fixtures_pass(self):
        metrics, telemetry = _fixture_inputs()
        assert check_report(metrics=metrics, telemetry=telemetry) == []

    def test_bad_metrics_schema_is_a_violation(self):
        metrics, _ = _fixture_inputs()
        metrics = dict(metrics)
        metrics["schema"] = "repro-metrics/99"
        violations = check_report(metrics=metrics)
        assert any("schema" in v for v in violations)

    def test_inconsistent_telemetry_is_a_violation(self):
        _, telemetry = _fixture_inputs()
        telemetry = dict(telemetry)
        telemetry["consistent"] = False
        assert any(
            "consistent" in v for v in check_report(telemetry=telemetry)
        )


class TestHtml:
    def test_wraps_and_escapes(self):
        markdown = "# title\n\n<script>alert(1)</script>\n"
        page = render_html(markdown)
        assert page.startswith("<!doctype html>")
        assert "<script>alert(1)</script>" not in page
        assert "&lt;script&gt;" in page

    def test_html_is_deterministic(self):
        metrics, telemetry = _fixture_inputs()
        markdown = build_report(metrics=metrics, telemetry=telemetry)
        assert render_html(markdown) == render_html(markdown)


class TestLoadReportInputs:
    def test_telemetry_directory_resolves_to_jsonl(self):
        inputs = load_report_inputs(telemetry_path=FIXTURES)
        assert inputs["telemetry"]["records"] == 8

    def test_missing_profile_dir_raises(self, tmp_path):
        with pytest.raises(ObsFormatError, match="profile"):
            load_report_inputs(profile_dir=str(tmp_path / "nope"))


def _variants(data, substitutes):
    """``(what, blob)``: every proper prefix of ``data``, then ``data``
    with each byte in turn replaced by each of ``substitutes`` that
    differs from it."""
    for end in range(len(data)):
        yield f"the first {end} bytes", data[:end]
    for at, byte in enumerate(data):
        for substitute in substitutes:
            if substitute != byte:
                blob = data[:at] + bytes([substitute]) + data[at + 1:]
                yield f"byte {at} set to {substitute:#04x}", blob


class TestReportFuzz:
    """``repro report --check`` over every prefix and every single-byte
    corruption of the committed fixtures exits 0 or 2, never raises.

    The telemetry fixture is corrupted with five bytes: NUL, a quote, a
    brace, a byte that is never UTF-8 (0xFF) and a digit.  The metrics
    fixture is 15x larger and gets only the two that can leave it valid
    JSON — the digit (a number stays one, a key or name is renamed) and
    the brace (inside a string) — because NUL and 0xFF can never decode
    and a quote could only land on a whitespace byte, which the telemetry
    pass already covers."""

    CASES = {
        "telemetry.jsonl": ("--telemetry", b"\x00\x22\x7b\xff\x39"),
        "metrics.json": ("--metrics", b"\x39\x7b"),
    }

    # A renamed span type is skipped with a warning, by design.
    @pytest.mark.filterwarnings("ignore:.*unknown telemetry type")
    @pytest.mark.parametrize("fixture", sorted(CASES))
    def test_every_prefix_and_corruption_exits_0_or_2(
        self, fixture, tmp_path, monkeypatch
    ):
        import io
        import sys

        from repro import cli

        flag, substitutes = self.CASES[fixture]
        with open(os.path.join(FIXTURES, fixture), "rb") as handle:
            data = handle.read()
        path = str(tmp_path / fixture)
        # What `cli.main` does after parsing, without re-building the
        # parser for every one of ~35k variants.
        args = cli.build_parser().parse_args(["report", flag, path, "--check"])
        sink = io.StringIO()
        monkeypatch.setattr(sys, "stdout", sink)
        monkeypatch.setattr(sys, "stderr", sink)
        exits = {0: 0, 2: 0}
        with open(path, "wb") as handle:
            for what, blob in _variants(data, substitutes):
                handle.seek(0)
                handle.write(blob)
                handle.truncate()
                handle.flush()
                try:
                    code = args.handler(args)
                except Exception as error:  # pragma: no cover - the failure
                    pytest.fail(f"{type(error).__name__}: {error} on {what}")
                assert code in exits, f"exit {code} on {what}"
                exits[code] += 1
                sink.seek(0)
                sink.truncate()
        # Both outcomes happen: the loop reached the renderer, not only
        # the JSON parser.
        assert exits[0] and exits[2], exits

    def test_every_leaf_substitution_exits_0_or_2_and_bad_counts_exit_2(
        self, tmp_path, monkeypatch
    ):
        """Each leaf of the metrics fixture, in turn, set to each of
        ``-1, "x", 1.5, true, null, [], {}``: ``repro report --check``
        never raises, and exits 2 on every change under ``counters`` or
        ``histograms`` — none of the substitutes is an int >= 0 that
        keeps a histogram whole."""
        import io
        import sys

        from repro import cli

        with open(os.path.join(FIXTURES, "metrics.json"), encoding="utf-8") as handle:
            document = json.load(handle)
        spans = []
        text = _encode(document, (), 0, spans)
        assert json.loads(text) == document and len(spans) == 450
        path = str(tmp_path / "metrics.json")
        args = cli.build_parser().parse_args(["report", "--metrics", path, "--check"])
        sink = io.StringIO()
        monkeypatch.setattr(sys, "stdout", sink)
        monkeypatch.setattr(sys, "stderr", sink)
        exits = {0: 0, 2: 0}
        with open(path, "w", encoding="utf-8") as handle:
            for where, start, end in spans:
                for substitute in ('-1', '"x"', '1.5', 'true', 'null', '[]', '{}'):
                    if substitute == text[start:end]:
                        continue
                    handle.seek(0)
                    handle.write(text[:start] + substitute + text[end:])
                    handle.truncate()
                    handle.flush()
                    try:
                        code = args.handler(args)
                    except Exception as error:  # pragma: no cover - the failure
                        pytest.fail(f"{type(error).__name__}: {error} at {where}")
                    sink.seek(0)
                    sink.truncate()
                    if "counters" in where or "histograms" in where:
                        assert code == 2, (where, substitute)
                    assert code in exits, (code, where, substitute)
                    exits[code] += 1
        assert exits[0] and exits[2], exits


def _encode(node, where, at, spans):
    """``node`` as compact JSON that starts at offset ``at`` of the
    document, appending ``(key path, start, end)`` of every leaf to
    ``spans``."""
    if not isinstance(node, (dict, list)):
        text = json.dumps(node)
        spans.append((where, at, at + len(text)))
        return text
    is_object = isinstance(node, dict)
    text = "{" if is_object else "["
    children = node.items() if is_object else enumerate(node)
    for index, (key, child) in enumerate(children):
        text += ("," if index else "") + (json.dumps(key) + ":" if is_object else "")
        text += _encode(child, (*where, key), at + len(text), spans)
    return text + ("}" if is_object else "]")
