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
        summary = load_profile_summary(self._profile_dir(tmp_path), top=5)
        assert summary["files"] == 1
        assert summary["total_seconds"] >= 0
        own = [f["own_seconds"] for f in summary["functions"]]
        assert own == sorted(own, reverse=True)
        assert len(summary["functions"]) <= 5

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
            "adaptive_rounds": 0, "probe_cache_hits": 0,
            "probe_cache_misses": 0, "profile_seconds": 0.0,
        }
        report = build_report(telemetry=telemetry, profile=profile)
        assert "## Profile" in report
        assert "of telemetry busy time attributed" in report


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
