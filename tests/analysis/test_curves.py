"""Tests for the ASCII curve renderers."""

from repro.analysis.curves import log_sparkline, sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series_is_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_monotone_series_is_monotone(self):
        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert line == "".join(sorted(line))
        assert line[0] == "▁" and line[-1] == "█"

    def test_length_preserved(self):
        assert len(sparkline(range(17))) == 17


class TestLogSparkline:
    def test_exponential_decay_renders_linear(self):
        values = [2.0 ** -k for k in range(1, 9)]
        line = log_sparkline(values)
        # strictly decreasing blocks (log-linear)
        assert line == "".join(sorted(line, reverse=True))

    def test_zero_clamps_to_floor(self):
        line = log_sparkline([0.5, 0.0])
        assert len(line) == 2
        assert line[1] == "▁"

