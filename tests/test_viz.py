"""Tests for the terminal line chart."""

import pytest

from repro.viz import line_chart


class TestLineChart:
    def test_single_series_shape(self):
        chart = line_chart({"y": [1, 2, 3, 4, 5]}, width=20, height=6)
        lines = chart.splitlines()
        assert len(lines) == 7  # 6 canvas rows + legend
        assert "y" in lines[-1]
        assert "5" in lines[0]  # max label on top

    def test_multiple_series_use_distinct_marks(self):
        chart = line_chart({"a": [1, 2], "b": [2, 1]}, width=10, height=4)
        assert "* a" in chart
        assert "o b" in chart

    def test_log_scale(self):
        chart = line_chart({"y": [1, 10, 100]}, width=10, height=4, logy=True)
        assert "100" in chart

    def test_log_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            line_chart({"y": [0, 1]}, logy=True)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            line_chart({"a": [1, 2], "b": [1]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart({})
        with pytest.raises(ValueError):
            line_chart({"a": []})
