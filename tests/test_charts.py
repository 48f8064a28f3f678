"""Tests for the ASCII chart helpers."""

import pytest

from repro.experiments.charts import figure1_chart, hbar, stacked_bars
from repro.experiments.figure1 import Figure1Row


class TestHBar:
    def test_full_and_empty(self):
        assert hbar(10, 10, width=8) == "#" * 8
        assert hbar(0, 10, width=8) == ""

    def test_half(self):
        assert hbar(5, 10, width=8) == "#" * 4

    def test_clamps_overflow(self):
        assert hbar(20, 10, width=8) == "#" * 8
        assert hbar(-3, 10, width=8) == ""

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            hbar(1, 0)
        with pytest.raises(ValueError):
            hbar(1, 1, width=0)


class TestStackedBars:
    def test_renders_all_rows(self):
        text = stacked_bars([("a", 1.0, 4.0), ("bb", 2.0, 4.0)])
        assert "a " in text and "bb" in text
        assert "#" in text and "." in text

    def test_inner_never_exceeds_outer_visually(self):
        text = stacked_bars([("x", 5.0, 4.0)])  # inner clamped
        bar = text.splitlines()[0].split("|")[1]
        assert "." not in bar.rstrip(".")[len(bar.rstrip('.')):]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            stacked_bars([])


class TestFigureCharts:
    def test_figure1_chart(self):
        rows = [
            Figure1Row("mcf", ipc_real=0.1, ipc_perfect_l2=2.0, ipc_perfect_mem=4.0),
            Figure1Row("eon", ipc_real=2.5, ipc_perfect_l2=2.6, ipc_perfect_mem=4.0),
        ]
        text = figure1_chart(rows)
        assert "mcf" in text and "eon" in text
        assert "perfect memory" in text
