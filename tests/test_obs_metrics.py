"""Tests for the service metrics registry and Prometheus exposition.

The golden tests pin the exposition text exactly — the format is a
wire contract with external scrapers, so a formatting drift is a real
break even when every number is right.  The validator tests exercise
``validate_exposition`` as both a guard (the smoke command trusts it)
and a parser (it must reject what Prometheus would reject).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    render_prometheus,
    validate_exposition,
)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_counter_inc_and_set_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        counter.set_total(10.0)
        assert counter.value == 10.0

    def test_counter_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec(4.0)
        assert gauge.value == 3.0

    def test_histogram_summary_and_cumulative_buckets(self):
        hist = MetricsRegistry().histogram("h_seconds")
        for value in (0.001, 0.002, 0.004, 0.008, 1.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 5
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        buckets = hist.buckets()
        counts = [cumulative for _, cumulative in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert buckets[-1][1] == 5

    def test_histogram_sum_tracks_observations(self):
        hist = MetricsRegistry().histogram("h_seconds")
        hist.observe(0.25)
        hist.observe(0.75)
        assert hist.sum == pytest.approx(1.0)
        assert hist.count == 2

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")


# ---------------------------------------------------------------------------
# families and labels
# ---------------------------------------------------------------------------


class TestFamilies:
    def test_labeled_children_are_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("req_total", labelnames=("route",))
        a = family.labels(route="/a")
        assert family.labels(route="/a") is a
        a.inc()
        family.labels(route="/b").inc(2)
        rendered = registry.render_prometheus()
        assert 'req_total{route="/a"} 1' in rendered
        assert 'req_total{route="/b"} 2' in rendered

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("path",)).labels(
            path='a"b\\c\nd'
        ).inc()
        rendered = registry.render_prometheus()
        assert 'path="a\\"b\\\\c\\nd"' in rendered
        assert validate_exposition(rendered) == []

    def test_unlabeled_family_renders_even_when_untouched(self):
        # a scraper must see declared families at zero, not have them
        # pop into existence on first increment.
        registry = MetricsRegistry()
        registry.counter("quiet_total", "never incremented")
        rendered = registry.render_prometheus()
        assert "# TYPE quiet_total counter" in rendered
        assert "quiet_total 0" in rendered

    def test_callback_runs_at_render_with_registry(self):
        registry = MetricsRegistry()
        counter = registry.counter("mirrored_total")
        seen = []

        def mirror(reg):
            seen.append(reg)
            counter.set_total(42.0)

        registry.register_callback(mirror)
        rendered = registry.render_prometheus()
        assert seen == [registry]
        assert "mirrored_total 42" in rendered


# ---------------------------------------------------------------------------
# golden exposition
# ---------------------------------------------------------------------------


class TestGoldenExposition:
    def test_counter_and_gauge_exposition_is_exact(self):
        registry = MetricsRegistry()
        registry.counter("repro_points_total", "points simulated").inc(7)
        registry.gauge("repro_queue_depth", "queued jobs").set(3)
        assert registry.render_prometheus() == (
            "# HELP repro_points_total points simulated\n"
            "# TYPE repro_points_total counter\n"
            "repro_points_total 7\n"
            "# HELP repro_queue_depth queued jobs\n"
            "# TYPE repro_queue_depth gauge\n"
            "repro_queue_depth 3\n"
        )

    def test_histogram_exposition_shape(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_wait_seconds", "queue wait")
        hist.observe(0.5)
        lines = registry.render_prometheus().splitlines()
        assert lines[0] == "# HELP repro_wait_seconds queue wait"
        assert lines[1] == "# TYPE repro_wait_seconds histogram"
        bucket_lines = [l for l in lines if l.startswith("repro_wait_seconds_bucket")]
        assert bucket_lines[-1] == 'repro_wait_seconds_bucket{le="+Inf"} 1'
        assert lines[-2].startswith("repro_wait_seconds_sum ")
        assert lines[-1] == "repro_wait_seconds_count 1"
        # the +Inf bucket and _count must agree — scrapers join on it.
        assert bucket_lines[-1].rsplit(" ", 1)[1] == lines[-1].rsplit(" ", 1)[1]

    def test_render_is_deterministic_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z_total").inc()
        registry.counter("a_total").inc()
        first = render_prometheus(registry)
        assert first == registry.render_prometheus()
        assert first.index("# TYPE a_total") < first.index("# TYPE z_total")


# ---------------------------------------------------------------------------
# validator
# ---------------------------------------------------------------------------


class TestValidator:
    def test_valid_registry_output_passes(self):
        registry = MetricsRegistry()
        registry.counter("ok_total").inc()
        registry.histogram("lat_seconds").observe(0.1)
        registry.gauge("depth", labelnames=("state",)).labels(state="queued").set(2)
        assert validate_exposition(registry.render_prometheus()) == []

    def test_expected_family_must_carry_samples(self):
        problems = validate_exposition(
            "# TYPE lonely counter\n", expect_families=["lonely"]
        )
        assert any("lonely" in p for p in problems)

    def test_missing_expected_family_flagged(self):
        problems = validate_exposition(
            "# TYPE a_total counter\na_total 1\n",
            expect_families=["a_total", "b_total"],
        )
        assert any("b_total" in p for p in problems)

    def test_undeclared_sample_flagged(self):
        problems = validate_exposition("mystery_total 5\n")
        assert any("TYPE" in p for p in problems)

    def test_negative_counter_flagged(self):
        problems = validate_exposition(
            "# TYPE bad_total counter\nbad_total -1\n"
        )
        assert any("negative" in p.lower() for p in problems)

    def test_non_cumulative_histogram_flagged(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 1\n"
            "h_count 5\n"
        )
        problems = validate_exposition(text)
        assert any("cumulative" in p.lower() for p in problems)

    def test_histogram_missing_inf_bucket_flagged(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        problems = validate_exposition(text)
        assert any("+Inf" in p for p in problems)

    def test_count_disagreeing_with_inf_flagged(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 1\n"
            "h_count 4\n"
        )
        problems = validate_exposition(text)
        assert problems

    def test_garbage_line_flagged(self):
        problems = validate_exposition("# TYPE a counter\nthis is not a sample\n")
        assert problems

    def test_runs_as_a_module(self, tmp_path):
        """``python -m repro.obs.metrics FILE`` validates a file, and runs
        clean with runpy's warning as an error."""
        registry = MetricsRegistry()
        registry.counter("repro_demo_total", "Demo.").inc(3)
        good, bad = tmp_path / "good.prom", tmp_path / "bad.prom"
        good.write_text(render_prometheus(registry))
        bad.write_text("# TYPE a counter\nthis is not a sample\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        runs = [
            subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.obs.metrics", str(path)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            for path in (good, bad)
        ]
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[0].stdout == f"{good}: OK (1 metric families)\n"
        assert runs[0].stderr == ""
        assert runs[1].returncode == 1
        assert "INVALID exposition" in runs[1].stderr

    def test_special_values_parse(self):
        assert math.isinf(float("inf"))
        text = (
            "# TYPE g gauge\n"
            "g +Inf\n"
        )
        assert validate_exposition(text) == []
