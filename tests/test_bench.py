"""Tests for the repro.bench harness, counter gate, and CLI."""

import json

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.harness import (
    BenchResult,
    ScenarioResult,
    compare_counters,
    load_result,
    run_benchmarks,
    write_result,
)
from repro.bench.scenarios import SCENARIOS, _stats_counters, time_scenario
from repro.core.config import SystemConfig
from repro.core.system import simulate
from repro.runner.worker import get_traces


class TestScenarios:
    def test_registry_names(self):
        assert set(SCENARIOS) == {
            "cache_hit_micro",
            "hot_cache",
            "dram_bound",
            "prefetch_heavy",
            "trace_gen",
        }
        for scenario in SCENARIOS.values():
            assert scenario.quick_refs < scenario.full_refs

    def test_cache_micro_counters_are_exact(self):
        seconds, work, counters = time_scenario(SCENARIOS["cache_hit_micro"], 5_000)
        assert seconds > 0
        assert work == 5_000
        # Every access after the fill pass hits; fills don't count.
        assert counters == {
            "accesses": 5_000,
            "hits": 5_000,
            "misses": 0,
            "evictions": 0,
        }

    def test_trace_gen_counters_are_deterministic(self):
        _, _, first = time_scenario(SCENARIOS["trace_gen"], 2_000)
        _, _, second = time_scenario(SCENARIOS["trace_gen"], 2_000)
        assert first == second
        assert first["trace_records"] >= 2_000
        assert first["warmup_records"] > 0


class TestScenarioBackends:
    """``repro-bench --backend B`` builds every scenario config against B
    (it sets ``REPRO_BACKEND``); the full-system scenarios must run on
    every backend and count exactly what the reference kernel counts."""

    @pytest.mark.parametrize("backend", ("tldram", "chargecache", "ddr"))
    @pytest.mark.parametrize(
        "name,workload,prefetch",
        [
            ("hot_cache", "eon", False),
            ("dram_bound", "mcf", False),
            ("prefetch_heavy", "swim", True),
        ],
    )
    def test_full_system_scenario_matches_reference(
        self, monkeypatch, backend, name, workload, prefetch
    ):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        refs = 1_000
        _, work, counters = time_scenario(SCENARIOS[name], refs)
        config = SystemConfig().with_prefetch(enabled=prefetch)
        assert config.dram.backend == backend
        warm, main = get_traces(workload, refs, 0, config.l2.size_bytes)
        reference = simulate(main, config, warmup_trace=warm, fast=False)
        assert work == refs
        assert counters == _stats_counters(reference)


class TestHarness:
    def test_run_benchmarks_repeats_and_median(self):
        result = run_benchmarks(
            "t", quick=True, repeat=3, warmup=0,
            scenarios=["cache_hit_micro"], progress=False,
        )
        assert result.mode == "quick"
        sres = result.scenarios["cache_hit_micro"]
        assert len(sres.wall_seconds) == 3
        assert sres.wall_seconds_median > 0
        assert sres.items_per_second > 0
        assert sres.counters["hits"] == sres.work_items

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            run_benchmarks("t", scenarios=["nope"], progress=False)

    def test_bad_repeat_rejected(self):
        with pytest.raises(ValueError):
            run_benchmarks("t", repeat=0, progress=False)

    def test_write_and_load_roundtrip(self, tmp_path):
        result = run_benchmarks(
            "t", quick=True, repeat=1, warmup=0,
            scenarios=["cache_hit_micro"], progress=False,
        )
        path = write_result(result, tmp_path / "BENCH_t.json")
        data = load_result(path)
        assert data["label"] == "t"
        assert data["repeat"] == 1
        scen = data["scenarios"]["cache_hit_micro"]
        assert scen["counters"] == result.scenarios["cache_hit_micro"].counters
        assert len(scen["wall_seconds"]) == 1


def _result_with(counters, work_items=100, name="cache_hit_micro", backend="drdram"):
    result = BenchResult(label="x", mode="quick", repeat=1, warmup=0, backend=backend)
    result.scenarios[name] = ScenarioResult(
        name=name, description="d", work_items=work_items,
        wall_seconds=[0.1], counters=dict(counters),
    )
    return result


class TestCompareCounters:
    BASE = {
        "scenarios": {
            "cache_hit_micro": {
                "work_items": 100,
                "counters": {"hits": 100, "misses": 0},
            }
        }
    }

    def test_identical_passes(self):
        current = _result_with({"hits": 100, "misses": 0})
        assert compare_counters(current, self.BASE) == []

    def test_drifted_counter_reported(self):
        current = _result_with({"hits": 99, "misses": 1})
        problems = compare_counters(current, self.BASE)
        assert len(problems) == 2
        assert any("hits" in p for p in problems)
        assert any("misses" in p for p in problems)

    def test_extra_counter_reported(self):
        current = _result_with({"hits": 100, "misses": 0, "evictions": 3})
        problems = compare_counters(current, self.BASE)
        assert len(problems) == 1
        assert "evictions" in problems[0]

    def test_missing_scenario_reported(self):
        current = BenchResult(label="x", mode="quick", repeat=1, warmup=0)
        problems = compare_counters(current, self.BASE)
        assert problems == ["cache_hit_micro: scenario missing from the current run"]

    def test_work_item_mismatch_skips_counter_compare(self):
        current = _result_with({"hits": 12, "misses": 0}, work_items=12)
        problems = compare_counters(current, self.BASE)
        assert len(problems) == 1
        assert "work_items differ" in problems[0]

    def test_wall_clock_never_compared(self):
        baseline = json.loads(json.dumps(self.BASE))
        baseline["scenarios"]["cache_hit_micro"]["wall_seconds_median"] = 1e9
        current = _result_with({"hits": 100, "misses": 0})
        assert compare_counters(current, baseline) == []

    def test_backend_mismatch_is_one_problem_naming_both(self):
        """A baseline without a backend is a drdram baseline; a run on
        another backend is one mismatch, not a drift of every counter."""
        current = _result_with({"hits": 99, "misses": 1}, backend="ddr")
        assert compare_counters(current, self.BASE) == [
            "backend differs (baseline 'drdram', current 'ddr'); "
            "counters compare within one backend"
        ]
        baseline = dict(self.BASE, backend="ddr")
        assert compare_counters(current, baseline) == [
            "cache_hit_micro: counter 'hits' drifted (baseline 100, current 99)",
            "cache_hit_micro: counter 'misses' drifted (baseline 0, current 1)",
        ]


class TestCli:
    ARGS = ["--quick", "--repeat", "1", "--warmup", "0", "--scenario", "cache_hit_micro"]

    def test_writes_labelled_output(self, tmp_path, capsys):
        rc = bench_main(self.ARGS + ["--label", "ci", "--out-dir", str(tmp_path)])
        assert rc == 0
        data = load_result(tmp_path / "BENCH_ci.json")
        assert data["label"] == "ci"
        assert "cache_hit_micro" in data["scenarios"]
        assert "wrote" in capsys.readouterr().out

    def test_check_passes_against_own_output(self, tmp_path, capsys):
        assert bench_main(self.ARGS + ["--label", "a", "--out-dir", str(tmp_path)]) == 0
        rc = bench_main(
            self.ARGS
            + ["--label", "b", "--out-dir", str(tmp_path)]
            + ["--check", str(tmp_path / "BENCH_a.json")]
        )
        assert rc == 0
        assert "counters match baseline" in capsys.readouterr().out

    def test_check_fails_on_counter_drift(self, tmp_path, capsys):
        assert bench_main(self.ARGS + ["--label", "a", "--out-dir", str(tmp_path)]) == 0
        baseline_path = tmp_path / "BENCH_a.json"
        data = load_result(baseline_path)
        data["scenarios"]["cache_hit_micro"]["counters"]["hits"] += 1
        baseline_path.write_text(json.dumps(data))
        rc = bench_main(
            self.ARGS
            + ["--label", "b", "--out-dir", str(tmp_path)]
            + ["--check", str(baseline_path)]
        )
        assert rc == 1
        assert "drifted" in capsys.readouterr().err

    def test_check_unloadable_baseline(self, tmp_path, capsys):
        rc = bench_main(
            self.ARGS
            + ["--label", "a", "--out-dir", str(tmp_path)]
            + ["--check", str(tmp_path / "missing.json")]
        )
        assert rc == 2
        assert "cannot load baseline" in capsys.readouterr().err

    def test_committed_ci_baseline_matches_quick_geometry(self):
        """The committed CI baseline must stay in sync with the scenarios."""
        from pathlib import Path

        data = load_result(
            Path(__file__).parent.parent / "benchmarks" / "bench_baseline.json"
        )
        assert data["mode"] == "quick"
        for name, scenario in SCENARIOS.items():
            assert name in data["scenarios"]
            # trace_gen reports records built (>= refs requested); the
            # system scenarios report exactly their reference count.
            assert data["scenarios"][name]["work_items"] >= scenario.quick_refs
