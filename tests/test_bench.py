"""Tests for the repro.bench harness, counter gate, and CLI."""

import json

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.harness import (
    BenchResult,
    ScenarioResult,
    append_history,
    compare_counters,
    load_result,
    machine_fingerprint,
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
            "sweep_batch",
            "sweep_indep",
            "trace_gen",
        }
        for scenario in SCENARIOS.values():
            assert scenario.quick_refs < scenario.full_refs

    def test_sweep_pair_shares_refs_geometry(self):
        """The batch/independent pair must stay comparable: same sizes,
        so one bench file always reports an apples-to-apples ratio."""
        batch, indep = SCENARIOS["sweep_batch"], SCENARIOS["sweep_indep"]
        assert batch.full_refs == indep.full_refs
        assert batch.quick_refs == indep.quick_refs

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


def _result_with(counters, work_items=100, name="cache_hit_micro"):
    result = BenchResult(label="x", mode="quick", repeat=1, warmup=0)
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


class TestHistory:
    def test_machine_fingerprint_fields(self):
        fingerprint = machine_fingerprint()
        assert set(fingerprint) == {
            "platform", "machine", "processor", "python", "implementation",
            "cpu_count",
        }
        assert isinstance(fingerprint["cpu_count"], int)
        assert all(
            isinstance(v, str) for k, v in fingerprint.items() if k != "cpu_count"
        )

    def test_append_history_record_shape(self, tmp_path):
        result = _result_with({"hits": 100, "misses": 0})
        path = append_history(result, tmp_path / "h.jsonl")
        record = json.loads(path.read_text())
        assert record["label"] == "x"
        assert record["mode"] == "quick"
        assert record["machine"] == machine_fingerprint()
        scen = record["scenarios"]["cache_hit_micro"]
        assert scen["work_items"] == 100
        assert scen["wall_seconds_median"] == 0.1
        # ISO-8601 UTC timestamp, to the second.
        assert record["timestamp"].endswith("+00:00")


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

    def test_append_history_writes_jsonl(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        for label in ("a", "b"):
            rc = bench_main(
                self.ARGS
                + ["--label", label, "--out-dir", str(tmp_path)]
                + ["--append-history", str(history)]
            )
            assert rc == 0
        assert "appended history record" in capsys.readouterr().out
        lines = history.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert [r["label"] for r in records] == ["a", "b"]
        for record in records:
            assert record["mode"] == "quick"
            assert record["machine"] == machine_fingerprint()
            scen = record["scenarios"]["cache_hit_micro"]
            assert scen["wall_seconds_median"] > 0
            assert scen["items_per_second"] > 0

    def test_append_history_unwritable_path_fails_cleanly(self, tmp_path, capsys):
        blocked = tmp_path / "file"
        blocked.write_text("not a directory")
        rc = bench_main(
            self.ARGS
            + ["--label", "a", "--out-dir", str(tmp_path)]
            + ["--append-history", str(blocked / "sub" / "history.jsonl")]
        )
        assert rc == 2
        assert "cannot append history" in capsys.readouterr().err

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
