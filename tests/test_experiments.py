"""Tests of the experiment harnesses on micro profiles.

Each harness must run, render, and expose the fields DESIGN.md's
experiment index promises.  Micro profiles keep these fast; magnitude
checks live in the benchmarks and EXPERIMENTS.md.
"""

import pytest

from repro.experiments import cli, common
from repro.experiments import (
    cache_size,
    figure1,
    figure5,
    latency_sensitivity,
    mapping,
    region_size,
    software_prefetch,
    table1,
    table2,
    table3,
    table4,
    utilization,
)

MICRO = common.Profile("micro", memory_refs=1500, benchmarks=("swim", "twolf", "eon"))
MICRO_WIN = common.Profile("microw", memory_refs=1500, benchmarks=("swim", "gap"))


class TestCommon:
    def test_profiles_registered(self):
        assert set(common.PROFILES) == {"tiny", "quick", "full"}

    def test_active_profile_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "tiny")
        assert common.active_profile().name == "tiny"
        monkeypatch.setenv("REPRO_PROFILE", "nope")
        with pytest.raises(KeyError):
            common.active_profile()

    def test_speedup(self):
        assert common.speedup(1.16, 1.0) == pytest.approx(0.16)
        with pytest.raises(ValueError):
            common.speedup(1.0, 0.0)

    def test_format_table(self):
        text = common.format_table(["a", "b"], [[1, 2.5]], title="T")
        assert "T" in text and "2.500" in text

    def test_trace_memo_reuses(self):
        a = common.get_traces("swim", MICRO)
        b = common.get_traces("swim", MICRO)
        assert a[1] is b[1]

    def test_run_suite(self):
        out = common.run_suite(
            __import__("repro").presets.xor_4ch_64b(), MICRO, benchmarks=("eon",)
        )
        assert set(out) == {"eon"}


class TestFigure1:
    def test_runs_and_orders_rows(self):
        result = figure1.run(MICRO)
        fractions = [r.l2_stall_fraction for r in result.rows]
        assert fractions == sorted(fractions, reverse=True)
        assert 0 <= result.mean_l2_stall_fraction <= 1
        assert "Figure 1" in figure1.render(result)

    def test_row_fraction_identity(self):
        result = figure1.run(MICRO)
        for row in result.rows:
            assert row.l1_stall_fraction == pytest.approx(
                row.memory_stall_fraction - row.l2_stall_fraction
            )


class TestTable1:
    def test_points_within_sweep(self):
        result = table1.run(MICRO, block_sizes=(64, 256, 1024))
        for row in result.rows:
            assert row.performance_point in (64, 256, 1024)
            assert row.pollution_point in (64, 256, 1024)
        assert result.suite_performance_point in (64, 256, 1024)
        assert "Table 1" in table1.render(result)


class TestTable2:
    def test_grid_complete(self):
        result = table2.run(MICRO, channels=(4, 8), blocks=(64, 256))
        assert set(result.mean_ipc) == {(4, 64), (4, 256), (8, 64), (8, 256)}
        assert result.best_block(4) in (64, 256)
        assert "Table 2" in table2.render(result)


class TestMapping:
    def test_fields(self):
        result = mapping.run(MICRO)
        assert len(result.rows) == 3
        assert -1.0 < result.mean_speedup < 10.0
        assert "XOR" in mapping.render(result) or "xor" in mapping.render(result)


class TestTable3:
    def test_classes_and_priorities(self):
        result = table3.run(MICRO)
        assert ("high", "mru") in result.mean_ipc
        assert ("low", "lru") in result.mean_ipc
        assert result.speedup_vs_mru("high", "mru") == 0.0
        assert "Table 3" in table3.render(result)


class TestTable4:
    def test_schemes_present(self):
        result = table4.run(MICRO)
        for scheme in table4.SCHEMES:
            assert scheme in result.miss_rate
            assert scheme in result.normalized_ipc
        assert result.normalized_ipc["base"] == 1.0
        assert "Table 4" in table4.render(result)

    def test_unscheduled_worst_latency(self):
        result = table4.run(MICRO)
        assert result.miss_latency["fifo_prefetch"] > result.miss_latency["base"]


class TestFigure5:
    def test_targets_and_counters(self):
        result = figure5.run(MICRO_WIN)
        for target in figure5.TARGETS:
            assert (result.benchmarks[0], target) in result.ipc
        assert 0 <= result.pf4_beats_8ch_count <= len(result.benchmarks)
        assert "Figure 5" in figure5.render(result)


class TestRegionSize:
    def test_sweep(self):
        result = region_size.run(MICRO_WIN, region_sizes=(1024, 4096))
        assert result.best_region in (1024, 4096)
        assert "region" in region_size.render(result)


class TestUtilization:
    def test_means(self):
        result = utilization.run(MICRO)
        assert 0 <= result.mean_cmd_base <= 1
        assert result.mean_cmd_pf >= 0
        assert "utilization" in utilization.render(result)


class TestCacheSize:
    def test_sweep(self):
        result = cache_size.run(MICRO, sizes_mb=(1, 4))
        assert (1, False) in result.mean_ipc
        assert result.baseline_speedup(4) > -0.5
        assert "L2" in cache_size.render(result)


class TestLatencySensitivity:
    def test_parts(self):
        result = latency_sensitivity.run(MICRO)
        assert len(result.labels) == 3
        assert result.gain_spread >= 0
        assert "latency" in latency_sensitivity.render(result).lower()


class TestSoftwarePrefetch:
    def test_rows(self):
        result = software_prefetch.run(MICRO, benchmarks=("swim",))
        row = result.row("swim")
        assert row.ipc_base > 0
        assert "software" in software_prefetch.render(result).lower()


class TestCLI:
    def test_registry_covers_design_index(self):
        expected = {
            "figure1", "table1", "table2", "mapping", "table3", "table4",
            "figure5", "region-size", "utilization", "cache-size",
            "latency-sensitivity", "software-prefetch", "backend-compare",
        }
        assert set(cli.EXPERIMENTS) == expected

    def test_cli_runs_one(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(
            common, "PROFILES", dict(common.PROFILES, tiny=MICRO), raising=True
        )
        # Private result cache and trace store: the defaults live under
        # ~/.cache/repro, which a test must neither fill nor read back.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "traces"))
        # run via profile objects directly: use the real tiny but patched
        assert cli.main(["mapping", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "mapping" in out or "XOR" in out or "xor" in out


class TestCLIFaultTolerance:
    """The fault-tolerance knobs and exit codes of repro-experiment."""

    @staticmethod
    def _stub(monkeypatch, run):
        import types

        module = types.SimpleNamespace(run=run, render=lambda result: "stub-table")
        monkeypatch.setattr(cli.importlib, "import_module", lambda name: module)

    def test_fault_flags_reach_the_runner(self, monkeypatch, capsys):
        from repro.runner import get_runner

        seen = {}

        def run(profile):
            runner = get_runner()
            seen.update(
                timeout=runner.timeout,
                retries=runner.max_retries,
                keep=runner.keep_going,
            )

        self._stub(monkeypatch, run)
        assert (
            cli.main(
                [
                    "mapping",
                    "--no-cache",
                    "--job-timeout",
                    "9",
                    "--max-retries",
                    "7",
                    "--keep-going",
                ]
            )
            == 0
        )
        assert seen == {"timeout": 9.0, "retries": 7, "keep": True}
        capsys.readouterr()

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def run(profile):
            raise KeyboardInterrupt()

        self._stub(monkeypatch, run)
        assert cli.main(["mapping", "--no-cache"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err

    def test_point_failure_exits_1_with_report(self, monkeypatch, capsys):
        from repro.runner import FailureRecord, PointFailureError, get_runner

        def run(profile):
            record = FailureRecord(
                label="mcf cfg=deadbeef refs=1500 seed=0",
                key="k",
                kind="timeout",
                attempt=2,
                message="exceeded the 300s watchdog",
                fatal=True,
            )
            get_runner().failures.append(record)
            raise PointFailureError([record])

        self._stub(monkeypatch, run)
        assert cli.main(["mapping", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "failed permanently" in err
        assert "--keep-going" in err
        assert "timeout" in err

    def test_config_error_exits_2(self, monkeypatch, capsys):
        from repro.core.config import ConfigError

        def run(profile):
            raise ConfigError("l2: cache size must be a power of two, got 999")

        self._stub(monkeypatch, run)
        assert cli.main(["mapping", "--no-cache"]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_rejects_bad_flag_values(self):
        with pytest.raises(SystemExit):
            cli.main(["mapping", "--job-timeout", "0"])
        with pytest.raises(SystemExit):
            cli.main(["mapping", "--max-retries", "-1"])

    def test_keep_going_renders_from_surviving_points(self, capsys, monkeypatch):
        """End to end: a permanently failing point still yields tables."""
        from repro.runner import FaultPlan, FaultSpec, set_fault_plan

        monkeypatch.setattr(
            common, "PROFILES", dict(common.PROFILES, tiny=MICRO), raising=True
        )
        set_fault_plan(
            FaultPlan(
                [FaultSpec(match="swim", fault="raise", attempts=tuple(range(8)))]
            )
        )
        try:
            code = cli.main(
                [
                    "mapping",
                    "--profile",
                    "tiny",
                    "--no-cache",
                    "--keep-going",
                    "--max-retries",
                    "0",
                ]
            )
        finally:
            set_fault_plan(None)
        captured = capsys.readouterr()
        assert code == 0
        # surviving benchmarks rendered, the dead one shows as '-'
        assert "twolf" in captured.out
        assert "-" in captured.out
        assert "gave up" in captured.err
