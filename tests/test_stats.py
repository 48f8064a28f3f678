"""Unit tests for repro.core.stats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.stats import (
    CacheStats,
    DRAMClassStats,
    SimStats,
    harmonic_mean,
    load_points,
    main,
    merge_stats,
)

GOLDEN = Path(__file__).parent / "golden" / "tiny_stats.json"
SRC = Path(__file__).resolve().parent.parent / "src"


class TestHarmonicMean:
    def test_single_value(self):
        assert harmonic_mean([2.0]) == pytest.approx(2.0)

    def test_known_value(self):
        assert harmonic_mean([1.0, 2.0]) == pytest.approx(4.0 / 3.0)

    def test_dominated_by_small_values(self):
        assert harmonic_mean([0.1, 10.0]) < 0.25

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            harmonic_mean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])


class TestCacheStats:
    def test_miss_rate(self):
        stats = CacheStats(accesses=10, hits=7, misses=3)
        assert stats.miss_rate == pytest.approx(0.3)
        assert stats.hit_rate == pytest.approx(0.7)

    def test_empty_rates(self):
        assert CacheStats().miss_rate == 0.0
        assert CacheStats().hit_rate == 0.0

    def test_merge(self):
        a = CacheStats(accesses=10, hits=7, misses=3)
        b = CacheStats(accesses=5, hits=1, misses=4)
        a.merge(b)
        assert a.accesses == 15
        assert a.misses == 7


class TestDRAMClassStats:
    def test_row_hit_rate(self):
        stats = DRAMClassStats(accesses=4, row_hits=3, row_misses=1)
        assert stats.row_hit_rate == pytest.approx(0.75)

    def test_empty_rate(self):
        assert DRAMClassStats().row_hit_rate == 0.0


class TestSimStats:
    def test_ipc(self):
        stats = SimStats(instructions=100, cycles=50.0)
        assert stats.ipc == pytest.approx(2.0)

    def test_ipc_zero_cycles(self):
        assert SimStats().ipc == 0.0

    def test_l2_miss_rate_counts_demand_fetches(self):
        stats = SimStats()
        stats.l2.accesses = 10
        stats.l2_demand_fetches = 4
        assert stats.l2_miss_rate == pytest.approx(0.4)

    def test_avg_l2_miss_latency(self):
        stats = SimStats(l2_demand_fetches=2, l2_miss_latency_sum=300.0)
        assert stats.avg_l2_miss_latency == pytest.approx(150.0)

    def test_utilizations_capped_at_one(self):
        stats = SimStats(cycles=10.0, row_bus_busy=8.0, col_bus_busy=8.0, data_bus_busy=20.0)
        assert stats.command_channel_utilization == 1.0
        assert stats.data_channel_utilization == 1.0

    def test_prefetch_accuracy(self):
        stats = SimStats(prefetches_issued=10, prefetches_useful=4)
        assert stats.prefetch_accuracy == pytest.approx(0.4)
        assert SimStats().prefetch_accuracy == 0.0

    def test_overall_row_hit_rate_combines_classes(self):
        stats = SimStats()
        stats.dram_reads = DRAMClassStats(accesses=2, row_hits=2)
        stats.dram_writebacks = DRAMClassStats(accesses=2, row_hits=0, row_misses=2)
        assert stats.overall_row_hit_rate == pytest.approx(0.5)

    def test_summary_keys(self):
        summary = SimStats().summary()
        for key in ("ipc", "l2_miss_rate", "command_utilization", "prefetch_accuracy"):
            assert key in summary

    def test_reset_zeroes_everything_in_place(self):
        stats = SimStats(instructions=5, cycles=10.0)
        stats.l2.accesses = 3
        stats.dram_reads.row_hits = 2
        l2_ref = stats.l2
        stats.reset()
        assert stats.instructions == 0
        assert stats.cycles == 0.0
        assert stats.l2.accesses == 0
        assert stats.dram_reads.row_hits == 0
        assert stats.l2 is l2_ref  # identity preserved for shared references

    def test_merge_accumulates(self):
        a = SimStats(instructions=10, cycles=5.0)
        b = SimStats(instructions=20, cycles=5.0)
        a.merge(b)
        assert a.instructions == 30
        assert a.cycles == 10.0

    def test_merge_stats_helper(self):
        runs = [SimStats(instructions=1, cycles=1.0) for _ in range(3)]
        total = merge_stats(runs)
        assert total.instructions == 3


def _populated_stats() -> SimStats:
    """A SimStats with every field (nested included) made distinctive."""
    import dataclasses

    stats = SimStats()
    value = 3
    for field in dataclasses.fields(SimStats):
        current = getattr(stats, field.name)
        if isinstance(current, (CacheStats, DRAMClassStats)):
            for sub in dataclasses.fields(current):
                setattr(current, sub.name, value)
                value += 1
        elif isinstance(current, float):
            # awkward floats exercise exact (repr-based) round-trip
            setattr(stats, field.name, value + 0.1 + 0.2)
            value += 1
        elif isinstance(current, int):
            setattr(stats, field.name, value)
            value += 1
    return stats


class TestSerialization:
    def test_round_trip_is_exact(self):
        import dataclasses
        import json

        stats = _populated_stats()
        payload = json.loads(json.dumps(stats.to_dict()))
        restored = SimStats.from_dict(payload)
        for field in dataclasses.fields(SimStats):
            a = getattr(stats, field.name)
            b = getattr(restored, field.name)
            if isinstance(a, (CacheStats, DRAMClassStats)):
                assert a.to_dict() == b.to_dict(), field.name
            else:
                assert a == b, field.name

    def test_to_dict_nests_components(self):
        d = SimStats().to_dict()
        assert isinstance(d["l2"], dict)
        assert isinstance(d["dram_reads"], dict)
        assert "row_hits" in d["dram_reads"]

    def test_from_dict_ignores_unknown_keys(self):
        d = SimStats(instructions=7).to_dict()
        d["not_a_field"] = 1
        d["l2"]["bogus"] = 2
        assert SimStats.from_dict(d).instructions == 7

    def test_from_dict_defaults_missing_keys(self):
        stats = SimStats.from_dict({"instructions": 9})
        assert stats.instructions == 9
        assert stats.cycles == 0.0
        assert stats.l2.accesses == 0

    def test_mshr_stall_fields_exist(self):
        stats = SimStats(l1d_mshr_stalls=4, l1i_mshr_stalls=2)
        summary = stats.summary()
        assert summary["l1d_mshr_stalls"] == 4
        assert summary["l1i_mshr_stalls"] == 2
        restored = SimStats.from_dict(stats.to_dict())
        assert restored.l1d_mshr_stalls == 4
        assert restored.l1i_mshr_stalls == 2


class TestDiff:
    """``python -m repro.core.stats diff A.json B.json``."""

    def test_identical_golden_files_exit_0(self, capsys):
        assert main(["diff", str(GOLDEN), str(GOLDEN)]) == 0
        points = len(load_points(GOLDEN))
        assert capsys.readouterr().out == f"{points} identical, 0 changed\n"

    def test_one_field_change_is_reported(self, tmp_path, capsys):
        golden = json.loads(GOLDEN.read_text())
        golden["baseline"]["mcf"]["l2"]["misses"] += 1
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(golden))
        assert main(["diff", str(GOLDEN), str(changed)]) == 1
        misses = golden["baseline"]["mcf"]["l2"]["misses"]
        assert capsys.readouterr().out.splitlines() == [
            "baseline/mcf: 1 field(s) changed",
            f"  l2.misses: {misses - 1} -> {misses} "
            f"({100 / (misses - 1):+.3g}%)",
            f"{len(load_points(GOLDEN)) - 1} identical, 1 changed",
        ]

    def test_changed_derived_metrics_follow_the_fields(self, tmp_path, capsys):
        golden = json.loads(GOLDEN.read_text())
        golden["prefetch"]["swim"]["cycles"] *= 2
        golden["prefetch"]["swim"]["dram_prefetches"]["row_hits"] += 1
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(golden))
        assert main(["diff", str(GOLDEN), str(changed)]) == 1
        names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert names == [
            "prefetch/swim",
            "  cycles",
            "  dram_prefetches.row_hits",
            "  ipc (derived)",
            "  overall_row_hit_rate (derived)",
            f"{len(load_points(GOLDEN)) - 1} identical, 1 changed",
        ]

    def test_a_point_on_one_side_only_counts_as_changed(self, tmp_path, capsys):
        golden = json.loads(GOLDEN.read_text())
        del golden["baseline"]["eon"]
        fewer = tmp_path / "fewer.json"
        fewer.write_text(json.dumps(golden))
        assert main(["diff", str(GOLDEN), str(fewer)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "baseline/eon: only in A",
            f"{len(load_points(GOLDEN)) - 1} identical, 1 changed",
        ]

    def test_reads_golden_and_single_stats_files(self, tmp_path):
        golden = json.loads(GOLDEN.read_text())
        points = load_points(GOLDEN)
        assert points["prefetch/swim"] == golden["prefetch"]["swim"]
        assert len(points) == sum(len(golden[s]) for s in golden["configs"])
        single = tmp_path / "stats.json"
        single.write_text(json.dumps(SimStats(instructions=7, cycles=2.0).to_dict()))
        assert load_points(single)["stats"]["instructions"] == 7

    def test_single_stats_files_diff(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(SimStats(instructions=8, cycles=4.0).to_dict()))
        b.write_text(json.dumps(SimStats(instructions=8, cycles=5.0).to_dict()))
        assert main(["diff", str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "stats: 1 field(s) changed",
            "  cycles: 4.0 -> 5.0 (+25%)",
            "  ipc (derived): 2.0 -> 1.6 (-20%)",
            "0 identical, 1 changed",
        ]

    def test_rejects_a_file_with_no_statistics(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"configs": {"baseline": "ab"}}))
        with pytest.raises(SystemExit) as exit_info:
            main(["diff", str(bogus), str(GOLDEN)])
        assert exit_info.value.code == 2

    def test_runs_as_a_module(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-m", "repro.core.stats", "diff", str(GOLDEN), str(GOLDEN)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.endswith(" identical, 0 changed\n")
