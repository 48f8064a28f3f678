"""A/B guarantees: observability must never change simulation results.

Also covers the runner's observe mode, the JSONL run log, and the
``--version`` flags of both CLIs.
"""

import json

import pytest

from repro.core.config import SystemConfig
from repro.core.system import System
from repro.obs import JsonlSink, Observer, ObsSession
from repro.runner import Runner, SimPoint
from repro.workloads import build_trace
from repro.workloads.registry import build_warmup_trace


def _run(config, benchmark, refs, obs=None):
    system = System(config, obs=obs)
    system.warmup(build_warmup_trace(benchmark, l2_bytes=config.l2.size_bytes))
    return system.run(build_trace(benchmark, refs))


class TestStatsAB:
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_stats_byte_identical_with_observer(self, prefetch):
        config = SystemConfig()
        if prefetch:
            config = config.with_prefetch(enabled=True)
        plain = _run(config, "swim", 6_000)
        obs = Observer(label="ab", pid=1)
        observed = _run(config, "swim", 6_000, obs=obs)
        assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
            observed.to_dict(), sort_keys=True
        )
        # and the observer actually saw the run
        assert any(e.get("ph") != "M" for e in obs.trace.events)

    def test_metrics_only_observer_matches_too(self):
        config = SystemConfig().with_prefetch(enabled=True)
        plain = _run(config, "mcf", 4_000)
        obs = Observer(label="metrics", trace=False)
        observed = _run(config, "mcf", 4_000, obs=obs)
        assert obs.trace is None
        assert plain.to_dict() == observed.to_dict()
        assert obs.hists  # histograms recorded without tracing


class TestRunnerObserveMode:
    def _point(self):
        return SimPoint(
            benchmark="swim",
            config=SystemConfig().with_prefetch(enabled=True),
            memory_refs=4_000,
            seed=0,
        )

    def test_observed_stats_equal_plain_stats(self, tmp_path):
        point = self._point()
        plain = Runner(jobs=1, cache_dir=None).run_point(point)
        session = ObsSession(
            trace_path=tmp_path / "trace.json", metrics_path=tmp_path / "metrics.json"
        )
        observed = Runner(jobs=1, cache_dir=None, observe=session).run_point(point)
        assert plain.to_dict() == observed.to_dict()
        written = session.close()
        assert len(written) == 2
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert any(e.get("ph") != "M" for e in payload["traceEvents"])
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert len(metrics["points"]) == 1
        assert metrics["points"][0]["key"] == point.cache_key()

    def test_observe_skips_cache_reads_but_still_writes(self, tmp_path):
        point = self._point()
        cache_dir = tmp_path / "cache"
        # Populate the on-disk cache.
        first = Runner(jobs=1, cache_dir=cache_dir)
        first.run_point(point)
        assert first.simulated == 1
        # A warm cache would normally serve the point without simulating
        # — which would leave the trace empty.  Observe mode re-simulates.
        session = ObsSession(trace_path=tmp_path / "trace.json")
        second = Runner(jobs=1, cache_dir=cache_dir, observe=session)
        second.run_point(point)
        assert second.disk_hits == 0
        assert second.simulated == 1
        session.close()
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert any(e.get("ph") != "M" for e in payload["traceEvents"])

    def test_observe_forces_inline_execution(self, tmp_path):
        """jobs>1 with observe still resolves every point (inline)."""
        session = ObsSession(trace_path=tmp_path / "trace.json")
        runner = Runner(jobs=4, cache_dir=None, observe=session)
        configs = [SystemConfig(), SystemConfig().with_prefetch(enabled=True)]
        points = [
            SimPoint(benchmark="swim", config=cfg, memory_refs=3_000, seed=0)
            for cfg in configs
        ]
        stats = runner.run_points(points)
        assert len(stats) == 2
        assert runner.simulated == 2
        session.close()
        metrics_free = json.loads((tmp_path / "trace.json").read_text())
        pids = {e["pid"] for e in metrics_free["traceEvents"]}
        assert len(pids) == 2  # one trace process per point


class TestRunLog:
    def test_lifecycle_records(self, tmp_path):
        point = SimPoint(
            benchmark="gzip", config=SystemConfig(), memory_refs=2_000, seed=0
        )
        log_path = tmp_path / "run.jsonl"
        sink = JsonlSink(log_path)
        runner = Runner(jobs=1, cache_dir=None, run_log=sink)
        runner.run_point(point)
        sink.close()
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        events = [r["event"] for r in records]
        assert events == ["point-started", "point-completed"]
        for record in records:
            assert record["label"] == point.label()
            assert record["key"] == point.cache_key()
            assert record["attempt"] == 0
            assert isinstance(record["ts"], float)
        assert records[-1]["duration"] > 0

    def test_retry_records(self, tmp_path):
        """A crashing first attempt leaves point-retried in the log."""
        from repro.runner.faults import FaultPlan, FaultSpec, set_fault_plan

        point = SimPoint(
            benchmark="gzip", config=SystemConfig(), memory_refs=2_000, seed=0
        )
        set_fault_plan(
            FaultPlan([FaultSpec(match="gzip", fault="raise", attempts=(0,))])
        )
        log_path = tmp_path / "run.jsonl"
        sink = JsonlSink(log_path)
        runner = Runner(
            jobs=1, cache_dir=None, run_log=sink, max_retries=2, retry_backoff=0.0
        )
        try:
            runner.run_point(point)
        finally:
            sink.close()
            set_fault_plan(None)
        events = [
            json.loads(line)["event"] for line in log_path.read_text().splitlines()
        ]
        assert events == [
            "point-started",
            "point-retried",
            "point-started",
            "point-completed",
        ]


class TestVersionFlags:
    def test_experiment_cli_version(self, capsys):
        from repro import __version__
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out
