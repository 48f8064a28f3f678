"""Tests for the repro.runner subsystem and the MSHR-stall plumbing.

The determinism tests are the contract the experiment CLI relies on:
whatever path a point takes — inline serial execution, a process-pool
worker, the in-memory memo, or a cold read from the on-disk cache —
the resulting ``SimStats`` must be identical field by field.
"""

import dataclasses
import json

import pytest

from repro.core.config import SystemConfig
from repro.core.presets import xor_4ch_64b
from repro.core.report import format_report
from repro.core.stats import SimStats
from repro.core.system import simulate
from repro.runner import ResultCache, Runner, SimPoint
from repro.runner.worker import get_traces
from repro.workloads import build_trace

REFS = 1_500
BENCHMARKS = ("mcf", "swim")


def make_points(benchmarks=BENCHMARKS, config=None, refs=REFS):
    config = config or xor_4ch_64b()
    return [
        SimPoint(benchmark=name, config=config, memory_refs=refs, seed=0)
        for name in benchmarks
    ]


def assert_stats_equal(a: SimStats, b: SimStats):
    for field in dataclasses.fields(SimStats):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if dataclasses.is_dataclass(va):
            assert dataclasses.asdict(va) == dataclasses.asdict(vb), field.name
        else:
            assert va == vb, field.name


class TestRunnerDeterminism:
    def test_serial_matches_direct_simulation(self):
        points = make_points()
        results = Runner(jobs=1, cache_dir=None).run_points(points)
        for point, got in zip(points, results):
            warm, main = get_traces(
                point.benchmark, point.memory_refs, point.seed,
                point.config.l2.size_bytes,
            )
            expected = simulate(main, point.config, warmup_trace=warm)
            assert_stats_equal(got, expected)

    def test_parallel_matches_serial(self):
        points = make_points()
        serial = Runner(jobs=1, cache_dir=None).run_points(points)
        parallel = Runner(jobs=4, cache_dir=None).run_points(points)
        for a, b in zip(serial, parallel):
            assert_stats_equal(a, b)

    def test_disk_cached_matches_fresh(self, tmp_path):
        points = make_points()
        fresh = Runner(jobs=1, cache_dir=None).run_points(points)
        writer = Runner(jobs=1, cache_dir=tmp_path / "cache")
        writer.run_points(points)
        assert writer.simulated == len(points)
        reader = Runner(jobs=1, cache_dir=tmp_path / "cache")
        cached = reader.run_points(points)
        assert reader.simulated == 0
        assert reader.disk_hits == len(points)
        for a, b in zip(fresh, cached):
            assert_stats_equal(a, b)

    def test_results_keep_submission_order(self):
        points = make_points()
        results = Runner(jobs=1, cache_dir=None).run_points(points + points[::-1])
        assert_stats_equal(results[0], results[3])
        assert_stats_equal(results[1], results[2])


class TestTraceGrouping:
    def test_dispatch_groups_by_trace_but_results_keep_input_order(
        self, monkeypatch
    ):
        """Pending points are dispatched grouped by trace recipe (so the
        per-process trace/compile/warm-state memos hit), while the
        returned results still follow the caller's order."""
        from repro.runner import runner as runner_module

        executed = []

        def fake_execute(point, attempt=0, **kwargs):
            executed.append((point.benchmark, point.seed))
            stats = SimStats()
            stats.instructions = len(executed)  # stamp execution order
            return stats.to_dict(), 0.0

        monkeypatch.setattr(runner_module, "execute_point", fake_execute)
        config = xor_4ch_64b()
        points = [
            SimPoint(benchmark=name, config=config, memory_refs=REFS, seed=seed)
            for name, seed in (
                ("swim", 0), ("mcf", 0), ("swim", 1), ("mcf", 1),
            )
        ]
        results = Runner(jobs=1, cache_dir=None).run_points(points)
        # dispatch order: grouped by benchmark (each group shares traces)
        assert executed == [("mcf", 0), ("mcf", 1), ("swim", 0), ("swim", 1)]
        # result order: exactly the caller's
        order = [int(r.instructions) for r in results]
        assert order == [3, 1, 4, 2]


class TestTraceMemoThreads:
    """The service simulates on a thread pool, so the per-process trace
    memo is shared state: its check-build-insert must not race."""

    @staticmethod
    def _race(target, threads=4):
        """Run ``target`` on more threads than cores, switching often."""
        import sys
        import threading

        errors = []

        def guarded():
            try:
                target()
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        workers = [threading.Thread(target=guarded) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []

    def test_concurrent_callers_of_one_key_build_once(self, tmp_path, monkeypatch):
        import time

        from repro.runner import worker

        builds = []
        build = worker._build_traces

        def slow_build(*args):
            builds.append(args)
            time.sleep(0.2)  # hold the window between miss and insert open
            return build(*args)

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        monkeypatch.setattr(worker, "_TRACE_MEMO", {})
        monkeypatch.setattr(worker, "_build_traces", slow_build)
        results = []
        self._race(lambda: results.append(get_traces("gzip", 300, 0, 1 << 20)))
        assert len(builds) == 1
        assert len(results) == 4
        assert all(main is results[0][1] for _, main in results)

    def test_concurrent_evictions_keep_the_memo_bounded(self, monkeypatch):
        import itertools
        import time

        from repro.runner import worker

        def quick_build(*args):
            time.sleep(0.001)  # a build yields the interpreter lock
            return (), args

        memo = {("seed", i, 0, 0): ((), i) for i in range(worker._TRACE_MEMO_LIMIT)}
        monkeypatch.setattr(worker, "_TRACE_MEMO", memo)
        monkeypatch.setattr(worker, "_build_traces", quick_build)
        refs = itertools.count(1)

        def insert_many():
            for _ in range(50):
                get_traces("swim", next(refs), 0, 0)  # a new key: evicts

        self._race(insert_many)
        assert len(memo) == worker._TRACE_MEMO_LIMIT


class TestRunnerDedup:
    def test_duplicate_points_simulate_once(self):
        points = make_points(("mcf", "mcf", "mcf"))
        runner = Runner(jobs=1, cache_dir=None)
        results = runner.run_points(points)
        assert runner.simulated == 1
        assert runner.reused == 2
        assert_stats_equal(results[0], results[1])
        assert_stats_equal(results[0], results[2])

    def test_memo_survives_across_batches(self):
        runner = Runner(jobs=1, cache_dir=None)
        runner.run_points(make_points(("mcf",)))
        runner.run_points(make_points(("mcf",)))
        assert runner.simulated == 1
        assert runner.reused == 1

    def test_job_log_records_only_real_simulations(self):
        runner = Runner(jobs=1, cache_dir=None)
        runner.run_points(make_points(("mcf", "mcf")))
        assert len(runner.job_log) == 1
        assert runner.job_log[0].wall_seconds > 0


class TestSimPointKeys:
    def test_key_is_stable(self):
        a = make_points(("mcf",))[0]
        b = make_points(("mcf",))[0]
        assert a.cache_key() == b.cache_key()

    @pytest.mark.parametrize(
        "mutation",
        [
            dict(benchmark="swim"),
            dict(memory_refs=REFS + 1),
            dict(seed=1),
            dict(config=xor_4ch_64b().with_block_size(128)),
        ],
    )
    def test_key_tracks_every_input(self, mutation):
        base = make_points(("mcf",))[0]
        changed = dataclasses.replace(base, **mutation)
        assert base.cache_key() != changed.cache_key()

    def test_config_digest_is_content_addressed(self):
        assert xor_4ch_64b().digest() == xor_4ch_64b().digest()
        assert xor_4ch_64b().digest() != xor_4ch_64b().with_channels(8).digest()
        # equal field values hash equal even across distinct instances
        assert SystemConfig().digest() == xor_4ch_64b().digest()


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        payload = {"stats": {"instructions": 3}, "wall_seconds": 0.5}
        cache.put("ab" + "0" * 62, payload)
        assert cache.get("ab" + "0" * 62) == payload
        assert ("ab" + "0" * 62) in cache
        assert len(cache) == 1

    def test_missing_key_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get("ff" + "0" * 62) is None
        assert ("ff" + "0" * 62) not in cache

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = "cd" + "0" * 62
        cache.put(key, {"x": 1})
        path = tmp_path / "c" / key[:2] / f"{key}.json"
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_membership_means_readable_payload(self, tmp_path):
        """A torn entry that get() treats as a miss must not count as
        present: ``in`` and ``len`` agree with ``get``, so "key in
        cache" can never promise a payload that then fails to load."""
        cache = ResultCache(tmp_path / "c")
        good, torn = "ab" + "0" * 62, "cd" + "0" * 62
        cache.put(good, {"x": 1})
        cache.put(torn, {"stats": {"instructions": 3}})
        path = tmp_path / "c" / torn[:2] / f"{torn}.json"
        # tear the file mid-payload, as a crash between write and
        # replace on a non-atomic filesystem would.
        path.write_text(path.read_text(encoding="utf-8")[:12], encoding="utf-8")
        assert cache.get(torn) is None
        assert torn not in cache
        assert good in cache
        assert len(cache) == 1
        # the torn entry is overwritten by the next store and counts again
        cache.put(torn, {"x": 2})
        assert torn in cache
        assert len(cache) == 2

    def test_clear_empties_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("ee" + "0" * 62, {"x": 1})
        cache.clear()
        assert len(cache) == 0
        assert cache.get("ee" + "0" * 62) is None


class TestMSHRStallPlumbing:
    """The structural-stall counters must reach SimStats and the report."""

    def test_tiny_mshr_file_records_stalls(self):
        base = xor_4ch_64b()
        starved = dataclasses.replace(
            base, l1d=dataclasses.replace(base.l1d, mshrs=1)
        )
        trace = build_trace("mcf", 4_000)
        stats = simulate(trace, starved)
        assert stats.l1d_mshr_stalls > 0

    def test_more_mshrs_stall_less(self):
        base = xor_4ch_64b()
        trace = build_trace("mcf", 4_000)
        stalls = []
        for entries in (1, base.l1d.mshrs):
            config = dataclasses.replace(
                base, l1d=dataclasses.replace(base.l1d, mshrs=entries)
            )
            stalls.append(simulate(trace, config).l1d_mshr_stalls)
        assert stalls[0] > stalls[1]

    def test_report_surfaces_stalls(self):
        stats = SimStats(l1d_mshr_stalls=12, l1i_mshr_stalls=3)
        text = format_report(stats)
        assert "MSHR stalls" in text
        assert "12" in text and "3" in text

    def test_stalls_round_trip_through_runner_cache(self, tmp_path):
        base = xor_4ch_64b()
        starved = dataclasses.replace(
            base, l1d=dataclasses.replace(base.l1d, mshrs=1)
        )
        points = [SimPoint("mcf", starved, memory_refs=2_000, seed=0)]
        writer = Runner(jobs=1, cache_dir=tmp_path / "c")
        fresh = writer.run_points(points)[0]
        cached = Runner(jobs=1, cache_dir=tmp_path / "c").run_points(points)[0]
        assert fresh.l1d_mshr_stalls > 0
        assert cached.l1d_mshr_stalls == fresh.l1d_mshr_stalls


class TestCachePayload:
    def test_payload_is_json_with_provenance(self, tmp_path):
        points = make_points(("mcf",), refs=1_200)
        runner = Runner(jobs=1, cache_dir=tmp_path / "c")
        runner.run_points(points)
        key = points[0].cache_key()
        path = tmp_path / "c" / key[:2] / f"{key}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["benchmark"] == "mcf"
        assert payload["config_digest"] == points[0].config.digest()
        assert payload["memory_refs"] == 1_200
        assert "stats" in payload and "wall_seconds" in payload


def _trace_sha256(name, refs):
    import hashlib

    trace = build_trace(name, refs)
    digest = hashlib.sha256()
    for column in (trace.kinds, trace.gaps, trace.addrs, trace.deps, trace.pcs):
        digest.update(column.tobytes())
    return digest.hexdigest()


class TestCrossProcessDeterminism:
    def test_trace_identical_in_fresh_interpreter(self):
        """Traces must not depend on per-process interpreter state.

        Regression test: trace seeding used ``hash(name)``, which is
        salted per interpreter process, so every CLI invocation (and
        every spawn-context pool worker) simulated different workloads
        — defeating the on-disk result cache and cross-run determinism.
        A spawn-context child gets a fresh hash salt, so agreement here
        means the seed derivation is process-independent.
        """
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(_trace_sha256, ("mcf", 1_500))
        assert child == _trace_sha256("mcf", 1_500)
