"""Fault-injection harness + runner fault-tolerance tests.

Two things are under test here.  First, the harness itself
(:mod:`repro.runner.faults`): plans parse, match deterministically, and
reach pool workers through the environment.  Second — and the reason
the harness exists — every recovery path of the fault-tolerant runner,
proven end to end: watchdog timeout → kill → retry → success, worker
death → pool rebuild → (second death) → inline fallback, cache write
error → cache-off degradation, permanent failure → ``keep_going``
salvage, and Ctrl-C → no orphan workers, completed results retained.

The load-bearing assertion throughout: statistics produced *through* an
injected-then-recovered fault are field-identical to a fault-free
serial run, and tables rendered from them are byte-identical.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.core.presets import xor_4ch_64b
from repro.core.stats import SimStats
from repro.experiments.common import format_table
from repro.runner import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    PointFailureError,
    Runner,
    SimPoint,
    get_fault_plan,
    placeholder_stats,
    set_fault_plan,
)
from repro.runner import faults as faults_mod
from repro.runner import runner as runner_mod
from repro.runner.pool import kill_executor
from repro.runner.runner import backoff_delay
from repro.runner.worker import execute_point

REFS = 1_200
SUITE = ("swim", "mcf", "twolf", "eon", "facerec", "parser")
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: a runner process whose two pool workers outlive it unless they watch it:
#: swim's worker goes idle, mcf's sleeps in a planned hang.
_POOLED_RUNNER = (
    "from repro.core.config import SystemConfig\n"
    "from repro.runner import Runner, SimPoint\n"
    "points = [SimPoint(name, SystemConfig(), 500, 0) for name in ('swim', 'mcf')]\n"
    "Runner(jobs=2, cache_dir=None, timeout=0).run_points(points)\n"
)


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    """Every test starts and ends with no active plan."""
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def _ignore_sigterm_then_sleep(ready):
    """Pool task: become a worker that only ``SIGKILL`` stops."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    Path(ready).touch()
    time.sleep(60)


def _children(pid):
    """The child processes of process ``pid``, from every thread."""
    children = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            children.extend(int(c) for c in (task / "children").read_text().split())
        except FileNotFoundError:
            continue
    return children


def _alive(pid):
    """Whether process ``pid`` still runs (a zombie or a reaped one does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def make_points(benchmarks=SUITE, refs=REFS):
    config = xor_4ch_64b()
    return [
        SimPoint(benchmark=name, config=config, memory_refs=refs, seed=0)
        for name in benchmarks
    ]


def assert_stats_equal(a: SimStats, b: SimStats):
    assert a.to_dict() == b.to_dict()


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial results for the 6-benchmark suite."""
    set_fault_plan(None)
    return Runner(jobs=1, cache_dir=None).run_points(make_points())


# -- the harness itself ------------------------------------------------------


class TestFaultSpec:
    def test_rejects_unknown_fault(self):
        with pytest.raises(ValueError):
            FaultSpec(match="mcf", fault="meltdown")

    def test_rejects_empty_match_and_attempts(self):
        with pytest.raises(ValueError):
            FaultSpec(match="", fault="raise")
        with pytest.raises(ValueError):
            FaultSpec(match="mcf", fault="raise", attempts=())
        with pytest.raises(ValueError):
            FaultSpec(match="mcf", fault="raise", attempts=(-1,))

    def test_applies_is_pure_label_and_attempt(self):
        spec = FaultSpec(match="mcf", fault="raise", attempts=(0, 2))
        assert spec.applies("mcf cfg=abc refs=100 seed=0", 0)
        assert not spec.applies("mcf cfg=abc refs=100 seed=0", 1)
        assert spec.applies("mcf cfg=abc refs=100 seed=0", 2)
        assert not spec.applies("swim cfg=abc refs=100 seed=0", 0)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            [
                FaultSpec(match="mcf", fault="hang", attempts=(0, 1), hang_seconds=9.0),
                FaultSpec(match="swim", fault="cache-io"),
            ]
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert [s.to_dict() for s in restored] == [s.to_dict() for s in plan]

    def test_rejects_non_list_json(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json('{"match": "mcf"}')

    def test_find_filters_by_kind(self):
        plan = FaultPlan(
            [
                FaultSpec(match="mcf", fault="cache-io"),
                FaultSpec(match="mcf", fault="raise"),
            ]
        )
        assert plan.find("mcf x", 0).fault == "cache-io"
        assert plan.find("mcf x", 0, kinds=("raise",)).fault == "raise"
        assert plan.find("mcf x", 0, kinds=("hang",)) is None

    def test_set_and_get_via_environment(self):
        plan = FaultPlan([FaultSpec(match="mcf", fault="raise")])
        set_fault_plan(plan)
        assert os.environ[faults_mod.ENV_FAULT_PLAN] == plan.to_json()
        active = get_fault_plan()
        assert active is not None and active.find("mcf x", 0) is not None
        set_fault_plan(None)
        assert faults_mod.ENV_FAULT_PLAN not in os.environ
        assert get_fault_plan() is None

    def test_plan_is_deterministic(self):
        """Same plan, same (label, attempt) -> same decision, always."""
        set_fault_plan(FaultPlan([FaultSpec(match="mcf", fault="raise")]))
        for _ in range(3):
            with pytest.raises(InjectedFault):
                faults_mod.maybe_inject("mcf cfg=x refs=1 seed=0", 0)
            faults_mod.maybe_inject("mcf cfg=x refs=1 seed=0", 1)  # no-op
            faults_mod.maybe_inject("swim cfg=x refs=1 seed=0", 0)  # no-op

    def test_exit_fault_degrades_to_raise_inline(self):
        """os._exit would kill the interpreter when not in a worker."""
        set_fault_plan(FaultPlan([FaultSpec(match="mcf", fault="exit")]))
        with pytest.raises(InjectedFault):
            faults_mod.maybe_inject("mcf cfg=x refs=1 seed=0", 0)

    def test_cache_fault_lookup(self):
        set_fault_plan(FaultPlan([FaultSpec(match="mcf", fault="cache-io")]))
        assert faults_mod.cache_fault("mcf cfg=x", 0) is not None
        assert faults_mod.cache_fault("swim cfg=x", 0) is None
        # never fires on the worker side
        faults_mod.maybe_inject("mcf cfg=x", 0)

    def test_worker_injects_before_simulating(self):
        set_fault_plan(FaultPlan([FaultSpec(match="mcf", fault="raise")]))
        point = make_points(("mcf",))[0]
        with pytest.raises(InjectedFault):
            execute_point(point, attempt=0)
        stats_dict, wall = execute_point(point, attempt=1)
        assert stats_dict["instructions"] > 0 and wall > 0


class TestBackoff:
    def test_deterministic_and_keyed(self):
        assert backoff_delay("k1", 1, 0.25) == backoff_delay("k1", 1, 0.25)
        assert backoff_delay("k1", 1, 0.25) != backoff_delay("k2", 1, 0.25)

    def test_exponential_envelope(self):
        for attempt in (1, 2, 3):
            delay = backoff_delay("key", attempt, 1.0)
            assert 0.5 * 2 ** (attempt - 1) <= delay < 1.5 * 2 ** (attempt - 1)

    def test_zero_base_or_first_attempt_is_free(self):
        assert backoff_delay("key", 1, 0.0) == 0.0
        assert backoff_delay("key", 0, 1.0) == 0.0


# -- recovery paths, end to end ---------------------------------------------


class TestRetryRecovery:
    def test_transient_crash_retries_to_identical_result(self, baseline):
        set_fault_plan(FaultPlan([FaultSpec(match="mcf", fault="raise", attempts=(0,))]))
        runner = Runner(jobs=1, cache_dir=None, retry_backoff=0)
        results = runner.run_points(make_points())
        for got, expected in zip(results, baseline):
            assert_stats_equal(got, expected)
        assert runner.retries == 1
        [record] = runner.failures
        assert record.kind == "crash" and record.attempt == 0 and not record.fatal

    def test_permanent_failure_raises_with_records(self):
        set_fault_plan(
            FaultPlan([FaultSpec(match="mcf", fault="raise", attempts=tuple(range(8)))])
        )
        runner = Runner(jobs=1, cache_dir=None, retry_backoff=0, max_retries=1)
        with pytest.raises(PointFailureError) as excinfo:
            runner.run_points(make_points(("mcf", "swim")))
        assert len(excinfo.value.records) == 1
        assert excinfo.value.records[0].fatal
        # the innocent point was still resolved and memoized (salvage)
        assert runner.simulated == 1

    def test_keep_going_returns_placeholder_and_salvages_rest(self, baseline):
        set_fault_plan(
            FaultPlan([FaultSpec(match="mcf", fault="raise", attempts=tuple(range(8)))])
        )
        runner = Runner(
            jobs=1, cache_dir=None, retry_backoff=0, max_retries=1, keep_going=True
        )
        results = runner.run_points(make_points())
        for name, got, expected in zip(SUITE, results, baseline):
            if name == "mcf":
                assert got.ipc != got.ipc  # NaN
            else:
                assert_stats_equal(got, expected)
        assert any(f.fatal for f in runner.failures)

    def test_placeholder_renders_as_dash(self):
        table = format_table(["bench", "ipc"], [["mcf", placeholder_stats().ipc]])
        assert table.splitlines()[-1].split()[-1] == "-"


class TestWatchdog:
    def test_hang_is_killed_retried_and_recovers(self, baseline):
        set_fault_plan(
            FaultPlan(
                [FaultSpec(match="twolf", fault="hang", attempts=(0, 1), hang_seconds=120)]
            )
        )
        runner = Runner(jobs=3, cache_dir=None, timeout=4, retry_backoff=0)
        results = runner.run_points(make_points())
        for got, expected in zip(results, baseline):
            assert_stats_equal(got, expected)
        assert any(f.kind == "timeout" and not f.fatal for f in runner.failures)

    def test_queued_points_are_not_charged_by_the_watchdog(self, baseline):
        # Regression: jobs waiting for a worker must wait in the runner
        # (no deadline armed), not in the pool's internal queue — else a
        # batch clogged by hung workers charges spurious timeouts (and
        # burns retry attempts) on points that never started executing.
        set_fault_plan(
            FaultPlan(
                [
                    FaultSpec(match="swim", fault="hang", attempts=(0,), hang_seconds=120),
                    FaultSpec(match="mcf", fault="hang", attempts=(0,), hang_seconds=120),
                ]
            )
        )
        runner = Runner(jobs=2, cache_dir=None, timeout=4, retry_backoff=0)
        results = runner.run_points(make_points(SUITE[:4]))
        for got, expected in zip(results, baseline[:4]):
            assert_stats_equal(got, expected)
        timeouts = [f for f in runner.failures if f.kind == "timeout"]
        assert len(timeouts) == 2  # the two hangs, nothing else
        assert all("swim" in f.label or "mcf" in f.label for f in timeouts)
        assert not any(
            "twolf" in f.label or "eon" in f.label for f in runner.failures
        )

    def test_permanent_hang_gives_up_after_budget(self):
        set_fault_plan(
            FaultPlan(
                [
                    FaultSpec(
                        match="mcf",
                        fault="hang",
                        attempts=tuple(range(8)),
                        hang_seconds=120,
                    )
                ]
            )
        )
        runner = Runner(
            jobs=2, cache_dir=None, timeout=2, retry_backoff=0, max_retries=1
        )
        with pytest.raises(PointFailureError):
            runner.run_points(make_points(("mcf", "swim")))
        timeout_records = [f for f in runner.failures if f.kind == "timeout"]
        assert len(timeout_records) == 2  # attempts 0 and 1
        assert timeout_records[-1].fatal


class TestPoolRecovery:
    def test_worker_death_rebuilds_pool_once(self, baseline):
        set_fault_plan(FaultPlan([FaultSpec(match="eon", fault="exit", attempts=(0,))]))
        runner = Runner(jobs=3, cache_dir=None, retry_backoff=0)
        results = runner.run_points(make_points())
        for got, expected in zip(results, baseline):
            assert_stats_equal(got, expected)
        assert runner.pool_rebuilds == 1
        assert any(f.kind == "crash" for f in runner.failures)

    def test_second_pool_break_falls_back_inline(self, baseline):
        set_fault_plan(
            FaultPlan([FaultSpec(match="eon", fault="exit", attempts=(0, 1))])
        )
        runner = Runner(jobs=3, cache_dir=None, retry_backoff=0, max_retries=3)
        results = runner.run_points(make_points())
        for got, expected in zip(results, baseline):
            assert_stats_equal(got, expected)
        assert runner.pool_rebuilds == 1
        assert runner._pool_unusable
        # the runner stays usable afterwards, going straight to inline
        more = runner.run_points(make_points(("swim",)))
        assert_stats_equal(more[0], baseline[0])


class TestAcceptance:
    """ISSUE acceptance: one crash + one hang in a 6-point pooled batch."""

    def test_crash_and_hang_recover_to_byte_identical_output(self, baseline):
        set_fault_plan(
            FaultPlan(
                [
                    FaultSpec(match="eon", fault="exit", attempts=(0,)),
                    FaultSpec(
                        match="twolf", fault="hang", attempts=(0, 1), hang_seconds=120
                    ),
                ]
            )
        )
        runner = Runner(jobs=3, cache_dir=None, timeout=4, retry_backoff=0)
        results = runner.run_points(make_points())
        # the run completed and every point matches a fault-free serial run
        for got, expected in zip(results, baseline):
            assert_stats_equal(got, expected)
        # both failure modes are reported in the summary
        kinds = {f.kind for f in runner.failures}
        assert {"timeout", "crash"} <= kinds
        summary = runner.summary()
        assert {f["kind"] for f in summary["failures"]} == kinds
        # rendered output is byte-identical to the fault-free rendering
        def render(stats_list):
            return format_table(
                ["bench", "ipc", "l2 miss rate"],
                [
                    [name, s.ipc, s.l2_miss_rate]
                    for name, s in zip(SUITE, stats_list)
                ],
            )

        assert render(results) == render(baseline)
        report = runner.failure_report()
        assert "timeout" in report and "crash" in report


class TestCacheDegradation:
    def test_injected_cache_error_degrades_once(self, tmp_path, capsys, baseline):
        set_fault_plan(FaultPlan([FaultSpec(match="swim", fault="cache-io")]))
        runner = Runner(jobs=1, cache_dir=tmp_path / "c", retry_backoff=0)
        results = runner.run_points(make_points())
        for got, expected in zip(results, baseline):
            assert_stats_equal(got, expected)
        assert runner.store.cache is None
        assert runner.cache_disabled_reason
        [record] = [f for f in runner.failures if f.kind == "cache-io"]
        assert not record.fatal
        err = capsys.readouterr().err
        assert err.count("result cache disabled") == 1
        assert runner.summary()["cache_disabled"]

    def test_oserror_from_put_degrades_to_cache_off(
        self, tmp_path, capsys, monkeypatch, baseline
    ):
        from repro.runner.cache import ResultCache

        def full_disk(self, key, payload):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ResultCache, "put", full_disk)
        runner = Runner(jobs=1, cache_dir=tmp_path / "c")
        results = runner.run_points(make_points(("mcf", "swim")))
        assert_stats_equal(results[0], baseline[1])
        assert runner.store.cache is None
        assert capsys.readouterr().err.count("result cache disabled") == 1

    @pytest.mark.skipif(
        os.geteuid() == 0, reason="root ignores directory write permissions"
    )
    def test_read_only_cache_root_degrades(self, tmp_path, capsys, baseline):
        root = tmp_path / "readonly"
        root.mkdir()
        root.chmod(0o555)
        try:
            runner = Runner(jobs=1, cache_dir=root)
            results = runner.run_points(make_points(("mcf",)))
            assert_stats_equal(results[0], baseline[1])
            assert runner.store.cache is None
            assert capsys.readouterr().err.count("result cache disabled") == 1
        finally:
            root.chmod(0o755)

    def test_completed_results_cached_as_they_land(self, tmp_path):
        """Partial-batch salvage: what finished before a failure persists."""
        set_fault_plan(
            FaultPlan([FaultSpec(match="swim", fault="raise", attempts=tuple(range(8)))])
        )
        runner = Runner(
            jobs=1, cache_dir=tmp_path / "c", retry_backoff=0, max_retries=0
        )
        points = make_points(("mcf", "swim"))
        with pytest.raises(PointFailureError):
            runner.run_points(points)
        set_fault_plan(None)
        # mcf landed in the on-disk cache despite the batch failing
        reader = Runner(jobs=1, cache_dir=tmp_path / "c")
        reader.run_points([points[0]])
        assert reader.disk_hits == 1 and reader.simulated == 0


class TestInterrupt:
    def test_interrupt_keeps_completed_results(self, tmp_path, monkeypatch):
        real = runner_mod.execute_point

        def interrupting(point, attempt=0, **options):
            if point.benchmark == "swim":
                raise KeyboardInterrupt()
            return real(point, attempt, **options)

        monkeypatch.setattr(runner_mod, "execute_point", interrupting)
        runner = Runner(jobs=1, cache_dir=tmp_path / "c")
        points = make_points(("mcf", "swim"))
        with pytest.raises(KeyboardInterrupt):
            runner.run_points(points)
        # mcf completed first and survives in memo and on disk
        assert points[0].cache_key() in runner.store
        reader = Runner(jobs=1, cache_dir=tmp_path / "c")
        reader.run_points([points[0]])
        assert reader.disk_hits == 1

    def test_kill_pool_leaves_no_orphans(self):
        pool = ProcessPoolExecutor(max_workers=2)
        for _ in range(2):
            pool.submit(time.sleep, 60)
        deadline = time.monotonic() + 10
        while len(getattr(pool, "_processes", {})) < 2:
            if time.monotonic() > deadline:  # pragma: no cover
                pytest.fail("pool workers never started")
            time.sleep(0.05)
        processes = list(pool._processes.values())
        kill_executor(pool)
        for proc in processes:
            assert not proc.is_alive()

    def test_kill_pool_kills_a_worker_that_ignores_sigterm(self, tmp_path):
        pool = ProcessPoolExecutor(max_workers=1)
        ready = tmp_path / "ready"
        pool.submit(_ignore_sigterm_then_sleep, str(ready))
        deadline = time.monotonic() + 30
        while not ready.exists():
            if time.monotonic() > deadline:  # pragma: no cover
                pytest.fail("pool worker never started")
            time.sleep(0.05)
        processes = list(pool._processes.values())
        try:
            kill_executor(pool)
            for proc in processes:
                assert not proc.is_alive()
        finally:
            for proc in processes:
                if proc.is_alive():
                    proc.kill()
                    proc.join()

    def test_ctrl_c_during_a_pooled_batch_leaves_no_worker(self):
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        plan = FaultPlan([FaultSpec(match="mcf", fault="hang", hang_seconds=20.0)])
        env[faults_mod.ENV_FAULT_PLAN] = plan.to_json()
        proc = subprocess.Popen(
            [sys.executable, "-c", _POOLED_RUNNER],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2:
                assert time.monotonic() < deadline, "pool workers never started"
                time.sleep(0.05)
                workers = _children(proc.pid)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=5)
            assert proc.returncode == -signal.SIGINT
            assert "KeyboardInterrupt" in err
            assert not any(_alive(pid) for pid in workers)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_sigkill_leaves_no_pool_worker_behind(self):
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        plan = FaultPlan([FaultSpec(match="mcf", fault="hang", hang_seconds=20.0)])
        env[faults_mod.ENV_FAULT_PLAN] = plan.to_json()
        proc = subprocess.Popen([sys.executable, "-c", _POOLED_RUNNER], env=env)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2:
                assert time.monotonic() < deadline, "pool workers never started"
                time.sleep(0.05)
                workers = _children(proc.pid)
            time.sleep(1.0)  # swim's point completes, mcf's hang begins
            # killed outright, the runner cannot kill its pool itself
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 5
            while any(_alive(pid) for pid in workers):
                assert time.monotonic() < deadline, "a pool worker outlived its runner"
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


class TestEnvironmentKnobs:
    def test_runner_reads_fault_tolerance_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "7.5")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.125")
        runner = Runner(jobs=1, cache_dir=None)
        assert runner.timeout == 7.5
        assert runner.max_retries == 5
        assert runner.retry_backoff == 0.125

    def test_zero_timeout_means_no_watchdog(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0")
        assert Runner(jobs=1, cache_dir=None).timeout is None

    def test_plan_env_round_trip_matches_api(self, monkeypatch):
        plan = FaultPlan([FaultSpec(match="mcf", fault="hang", hang_seconds=3.0)])
        monkeypatch.setenv(faults_mod.ENV_FAULT_PLAN, plan.to_json())
        active = get_fault_plan()
        assert active.find("mcf cfg=x", 0).hang_seconds == 3.0

    def test_rejects_negative_max_retries(self):
        with pytest.raises(ValueError):
            Runner(jobs=1, cache_dir=None, max_retries=-1)


class TestFailureRecordShape:
    def test_record_round_trips_to_dict(self):
        set_fault_plan(FaultPlan([FaultSpec(match="mcf", fault="raise", attempts=(0,))]))
        runner = Runner(jobs=1, cache_dir=None, retry_backoff=0)
        runner.run_points(make_points(("mcf",)))
        [record] = runner.failures
        data = record.to_dict()
        assert data["kind"] == "crash"
        assert data["label"].startswith("mcf ")
        assert data["attempt"] == 0
        assert data["fatal"] is False
        assert dataclasses.asdict(record) == data
