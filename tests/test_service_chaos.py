"""Deterministic chaos harness for the hardened simulation service.

Every test here drives the real service engine (and in most cases the
real HTTP server) under an explicit :class:`repro.runner.faults.FaultPlan`
— hangs, transient crashes, journal-write errors, dropped connections —
and asserts the robustness invariants the service promises:

* no point is lost or computed twice (counted from the run log);
* per-point watchdog timeouts produce runner-taxonomy
  ``FailureRecord(kind="timeout")`` entries, the expired attempt's
  worker process is killed and never publishes, and the attempts in
  flight beside it are resubmitted unharmed;
* over-limit submissions get ``429`` + ``Retry-After`` and succeed on
  client retry;
* drain + restart resumes exactly the unfinished remainder — including
  a real ``repro-serve serve`` process killed with SIGTERM;
* served statistics stay field-for-field identical to calling
  :func:`repro.runner.worker.execute_point` directly, even when the
  point only succeeded after an injected-then-recovered fault or a
  worker's death.

The faults are pure functions of ``(label, occurrence)`` — no RNG, no
wall clock — so every failure mode in this file reproduces exactly.
Where a test needs no real simulation, the service runs a stand-in
from :mod:`tests.service_doubles`, which its pool workers can import.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.obs.log import JsonlSink
from repro.runner import PointFailureError, ResultCache, Runner, SimPoint, faults
from repro.service import (
    AdmissionError,
    JobState,
    ServiceConfig,
    SimulationService,
)
from repro.service.cli import EphemeralServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import JobQueue
from repro.service.schema import build_config
from tests import service_doubles as doubles
from tests.service_doubles import fake_execute

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _sweep(**overrides):
    payload = {"benchmarks": ["mcf"], "memory_refs": 500}
    payload.update(overrides)
    return payload


def _events(path):
    out = []
    for line in Path(path).read_text().splitlines():
        try:
            out.append(json.loads(line))
        except ValueError:
            continue
    return out


def _per_key_completions(run_log_path):
    counts = {}
    for event in _events(run_log_path):
        if event.get("event") == "point-completed":
            counts[event["key"]] = counts.get(event["key"], 0) + 1
    return counts


@pytest.fixture(autouse=True)
def _clean_fault_plan(monkeypatch):
    """Every test starts and ends with no fault plan installed."""
    monkeypatch.delenv(faults.ENV_FAULT_PLAN, raising=False)
    yield
    faults.set_fault_plan(None)


def _install(plan, monkeypatch):
    monkeypatch.setenv(faults.ENV_FAULT_PLAN, plan.to_json())


def _alive(pid):
    """Whether process ``pid`` still runs (a zombie or a reaped one does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _pool_workers(pid):
    """The spawned pool worker processes of process ``pid``."""
    workers = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        for child in (task / "children").read_text().split():
            try:
                cmdline = Path(f"/proc/{child}/cmdline").read_bytes()
            except FileNotFoundError:
                continue
            if b"multiprocessing.spawn" in cmdline:
                workers.append(int(child))
    return workers


# ---------------------------------------------------------------------------
# mixed transient faults: nothing lost, nothing double-computed
# ---------------------------------------------------------------------------


class TestMixedFaults:
    def test_transient_crash_slow_sim_and_journal_io_recover_cleanly(
        self, tmp_path, monkeypatch
    ):
        plan = faults.FaultPlan(
            [
                # mcf crashes once, recovered by the first retry
                faults.FaultSpec(match="mcf", fault="raise", attempts=(0,)),
                # swim simulates slowly but under any sane watchdog
                faults.FaultSpec(
                    match="swim", fault="slow", attempts=(0,), hang_seconds=0.05
                ),
                # the first job-started journal write fails on disk
                faults.FaultSpec(
                    match="job-started", fault="journal-io", attempts=(0,)
                ),
            ]
        )
        _install(plan, monkeypatch)
        monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
        run_log = tmp_path / "run.jsonl"
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            cache_dir=str(tmp_path / "cache"),
            workers=2,
            retry_backoff=0.001,
            point_timeout=10.0,
            run_log=JsonlSink(run_log, mode="a"),
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            jobs = [
                service.submit_payload(
                    _sweep(benchmarks=["mcf", "swim"], seed=3)
                )
                for _ in range(5)
            ]
            jobs += [service.submit_payload(_sweep(seed=s)) for s in (7, 8)]
            for job in jobs:
                done = await service.wait_for(job.id, timeout=60)
                assert done.state == JobState.COMPLETED
                assert done.completed_points == done.total_points
                for entry in service.results(done):
                    assert entry["stats"] is not None
            stats = service.stats()
            errors = service.queue.journal_write_errors
            await service.stop()
            return stats, errors

        stats, journal_errors = asyncio.run(scenario())
        # the injected journal failure was absorbed, not fatal
        assert journal_errors >= 1
        assert stats["journal"]["write_errors"] >= 1
        # no lost and no double-computed points, straight from the log
        counts = _per_key_completions(run_log)
        assert len(counts) == 4  # (mcf,swim)@seed3 + mcf@7 + mcf@8
        assert set(counts.values()) == {1}
        # the transient crash really happened and really recovered
        retried = [
            e for e in _events(run_log) if e["event"] == "point-retried"
        ]
        assert any(e["kind"] == "crash" for e in retried)


# ---------------------------------------------------------------------------
# watchdog: the expired attempt's worker is killed, its neighbours resubmitted
# ---------------------------------------------------------------------------


class TestWatchdogAndBreaker:
    def test_timeout_yields_runner_taxonomy_record_and_orphan_never_publishes(
        self, tmp_path, monkeypatch
    ):
        _install(
            faults.FaultPlan(
                # far beyond the watchdog
                [faults.FaultSpec(match="mcf", fault="hang", hang_seconds=0.4)]
            ),
            monkeypatch,
        )
        doubles.install(monkeypatch, fake_execute, tmp_path)
        run_log = tmp_path / "run.jsonl"
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            workers=1,
            max_retries=0,
            point_timeout=0.05,
            run_log=JsonlSink(run_log, mode="a"),
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            job = service.submit_payload(_sweep(seed=1))
            done = await service.wait_for(job.id, timeout=30)
            assert done.state == JobState.FAILED
            record = done.failures[0]
            # the runner's FailureRecord taxonomy, verbatim
            assert record["kind"] == "timeout"
            assert record["label"].startswith("mcf")
            assert record["key"] == job.keys[0]
            assert record["attempt"] == 0
            assert record["fatal"] is True
            assert "watchdog" in record["message"]
            # the expired attempt's worker is dead, and outliving its
            # hang changes nothing: its result was never published.
            [call] = doubles.calls(tmp_path)
            assert not _alive(call["pid"])
            await asyncio.sleep(0.5)
            assert service.store.get(job.keys[0]) is None
            stats = service.stats()
            assert stats["points_simulated"] == 0
            assert stats["watchdog"]["timeouts"] == 1
            await service.stop()

        asyncio.run(scenario())
        events = [e["event"] for e in _events(run_log)]
        assert "point-failed" in events
        assert "point-completed" not in events

    def test_expiry_resubmits_the_attempt_in_flight_beside_it(
        self, tmp_path, monkeypatch
    ):
        _install(
            faults.FaultPlan(
                [
                    faults.FaultSpec(match="mcf", fault="hang", hang_seconds=30.0),
                    # submitted 1.5 s after mcf began, swim is mid-flight
                    # and inside its own window when mcf's expiry kills
                    # the pool at 3 s
                    faults.FaultSpec(match="swim", fault="slow", hang_seconds=2.0),
                ]
            ),
            monkeypatch,
        )
        doubles.install(monkeypatch, fake_execute, tmp_path)
        run_log = tmp_path / "run.jsonl"
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            workers=2,
            retry_backoff=0.001,
            point_timeout=3.0,
            run_log=JsonlSink(run_log, mode="a"),
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            hung = service.submit_payload(_sweep(seed=1))
            while not doubles.calls(tmp_path):
                await asyncio.sleep(0.01)
            await asyncio.sleep(1.5)
            beside = service.submit_payload(_sweep(benchmarks=["swim"], seed=1))
            done = [await service.wait_for(j.id, timeout=60) for j in (hung, beside)]
            stats = service.stats()
            await service.stop()
            return done, stats

        (hung, beside), stats = asyncio.run(scenario())
        assert hung.state == beside.state == JobState.COMPLETED
        assert [(f["kind"], f["attempt"]) for f in hung.failures] == [("timeout", 0)]
        # the innocent attempt lost no attempt: it ran again as attempt 0
        assert beside.failures == []
        swim = [
            (e["event"], e["attempt"])
            for e in _events(run_log)
            if e.get("key") == beside.keys[0]
        ]
        assert swim == [
            ("point-started", 0), ("point-started", 0), ("point-completed", 0)
        ]
        assert stats["watchdog"]["timeouts"] == 1
        assert set(_per_key_completions(run_log).values()) == {1}

    @pytest.mark.parametrize("point_timeout", [None, 10.0])
    def test_simulations_own_timeout_error_is_a_crash_not_an_expiry(
        self, tmp_path, monkeypatch, point_timeout
    ):
        # asyncio.TimeoutError is the builtin TimeoutError on Python
        # >= 3.11: an expiry is decided by the attempt's future still
        # running at the deadline, never by the exception's type.
        monkeypatch.setattr(
            "repro.service.engine.execute_point", doubles.timing_out_execute
        )
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            workers=1,
            max_retries=2,
            retry_backoff=0.0,
            point_timeout=point_timeout,
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            job = service.submit_payload(_sweep(seed=5))
            done = await service.wait_for(job.id, timeout=30)
            stats = service.stats()
            await service.stop()
            return done, stats

        job, stats = asyncio.run(scenario())
        assert job.state == JobState.FAILED
        # exactly what Runner records for the same exception
        assert [
            (f["kind"], f["attempt"], f["fatal"], f["message"]) for f in job.failures
        ] == [
            ("crash", attempt, attempt == 2, "TimeoutError: socket read timed out")
            for attempt in range(3)
        ]
        assert stats["watchdog"]["timeouts"] == 0
        assert "breaker" not in stats


# ---------------------------------------------------------------------------
# one execution core: the service's records, store and warnings are the
# runner's
# ---------------------------------------------------------------------------


class TestOneExecutionCore:
    """One FaultPlan through ``Runner.run_points`` and through the
    service leaves the same failure records and point events."""

    REFS = 300

    @staticmethod
    def _point(benchmark):
        return SimPoint(benchmark, build_config({}), TestOneExecutionCore.REFS)

    @staticmethod
    def _trail(records, events, key):
        point_events = [
            (e["event"], e["attempt"], e.get("kind"), e.get("message"))
            for e in events
            if e.get("key") == key and e["event"].startswith("point-")
        ]
        return [
            (r["kind"], r["attempt"], r["fatal"], r["message"]) for r in records
        ], point_events

    def _through_runner(self, tmp_path, benchmarks, **knobs):
        run_log = tmp_path / "runner.jsonl"
        runner = Runner(
            cache_dir=None, retry_backoff=0, run_log=JsonlSink(run_log), **knobs
        )
        try:
            runner.run_points([self._point(name) for name in benchmarks])
        except PointFailureError:
            pass
        runner.run_log.close()
        key = self._point("mcf").cache_key()
        records = [r.to_dict() for r in runner.failures if r.key == key]
        return self._trail(records, _events(run_log), key)

    def _through_service(self, tmp_path, **knobs):
        run_log = tmp_path / "service.jsonl"
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            retry_backoff=0.0,
            run_log=JsonlSink(run_log, mode="a"),
            **knobs,
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            job = service.submit_payload(_sweep(memory_refs=self.REFS))
            done = await service.wait_for(job.id, timeout=60)
            await service.stop()
            return done

        job = asyncio.run(scenario())
        return self._trail(job.failures, _events(run_log), job.keys[0])

    @pytest.mark.parametrize(
        "spec, runner_knobs, service_knobs",
        [
            (
                faults.FaultSpec(match="mcf", fault="raise", attempts=(0,)),
                {"jobs": 1},
                {},
            ),
            (
                faults.FaultSpec(match="mcf", fault="raise", attempts=tuple(range(8))),
                {"jobs": 1, "max_retries": 1},
                {"max_retries": 1},
            ),
            # the runner pools (two points, two jobs) so that its
            # watchdog applies; both engines kill the hung worker.
            (
                faults.FaultSpec(
                    match="mcf", fault="hang", attempts=(0,), hang_seconds=3.0
                ),
                {"jobs": 2, "timeout": 2.0},
                {"point_timeout": 2.0},
            ),
            # pooled too: inline, ``exit`` degrades to a raise.
            (
                faults.FaultSpec(match="mcf", fault="exit", attempts=(0,)),
                {"jobs": 2},
                {},
            ),
        ],
        ids=["transient-raise", "permanent-raise", "hang", "worker-death"],
    )
    def test_both_engines_write_the_same_records(
        self, tmp_path, monkeypatch, spec, runner_knobs, service_knobs
    ):
        _install(faults.FaultPlan([spec]), monkeypatch)
        benchmarks = ("mcf", "swim") if runner_knobs["jobs"] > 1 else ("mcf",)
        (tmp_path / "runner").mkdir()
        (tmp_path / "service").mkdir()
        batch = self._through_runner(tmp_path / "runner", benchmarks, **runner_knobs)
        served = self._through_service(tmp_path / "service", **service_knobs)
        records, events = batch
        assert records  # the plan fired
        assert served == batch
        if spec.fault == "hang":
            assert ("point-timed-out", 0, None, records[0][3]) in events

    def test_either_engine_reads_what_the_other_wrote(self, tmp_path):
        cache_dir = tmp_path / "cache"
        mcf, swim = self._point("mcf"), self._point("swim")
        batch = Runner(jobs=1, cache_dir=cache_dir).run_points([mcf])[0]
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"), cache_dir=str(cache_dir)
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            job = service.submit_payload(
                _sweep(benchmarks=["mcf", "swim"], memory_refs=self.REFS)
            )
            done = await service.wait_for(job.id, timeout=60)
            results = service.results(done)
            stats = service.stats()
            await service.stop()
            return results, stats

        results, stats = asyncio.run(scenario())
        # the service served mcf from the runner's entry, simulated swim
        assert stats["store"]["disk_hits"] == 1
        assert stats["points_simulated"] == 1
        assert results[0]["stats"] == batch.to_dict()
        # and a fresh runner serves swim from the service's entry
        reader = Runner(jobs=1, cache_dir=cache_dir)
        [served] = reader.run_points([swim])
        assert reader.disk_hits == 1 and reader.simulated == 0
        assert served.to_dict() == results[1]["stats"]


class TestStoreDegradation:
    def test_write_error_degrades_the_store_once_with_the_runner_warning(
        self, tmp_path, monkeypatch, capsys
    ):
        # a full disk, not a read-only directory: root ignores the latter
        def full_disk(self, key, payload):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ResultCache, "put", full_disk)
        monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            cache_dir=str(tmp_path / "cache"),
            workers=1,
        )
        with EphemeralServer(config) as server:
            client = ServiceClient(server.url, timeout=30.0)
            served = []
            for seed in (1, 2):
                job = client.submit(_sweep(seed=seed))
                status = client.wait(job["id"], timeout=60)
                assert status["state"] == "completed"
                served.append(status["results"][0]["stats"])
            stats = client.stats()
        assert served == [
            {"benchmark": "mcf", "seed": seed, "cycles": 100.0 + seed}
            for seed in (1, 2)
        ]
        assert "No space left on device" in stats["store"]["cache_disabled"]
        assert stats["store"]["cache_dir"] is None
        assert capsys.readouterr().err.count("result cache disabled") == 1


# ---------------------------------------------------------------------------
# admission control end to end: 429 + Retry-After + client retry
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_over_capacity_gets_429_and_client_retry_succeeds(
        self, tmp_path, monkeypatch
    ):
        doubles.install(monkeypatch, doubles.gated_execute, tmp_path)
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            workers=1,
            max_queued_jobs=1,
        )
        with EphemeralServer(config) as server:
            client = ServiceClient(server.url, timeout=30.0)
            running = client.submit(_sweep(seed=0))
            deadline = time.monotonic() + 30
            while client.job(running["id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            client.submit(_sweep(seed=1))  # fills the queue (limit 1)
            # the raw request shows the structured 429
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/sweeps", _sweep(seed=2))
            assert excinfo.value.status == 429
            assert excinfo.value.payload["error"] == "over-capacity"
            assert excinfo.value.payload["reason"] == "queue-full"
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after > 0
            # the retrying client path succeeds once capacity frees up
            threading.Timer(0.2, doubles.open_gate, (tmp_path,)).start()
            summary = client.submit(_sweep(seed=2))
            assert client.wait(summary["id"], timeout=60)["state"] == "completed"
            stats = client.stats()
            assert stats["admission"]["rejected"]["queue-full"] >= 1

    def test_draining_service_refuses_with_503(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
        config = ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))

        async def scenario():
            service = SimulationService(config)
            await service.start()
            service._draining = True  # as stop(drain=True) sets first
            with pytest.raises(AdmissionError) as excinfo:
                service.submit_payload(_sweep())
            assert excinfo.value.reason == "draining"
            assert excinfo.value.to_dict()["error"] == "draining"
            service._draining = False
            await service.stop()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# graceful drain, requeue, restart: the remainder — and only the
# remainder — resumes
# ---------------------------------------------------------------------------


class TestDrainAndRestart:
    def test_drain_deadline_requeues_and_restart_resumes_remainder(
        self, tmp_path, monkeypatch
    ):
        # swim is held past the drain deadline
        _install(
            faults.FaultPlan(
                [faults.FaultSpec(match="swim", fault="hang", hang_seconds=3.0)]
            ),
            monkeypatch,
        )
        doubles.install(monkeypatch, fake_execute, tmp_path)
        journal = tmp_path / "journal.jsonl"
        cache_dir = tmp_path / "cache"
        run_log = tmp_path / "run.jsonl"

        def config():
            return ServiceConfig(
                journal_path=str(journal),
                cache_dir=str(cache_dir),
                workers=1,
                run_log=JsonlSink(run_log, mode="a"),
            )

        async def phase1():
            service = SimulationService(config())
            await service.start()
            job = service.submit_payload(
                _sweep(benchmarks=["mcf", "swim"], seed=2)
            )
            deadline = time.monotonic() + 30
            while service.queue.jobs[job.id].completed_points < 1:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.005)
            await service.stop(drain=True, deadline=0.2)
            assert service.queue.jobs[job.id].state == JobState.QUEUED
            return job.id

        job_id = asyncio.run(phase1())
        phase1_calls = len(doubles.calls(tmp_path))
        journal_events = [e["event"] for e in _events(journal)]
        assert "job-requeued" in journal_events
        assert "service-shutdown" in journal_events

        monkeypatch.delenv(faults.ENV_FAULT_PLAN)

        async def phase2():
            service = SimulationService(config())
            await service.start()
            assert service.queue.recovered_job_ids == [job_id]
            done = await service.wait_for(job_id, timeout=30)
            assert done.state == JobState.COMPLETED
            assert done.completed_points == 2
            await service.stop()

        asyncio.run(phase2())
        phase2_calls = [
            call["benchmark"] for call in doubles.calls(tmp_path)[phase1_calls:]
        ]
        # only the interrupted point re-simulated; the finished one came
        # from the shared store
        assert phase2_calls == ["swim"]
        counts = _per_key_completions(run_log)
        assert set(counts.values()) == {1}

    def test_drain_deadline_holds_when_a_simulation_hangs(
        self, tmp_path, monkeypatch
    ):
        _install(
            faults.FaultPlan(
                [faults.FaultSpec(match="mcf", fault="hang", hang_seconds=30.0)]
            ),
            monkeypatch,
        )
        doubles.install(monkeypatch, fake_execute, tmp_path)
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"), workers=1
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            job = service.submit_payload(_sweep())
            while not doubles.calls(tmp_path):
                await asyncio.sleep(0.01)
            began = time.monotonic()
            await service.stop(drain=True, deadline=0.3)
            return job, time.monotonic() - began

        job, stopping = asyncio.run(scenario())
        assert stopping < 3.0
        assert job.state == JobState.QUEUED
        journal_events = [e["event"] for e in _events(tmp_path / "journal.jsonl")]
        assert "job-requeued" in journal_events
        [call] = doubles.calls(tmp_path)
        assert not _alive(call["pid"])

    def test_clean_drain_with_idle_queue_journals_marker(self, tmp_path):
        journal = tmp_path / "journal.jsonl"

        async def scenario():
            service = SimulationService(ServiceConfig(journal_path=str(journal)))
            await service.start()
            await service.stop(drain=True, deadline=5.0)

        asyncio.run(scenario())
        markers = [
            e for e in _events(journal) if e["event"] == "service-shutdown"
        ]
        assert markers and markers[-1]["clean"] is True


# ---------------------------------------------------------------------------
# dropped connections and journal compaction
# ---------------------------------------------------------------------------


class TestTransportAndJournalChaos:
    def test_connection_drop_mid_request_surfaces_and_service_survives(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
        plan = faults.FaultPlan(
            [faults.FaultSpec(match="/v1/stats", fault="drop", attempts=(0,))]
        )
        _install(plan, monkeypatch)
        config = ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))
        with EphemeralServer(config) as server:
            client = ServiceClient(server.url, timeout=10.0)
            # first /v1/stats request: connection aborted mid-request,
            # normalized to ServiceError by the client
            with pytest.raises(ServiceError) as excinfo:
                client.stats()
            assert excinfo.value.status == 0
            # the server is unharmed: the next request works, and real
            # work still flows end to end
            assert client.stats()["points_simulated"] == 0
            job = client.submit(_sweep(seed=4))
            assert client.wait(job["id"], timeout=30)["state"] == "completed"

    def test_connection_drop_on_a_stream_surfaces_as_service_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
        plan = faults.FaultPlan(
            [faults.FaultSpec(match="/stream", fault="drop", attempts=(0,))]
        )
        _install(plan, monkeypatch)
        config = ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))
        with EphemeralServer(config) as server:
            client = ServiceClient(server.url, timeout=10.0)
            job = client.submit(_sweep(seed=5))
            # the stream's connection closes before any response
            with pytest.raises(ServiceError) as excinfo:
                list(client.stream(job["id"]))
            assert excinfo.value.status == 0
            # the next stream is answered, up to the job's last event
            events = list(client.stream(job["id"]))
            assert events[-1]["state"] == "completed"

    def test_compaction_bounds_journal_and_survives_restart_with_torn_tail(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
        journal = tmp_path / "journal.jsonl"
        config = ServiceConfig(
            journal_path=str(journal),
            cache_dir=str(tmp_path / "cache"),
            journal_max_bytes=400,  # tiny: force compaction quickly
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            for seed in range(6):
                job = service.submit_payload(_sweep(seed=seed))
                await service.wait_for(job.id, timeout=30)
            compactions = service.queue.compactions
            job_states = {
                j.id: j.state for j in service.queue.jobs.values()
            }
            await service.stop()
            return compactions, job_states

        compactions, job_states = asyncio.run(scenario())
        assert compactions >= 1
        events = _events(journal)
        # compaction writes each held job's own job-submitted record
        submitted = [e["id"] for e in events if e["event"] == "job-submitted"]
        assert sorted(submitted) == sorted(job_states)
        # simulate a crash mid-append: a torn half-record at the tail
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"event": "job-subm')
        queue = JobQueue(journal)
        assert {
            job_id: job.state for job_id, job in queue.jobs.items()
        } == job_states
        assert all(
            state == JobState.COMPLETED for state in job_states.values()
        )
        assert queue.pending() == 0
        queue.close()


# ---------------------------------------------------------------------------
# fidelity under chaos: a recovered fault changes nothing about the data
# ---------------------------------------------------------------------------


class TestFidelityUnderChaos:
    @staticmethod
    def _served_after(fault, tmp_path, monkeypatch):
        """Serve mcf while ``fault`` hits its first attempt; return the
        served statistics and the failure kinds on the job's record."""
        plan = faults.FaultPlan(
            [faults.FaultSpec(match="mcf", fault=fault, attempts=(0,))]
        )
        _install(plan, monkeypatch)
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            cache_dir=str(tmp_path / "cache"),
            workers=1,
            retry_backoff=0.001,
        )
        payload = _sweep(memory_refs=500, seed=12)

        async def scenario():
            service = SimulationService(config)
            await service.start()
            job = service.submit_payload(payload)
            done = await service.wait_for(job.id, timeout=120)
            assert done.state == JobState.COMPLETED
            served = service.results(done)[0]["stats"]
            await service.stop()
            return served, [f["kind"] for f in done.failures]

        outcome = asyncio.run(scenario())
        faults.set_fault_plan(None)  # the direct run must not fault
        return outcome

    @staticmethod
    def _direct():
        from repro.runner.worker import execute_point

        point = SimPoint(
            benchmark="mcf",
            config=build_config({}),
            memory_refs=500,
            seed=12,
        )
        return execute_point(point)[0]

    def test_served_stats_identical_to_direct_execute_after_recovered_fault(
        self, tmp_path, monkeypatch
    ):
        served, kinds = self._served_after("raise", tmp_path, monkeypatch)
        # the crash is on the record, but did not stick
        assert kinds == ["crash"]
        assert served == self._direct()

    def test_served_stats_identical_after_a_worker_dies(self, tmp_path, monkeypatch):
        # ``exit`` kills the pool worker mid-attempt, as a segfault would
        served, kinds = self._served_after("exit", tmp_path, monkeypatch)
        assert kinds == ["crash"]
        assert served == self._direct()


# ---------------------------------------------------------------------------
# the real thing: SIGTERM a live repro-serve process, then restart it
# ---------------------------------------------------------------------------


@contextmanager
def _serving(tmp_path, env):
    """A real ``repro-serve serve`` process and a client for it.

    On exit the process is killed if it still runs, reaped, and its
    output pipe closed.
    """
    args = [
        sys.executable, "-m", "repro.service.cli", "serve",
        "--host", "127.0.0.1", "--port", "0",
        "--journal", str(tmp_path / "journal.jsonl"),
        "--cache-dir", str(tmp_path / "cache"),
        "--workers", "1",
        "--drain-deadline", "0.5",
    ]
    proc = subprocess.Popen(
        args, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    try:
        port = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line and proc.poll() is not None:
                break
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise AssertionError("repro-serve did not report a listening port")
        yield proc, ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


class TestSigtermDrill:
    def test_sigterm_drains_requeues_and_restart_resumes_remainder(
        self, tmp_path,
    ):
        env = os.environ.copy()
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        # mcf's first attempt simulates slowly (2s), guaranteeing it is
        # mid-flight when SIGTERM lands and the 0.5s drain deadline hits
        plan = faults.FaultPlan(
            [
                faults.FaultSpec(
                    match="mcf", fault="slow", attempts=(0,), hang_seconds=2.0
                )
            ]
        )
        env[faults.ENV_FAULT_PLAN] = plan.to_json()
        with _serving(tmp_path, env) as (proc, client):
            job = client.submit(
                {"benchmarks": ["swim", "mcf"], "memory_refs": 500}
            )
            deadline = time.monotonic() + 60
            while client.job(job["id"])["completed"] < 1:
                assert time.monotonic() < deadline, "first point never finished"
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        journal_events = [
            e["event"] for e in _events(tmp_path / "journal.jsonl")
        ]
        assert "job-requeued" in journal_events
        assert "service-shutdown" in journal_events

        # restart with no faults: recovery resumes the unfinished
        # remainder and the job completes
        env.pop(faults.ENV_FAULT_PLAN, None)
        with _serving(tmp_path, env) as (proc, client):
            status = client.wait(job["id"], timeout=120)
            assert status["state"] == "completed"
            assert status["completed"] == 2
            assert all(r["stats"] is not None for r in status["results"])
            # the point that finished before SIGTERM came from the
            # shared store — only the remainder was simulated
            assert client.stats()["points_simulated"] == 1
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0

    @pytest.mark.skipif(
        not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
        reason="needs /proc/<pid>/task/<tid>/children",
    )
    def test_sigkill_leaves_no_worker_behind(self, tmp_path):
        env = os.environ.copy()
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        plan = faults.FaultPlan(
            [faults.FaultSpec(match="mcf", fault="hang", hang_seconds=60.0)]
        )
        env[faults.ENV_FAULT_PLAN] = plan.to_json()
        with _serving(tmp_path, env) as (proc, client):
            client.submit({"benchmarks": ["mcf"], "memory_refs": 500})
            deadline = time.monotonic() + 60
            while not _pool_workers(proc.pid):
                assert time.monotonic() < deadline, "no pool worker started"
                time.sleep(0.05)
            workers = _pool_workers(proc.pid)
            # killed outright, the server cannot kill its pool itself
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in workers):
            assert time.monotonic() < deadline, "pool worker outlived its server"
            time.sleep(0.05)
