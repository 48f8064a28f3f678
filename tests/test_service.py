"""Tests for the simulation service: contract, queue, dedup, engine, HTTP.

The load-generation tests drive the real engine with a stubbed
``execute_point`` (from :mod:`tests.service_doubles`, importable by the
service's pool workers) so a thousand mostly-duplicate submissions
settle in seconds; the fidelity tests use the real simulator on tiny
points and assert the service's statistics are field-for-field
identical to calling the worker directly.
"""

import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import DRAM_PARTS
from repro.runner import ResultStore, SimPoint
from repro.runner.worker import execute_point
from repro.service import (
    JobQueue,
    JobState,
    SchemaError,
    ServiceConfig,
    SimulationService,
    SingleFlight,
    parse_sweep_request,
)
from repro.service.cli import EphemeralServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.schema import (
    MAX_POINTS_PER_SWEEP,
    build_config,
    contract_description,
)
from repro.obs.log import JsonlSink
from tests import service_doubles as doubles
from tests.service_doubles import fake_execute


def _sweep(**overrides):
    payload = {"benchmarks": ["mcf"], "memory_refs": 500}
    payload.update(overrides)
    return payload


def _journal_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


class TestSchema:
    def test_minimal_request_gets_defaults(self):
        request = parse_sweep_request(_sweep())
        assert request.benchmarks == ("mcf",)
        assert request.memory_refs == 500
        assert request.seed == 0
        assert request.priority == 5
        assert len(request.points()) == 1
        assert request.points()[0].config.digest() == build_config({}).digest()

    def test_all_errors_reported_at_once(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_sweep_request(
                {
                    "benchmarks": ["mcf", "nosuch"],
                    "memory_refs": 3,
                    "priority": 99,
                    "bogus_field": 1,
                }
            )
        fields = {e["field"] for e in excinfo.value.errors}
        assert "benchmarks[1]" in fields
        assert "memory_refs" in fields
        assert "priority" in fields
        assert "bogus_field" in fields

    def test_did_you_mean_hint_for_typoed_section(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_sweep_request(_sweep(config={"prefetc": {"enabled": True}}))
        message = excinfo.value.errors[0]["message"]
        assert "did you mean 'prefetch'" in message

    def test_unknown_config_field_is_addressed(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_sweep_request(_sweep(config={"l2": {"sizee_kb": 1024}}))
        assert excinfo.value.errors[0]["field"] == "config.l2.sizee_kb"

    def test_config_and_configs_are_mutually_exclusive(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_sweep_request(_sweep(config={}, configs=[{}]))
        assert any(e["field"] == "config" for e in excinfo.value.errors)

    def test_point_cap_rejects_oversized_sweeps(self):
        configs = [{"core": {"cpu_ghz": 1.0 + i}} for i in range(60)]
        with pytest.raises(SchemaError) as excinfo:
            parse_sweep_request(
                {"benchmarks": ["mcf"] * 1, "memory_refs": 500, "configs": configs * 9}
            )
        assert str(MAX_POINTS_PER_SWEEP) in str(excinfo.value)

    def test_dram_part_resolves_by_name(self):
        request = parse_sweep_request(_sweep(config={"dram": {"part": "800-40"}}))
        assert request.configs[0].dram.part == DRAM_PARTS["800-40"]
        with pytest.raises(SchemaError) as excinfo:
            parse_sweep_request(_sweep(config={"dram": {"part": "900-00"}}))
        assert "900-00" in str(excinfo.value)

    def test_inconsistent_config_is_rejected_with_path(self):
        # l2 block smaller than l1 block violates SystemConfig.validate()
        with pytest.raises(SchemaError):
            parse_sweep_request(
                _sweep(config={"l2": {"block_bytes": 16}})
            )

    def test_journal_round_trip(self):
        payload = _sweep(
            seed=3,
            priority=2,
            tags={"who": "test"},
            configs=[{}, {"l2": {"size_bytes": 2 * 1024 * 1024}}],
        )
        request = parse_sweep_request(payload)
        replayed = parse_sweep_request(request.to_dict())
        assert replayed == request

    def test_contract_lists_benchmarks(self):
        contract = contract_description()
        assert "mcf" in contract["benchmarks"]
        assert contract["max_points_per_sweep"] == MAX_POINTS_PER_SWEEP


# ---------------------------------------------------------------------------
# queue
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_priority_then_fifo_order(self, tmp_path):
        queue = JobQueue(tmp_path / "journal.jsonl")
        low = queue.submit(parse_sweep_request(_sweep(priority=7)))
        first_high = queue.submit(parse_sweep_request(_sweep(priority=1, seed=1)))
        second_high = queue.submit(parse_sweep_request(_sweep(priority=1, seed=2)))
        assert [queue.pop().id for _ in range(3)] == [
            first_high.id,
            second_high.id,
            low.id,
        ]
        assert queue.pop() is None
        queue.close()

    def test_cancel_only_touches_queued_jobs(self, tmp_path):
        queue = JobQueue(tmp_path / "journal.jsonl")
        job = queue.submit(parse_sweep_request(_sweep()))
        running = queue.submit(parse_sweep_request(_sweep(seed=1)))
        queue.pop()  # takes `job` (same priority, earlier seq) to RUNNING
        assert queue.cancel(job.id) is False
        assert queue.cancel(running.id) is True
        assert queue.cancel("job-999999-deadbeef") is False
        assert queue.pop() is None  # cancelled job never dispatches
        queue.close()

    def test_restart_recovers_unfinished_jobs_mid_batch(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        finished = queue.submit(parse_sweep_request(_sweep(seed=1)))
        queue.pop()
        queue.point_completed(finished, finished.keys[0])
        queue.complete(finished)
        torn = queue.submit(
            parse_sweep_request(_sweep(benchmarks=["mcf", "swim"], seed=2))
        )
        queue.pop()
        queue.point_completed(torn, torn.keys[0])
        never_started = queue.submit(parse_sweep_request(_sweep(seed=3)))
        queue.close()  # no terminal event for `torn`/`never_started`: a crash

        recovered = JobQueue(journal)
        assert recovered.recovered_job_ids == [torn.id, never_started.id]
        replayed = recovered.jobs[torn.id]
        assert replayed.state == JobState.QUEUED
        assert replayed.done_keys == {torn.keys[0]}
        assert replayed.keys == torn.keys  # same points, same content keys
        assert recovered.jobs[finished.id].state == JobState.COMPLETED
        # priority order preserved across the restart
        assert recovered.pop().id == torn.id
        recovered.close()

    def test_replay_tolerates_torn_tail(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        job = queue.submit(parse_sweep_request(_sweep()))
        queue.close()
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"event": "job-point-com')  # crash mid-write
        recovered = JobQueue(journal)
        assert recovered.jobs[job.id].state == JobState.QUEUED
        recovered.close()

    def test_journal_is_write_through(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        job = queue.submit(parse_sweep_request(_sweep()))
        events = _journal_events(journal)
        assert events[-1]["event"] == "job-submitted"
        assert events[-1]["request"]["benchmarks"] == ["mcf"]
        queue.pop()
        assert _journal_events(journal)[-1]["event"] == "job-started"
        queue.fail(job, "boom", [])
        assert _journal_events(journal)[-1]["event"] == "job-failed"
        queue.close()


# ---------------------------------------------------------------------------
# dedup
# ---------------------------------------------------------------------------


_STORE_POINT = SimPoint(benchmark="mcf", config=build_config({}), memory_refs=500)


class TestResultStore:
    def test_layered_hits(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        assert store.get("k") is None
        store.put(_STORE_POINT, "k", {"cycles": 1.0}, 0.0)
        assert store.get("k") == {"cycles": 1.0}
        assert store.memo_hits == 1
        # a second store sharing the directory reads through from disk
        other = ResultStore(str(tmp_path / "cache"))
        assert other.get("k") == {"cycles": 1.0}
        assert other.disk_hits == 1

    def test_torn_disk_entry_is_a_miss(self, tmp_path):
        key = "ab" + "0" * 62  # sharded like a real content hash
        store = ResultStore(str(tmp_path / "cache"))
        store.put(_STORE_POINT, key, {"cycles": 1.0}, 0.0)
        entry = next((tmp_path / "cache").glob("??/*.json"))
        entry.write_text(entry.read_text()[:10])
        fresh = ResultStore(str(tmp_path / "cache"))
        assert fresh.get(key) is None
        assert fresh.misses == 1

    def test_memo_only_mode(self):
        store = ResultStore(None)
        store.put(_STORE_POINT, "k", {"cycles": 2.0}, 0.0)
        assert store.get("k") == {"cycles": 2.0}
        assert store.summary()["cache_dir"] is None


class TestSingleFlight:
    def test_concurrent_same_key_computes_once(self):
        async def scenario():
            flight = SingleFlight()
            computed = []
            gate = asyncio.Event()

            async def compute():
                computed.append(1)
                await gate.wait()
                return "value"

            async def caller():
                return await flight.run("k", compute)

            tasks = [asyncio.create_task(caller()) for _ in range(50)]
            await asyncio.sleep(0)  # let every caller reach the flight
            gate.set()
            results = await asyncio.gather(*tasks)
            assert results == ["value"] * 50
            assert len(computed) == 1
            assert flight.leaders == 1
            assert flight.followers == 49
            assert flight.inflight() == 0

        asyncio.run(scenario())

    def test_failure_reaches_every_waiter_then_clears(self):
        async def scenario():
            flight = SingleFlight()
            gate = asyncio.Event()

            async def explode():
                await gate.wait()
                raise RuntimeError("boom")

            tasks = [
                asyncio.create_task(flight.run("k", explode)) for _ in range(3)
            ]
            await asyncio.sleep(0)
            gate.set()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)
            # the key is cleared: a later call starts a fresh flight
            assert await flight.run("k", _ok) == "recovered"

        async def _ok():
            return "recovered"

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# engine under load (stubbed simulator)
# ---------------------------------------------------------------------------


async def _drain(service, timeout=120.0):
    """Wait until every submitted job reaches a terminal state."""
    deadline = time.monotonic() + timeout
    while any(
        job.state not in JobState.TERMINAL for job in service.queue.jobs.values()
    ):
        if time.monotonic() > deadline:
            raise TimeoutError("jobs did not settle")
        await asyncio.sleep(0.005)


class TestEngineLoad:
    def test_thousand_mostly_duplicate_submissions_compute_each_point_once(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
        run_log = tmp_path / "run.jsonl"
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            cache_dir=str(tmp_path / "cache"),
            workers=4,
            run_log=JsonlSink(run_log, mode="a"),
            # the point of this test is a worst-case flood, so admission
            # control is deliberately switched off (0 = unlimited).
            max_queued_jobs=0,
            max_queued_points=0,
            max_inflight_bytes=0,
        )
        unique_seeds = 6

        async def scenario():
            service = SimulationService(config)
            await service.start()
            for i in range(1000):
                service.submit_payload(_sweep(seed=i % unique_seeds))
            await _drain(service)
            states = {job.state for job in service.queue.jobs.values()}
            assert states == {JobState.COMPLETED}
            stats = service.stats()
            await service.stop()
            return stats

        stats = asyncio.run(scenario())
        # exactly one simulation per unique point, ever
        assert stats["points_simulated"] == unique_seeds
        computed = [
            e for e in _journal_events(run_log) if e["event"] == "point-completed"
        ]
        per_key = {}
        for event in computed:
            per_key[event["key"]] = per_key.get(event["key"], 0) + 1
        assert len(per_key) == unique_seeds
        assert set(per_key.values()) == {1}
        # the other 994 submissions were served without simulating:
        # flight followers while the leader ran, store hits afterwards
        flight = stats["single_flight"]
        store = stats["store"]
        served = flight["followers"] + store["memo_hits"] + store["disk_hits"]
        assert flight["leaders"] == unique_seeds
        assert served == 1000 - unique_seeds

    def test_priority_dispatch_order_under_contention(self, tmp_path, monkeypatch):
        # the blocker holds the only worker until the gate opens
        doubles.install(monkeypatch, doubles.gated_execute, tmp_path)
        journal = tmp_path / "journal.jsonl"
        config = ServiceConfig(
            journal_path=str(journal), workers=1, job_concurrency=1
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            blocker = service.submit_payload(_sweep(seed=999, priority=0))
            while service.queue.jobs[blocker.id].state != JobState.RUNNING:
                await asyncio.sleep(0.005)
            lazy = service.submit_payload(_sweep(seed=1, priority=7))
            urgent = service.submit_payload(_sweep(seed=2, priority=1))
            normal = service.submit_payload(_sweep(seed=3, priority=3))
            doubles.open_gate(tmp_path)
            await _drain(service)
            await service.stop()
            return blocker.id, urgent.id, normal.id, lazy.id

        expected = list(asyncio.run(scenario()))
        started = [
            e["id"] for e in _journal_events(journal) if e["event"] == "job-started"
        ]
        assert started == expected

    def test_failing_point_records_runner_taxonomy(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.service.engine.execute_point", doubles.crashing_execute
        )
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            workers=1,
            max_retries=2,
            retry_backoff=0.0,
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            job = service.submit_payload(_sweep())
            done = await service.wait_for(job.id, timeout=30)
            await service.stop()
            return done

        job = asyncio.run(scenario())
        assert job.state == JobState.FAILED
        assert "synthetic fault" in job.error
        # one FailureRecord dict per attempt, runner-taxonomy fields
        assert len(job.failures) == 3
        assert [f["attempt"] for f in job.failures] == [0, 1, 2]
        assert {f["kind"] for f in job.failures} == {"crash"}
        assert [f["fatal"] for f in job.failures] == [False, False, True]

    def test_transient_failure_is_retried_to_success(self, tmp_path, monkeypatch):
        doubles.install(monkeypatch, doubles.flaky_execute, tmp_path)
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            workers=1,
            max_retries=2,
            retry_backoff=0.0,
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            job = service.submit_payload(_sweep())
            done = await service.wait_for(job.id, timeout=30)
            results = service.results(done)
            await service.stop()
            return done, results

        job, results = asyncio.run(scenario())
        calls = [call["attempt"] for call in doubles.calls(tmp_path)]
        assert job.state == JobState.COMPLETED
        assert calls == [0, 1, 2]
        assert results[0]["stats"] == {"cycles": 5.0}
        # the transient attempts still left an audit trail
        assert [f["fatal"] for f in job.failures] == [False, False]

    def test_restart_mid_batch_resumes_without_resimulating(
        self, tmp_path, monkeypatch
    ):
        journal = tmp_path / "journal.jsonl"
        cache_dir = tmp_path / "cache"
        # --- before the "crash": one of two points finished and persisted
        queue = JobQueue(journal)
        job = queue.submit(
            parse_sweep_request(_sweep(benchmarks=["mcf", "swim"]))
        )
        queue.pop()
        done_key = job.keys[0]
        queue.point_completed(job, done_key)
        store = ResultStore(str(cache_dir))
        store.put(job.points[0], done_key, {"cycles": 1.0}, 0.0)
        queue.close()  # process dies here: no terminal journal event

        # --- after restart: only the unfinished point may simulate
        doubles.install(monkeypatch, doubles.tracking_execute, tmp_path)
        config = ServiceConfig(
            journal_path=str(journal), cache_dir=str(cache_dir), workers=1
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            assert service.queue.recovered_job_ids == [job.id]
            done = await service.wait_for(job.id, timeout=30)
            results = service.results(done)
            await service.stop()
            return done, results

        recovered, results = asyncio.run(scenario())
        simulated = [call["key"] for call in doubles.calls(tmp_path)]
        assert recovered.state == JobState.COMPLETED
        assert simulated == [job.keys[1]]  # the finished point never re-ran
        assert results[0]["stats"] == {"cycles": 1.0}
        assert results[1]["stats"] == {"cycles": 2.0}


# ---------------------------------------------------------------------------
# fidelity: service results == direct simulation
# ---------------------------------------------------------------------------


class TestServiceFidelity:
    def test_served_stats_field_identical_to_direct_execute(self, tmp_path):
        payload = _sweep(benchmarks=["mcf"], memory_refs=800, seed=4)
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            cache_dir=str(tmp_path / "cache"),
            workers=1,
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            job = service.submit_payload(payload)
            done = await service.wait_for(job.id, timeout=120)
            results = service.results(done)
            await service.stop()
            return results

        results = asyncio.run(scenario())
        point = SimPoint(
            benchmark="mcf", config=build_config({}), memory_refs=800, seed=4
        )
        direct, _ = execute_point(point)
        assert results[0]["stats"] == direct
        assert results[0]["key"] == point.cache_key()


# ---------------------------------------------------------------------------
# HTTP end to end
# ---------------------------------------------------------------------------


@pytest.fixture()
def http_service(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
    config = ServiceConfig(
        journal_path=str(tmp_path / "journal.jsonl"),
        cache_dir=str(tmp_path / "cache"),
        workers=2,
    )
    with EphemeralServer(config) as server:
        yield ServiceClient(server.url, timeout=30.0)


class TestHttpApi:
    def test_health_contract_and_stats(self, http_service):
        assert http_service.healthy()
        contract = http_service.contract()
        assert "mcf" in contract["benchmarks"]
        stats = http_service.stats()
        assert stats["points_simulated"] == 0

    def test_submit_poll_results(self, http_service):
        job = http_service.submit(_sweep(benchmarks=["mcf", "swim"], seed=9))
        assert job["state"] in ("queued", "running")
        status = http_service.wait(job["id"], timeout=60)
        assert status["state"] == "completed"
        assert status["completed"] == 2
        by_benchmark = {r["benchmark"]: r["stats"] for r in status["results"]}
        assert by_benchmark["mcf"]["seed"] == 9
        assert by_benchmark["swim"]["benchmark"] == "swim"

    def test_invalid_submission_is_field_addressed_400(self, http_service):
        with pytest.raises(ServiceError) as excinfo:
            http_service.submit({"benchmarks": ["nosuch"], "memory_refs": 500})
        assert excinfo.value.status == 400
        errors = excinfo.value.payload["errors"]
        assert errors[0]["field"] == "benchmarks[0]"
        assert "nosuch" in errors[0]["message"]

    def test_duplicate_submission_served_from_shared_store(self, http_service):
        payload = _sweep(seed=11)
        first = http_service.wait(
            http_service.submit(payload)["id"], timeout=60
        )
        second = http_service.wait(
            http_service.submit(payload)["id"], timeout=60
        )
        assert first["results"][0]["stats"] == second["results"][0]["stats"]
        assert http_service.stats()["points_simulated"] == 1

    def test_stream_emits_progress_then_terminal_event(self, http_service):
        job = http_service.submit(_sweep(benchmarks=["mcf", "swim"], seed=21))
        events = list(http_service.stream(job["id"]))
        assert events[-1] == {
            "type": "job",
            "id": job["id"],
            "state": "completed",
        }
        progress = [e for e in events if e["type"] == "progress"]
        assert progress[-1]["completed"] == progress[-1]["total"] == 2

    def test_unknown_job_is_404(self, http_service):
        with pytest.raises(ServiceError) as excinfo:
            http_service.job("job-424242-cafef00d")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, http_service):
        with pytest.raises(ServiceError) as excinfo:
            http_service._request("GET", "/v2/nope")
        assert excinfo.value.status == 404


# ---------------------------------------------------------------------------
# robustness satellites: malformed input, unknown ids, transport errors,
# SSE disconnects, cancellation while queued
# ---------------------------------------------------------------------------


def _raw_http(client, request_bytes, timeout=10.0):
    """Send raw bytes to the service the client points at; return the reply."""
    import socket
    from urllib.parse import urlsplit

    parts = urlsplit(client.base_url)
    with socket.create_connection(
        (parts.hostname, parts.port), timeout=timeout
    ) as sock:
        sock.sendall(request_bytes)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestRobustnessSatellites:
    def test_malformed_content_length_is_400_not_500(self, http_service):
        reply = _raw_http(
            http_service,
            b"POST /v1/sweeps HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: abc\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"malformed-request" in reply

    def test_negative_content_length_is_400(self, http_service):
        reply = _raw_http(
            http_service,
            b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_wait_for_and_watch_unknown_job_raise_value_error(self, tmp_path):
        config = ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))

        async def scenario():
            service = SimulationService(config)
            await service.start()
            try:
                with pytest.raises(ValueError, match="no such job: 'job-nope'"):
                    await service.wait_for("job-nope", timeout=1)
                with pytest.raises(ValueError, match="no such job"):
                    async for _ in service.watch("job-nope"):
                        pass
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_connection_refused_raises_service_error(self):
        # an unbound port: nothing is listening, urllib raises URLError,
        # and the client must normalize it instead of leaking it.
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceError) as excinfo:
            client.stats()
        assert excinfo.value.status == 0
        assert excinfo.value.payload["error"] == "unreachable"
        assert not client.healthy()

    def test_500_body_does_not_echo_internal_exception_text(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)

        def explode(self):
            raise RuntimeError("secret-internal-detail /etc/passwd")

        monkeypatch.setattr(SimulationService, "stats", explode)
        config = ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))
        with EphemeralServer(config) as server:
            client = ServiceClient(server.url, timeout=10.0)
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/v1/stats")
        assert excinfo.value.status == 500
        assert "secret-internal-detail" not in json.dumps(excinfo.value.payload)
        assert excinfo.value.payload["error"] == "internal"

    def test_sse_disconnect_mid_stream_does_not_wedge_dispatcher(
        self, tmp_path, monkeypatch
    ):
        # the streamed job is held until the gate opens
        doubles.install(monkeypatch, doubles.gated_execute, tmp_path)
        config = ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))
        with EphemeralServer(config) as server:
            client = ServiceClient(server.url, timeout=30.0)
            job = client.submit(_sweep(seed=77))
            # open the SSE stream and slam the connection shut mid-job
            import socket
            from urllib.parse import urlsplit

            parts = urlsplit(client.base_url)
            sock = socket.create_connection(
                (parts.hostname, parts.port), timeout=10
            )
            sock.sendall(
                f"GET /v1/jobs/{job['id']}/stream HTTP/1.1\r\n\r\n".encode()
            )
            assert sock.recv(64).startswith(b"HTTP/1.1 200")
            sock.close()
            doubles.open_gate(tmp_path)
            # the dispatcher must finish the streamed job and keep
            # serving fresh work afterwards
            assert client.wait(job["id"], timeout=30)["state"] == "completed"
            second = client.submit(_sweep(seed=78))
            assert client.wait(second["id"], timeout=30)["state"] == "completed"

    def test_watch_terminates_when_queued_job_is_cancelled(
        self, tmp_path, monkeypatch
    ):
        doubles.install(monkeypatch, doubles.gated_execute, tmp_path)
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            workers=1,
            job_concurrency=1,
        )

        async def scenario():
            service = SimulationService(config)
            await service.start()
            blocker = service.submit_payload(_sweep(seed=1, priority=0))
            while service.queue.jobs[blocker.id].state != JobState.RUNNING:
                await asyncio.sleep(0.005)
            queued = service.submit_payload(_sweep(seed=2, priority=9))

            async def watch_all():
                return [e async for e in service.watch(queued.id)]

            watcher = asyncio.create_task(watch_all())
            await asyncio.sleep(0.02)  # watcher is parked on the condition
            assert await service.cancel_job(queued.id) is True
            events = await asyncio.wait_for(watcher, timeout=5)
            assert events[-1] == {
                "type": "job",
                "id": queued.id,
                "state": JobState.CANCELLED,
            }
            doubles.open_gate(tmp_path)
            await _drain(service)
            await service.stop()

        asyncio.run(scenario())

    def test_http_delete_cancels_running_job(self, tmp_path, monkeypatch):
        doubles.install(monkeypatch, doubles.gated_execute, tmp_path)

        def started(timeout=30.0):
            deadline = time.monotonic() + timeout
            while not doubles.calls(tmp_path):
                if time.monotonic() > deadline:
                    return False
                time.sleep(0.01)
            return True

        config = ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))
        with EphemeralServer(config) as server:
            client = ServiceClient(server.url, timeout=30.0)
            job = client.submit(_sweep(benchmarks=["mcf", "swim"], seed=5))
            assert started(timeout=30)
            reply = client.cancel(job["id"])
            assert reply == {"id": job["id"], "state": "cancelled"}
            doubles.open_gate(tmp_path)
            status = client.wait(job["id"], timeout=30)
            assert status["state"] == "cancelled"
            # a second DELETE reports the terminal state, not success
            with pytest.raises(ServiceError) as excinfo:
                client.cancel(job["id"])
            assert excinfo.value.status == 409


class TestSmokeCommand:
    def test_smoke_leaves_nothing_behind(self, tmp_path):
        """``repro-serve smoke`` keeps its journal, result cache and trace
        store in a temporary directory and removes it: a private TMPDIR
        is empty afterwards, and nothing lands in an empty HOME."""
        tmp, home = tmp_path / "tmp", tmp_path / "home"
        tmp.mkdir()
        home.mkdir()
        env = dict(os.environ, TMPDIR=str(tmp), HOME=str(home))
        env.pop("REPRO_TRACE_STORE", None)  # the store follows the smoke's cache
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        run = subprocess.run(
            [
                sys.executable, "-m", "repro.service.cli", "smoke",
                "--memory-refs", "300", "--benchmarks", "eon",
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        assert "repro-serve smoke: OK" in run.stdout
        assert list(tmp.iterdir()) == []
        assert list(home.iterdir()) == []
