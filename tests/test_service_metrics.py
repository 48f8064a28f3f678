"""Tests for service observability: /metrics, uptime, trace ids.

These follow the patterns of ``test_service.py`` — a stubbed
``execute_point`` (from :mod:`tests.service_doubles`, importable by the
service's pool workers) behind the real engine and HTTP stack — because
the metrics under test are about the service machinery, not the
simulator.
"""

import asyncio
import json
import re
import socket
import time
from urllib.parse import urlsplit

import pytest

from repro.service import (
    SchemaError,
    ServiceConfig,
    SimulationService,
    parse_sweep_request,
)
from repro.service.cli import EphemeralServer, _format_duration
from repro.service.client import ServiceClient
from repro.service.server import _route_of
from repro.obs.metrics import validate_exposition
from tests.service_doubles import fake_execute


def _sweep(**overrides):
    payload = {"benchmarks": ["mcf"], "memory_refs": 500}
    payload.update(overrides)
    return payload


EXPECTED_FAMILIES = (
    "repro_job_queue_wait_seconds",
    "repro_point_seconds",
    "repro_http_request_seconds",
    "repro_http_requests_total",
    "repro_store_hits_total",
    "repro_store_misses_total",
    "repro_admission_rejected_total",
    "repro_watchdog_timeouts_total",
    "repro_queued_jobs",
    "repro_uptime_seconds",
)


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


# ---------------------------------------------------------------------------
# schema: trace_id validation
# ---------------------------------------------------------------------------


class TestTraceIdSchema:
    def test_valid_trace_id_round_trips(self):
        request = parse_sweep_request(_sweep(trace_id="exp-42.rerun:3"))
        assert request.trace_id == "exp-42.rerun:3"
        assert request.to_dict()["trace_id"] == "exp-42.rerun:3"

    def test_omitted_trace_id_is_none_and_not_serialized(self):
        request = parse_sweep_request(_sweep())
        assert request.trace_id is None
        assert "trace_id" not in request.to_dict()

    def test_empty_trace_id_rejected(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_sweep_request(_sweep(trace_id=""))
        assert any(e["field"] == "trace_id" for e in excinfo.value.errors)

    def test_overlong_trace_id_rejected(self):
        with pytest.raises(SchemaError):
            parse_sweep_request(_sweep(trace_id="x" * 129))

    def test_bad_characters_rejected(self):
        for bad in ("has space", "new\nline", "unicode-é", "semi;colon"):
            with pytest.raises(SchemaError):
                parse_sweep_request(_sweep(trace_id=bad))

    def test_non_string_rejected(self):
        with pytest.raises(SchemaError):
            parse_sweep_request(_sweep(trace_id=123))


# ---------------------------------------------------------------------------
# engine: trace_id propagation and uptime
# ---------------------------------------------------------------------------


def _journal_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestEngineObservability:
    def _run(self, tmp_path, monkeypatch, payload):
        monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            cache_dir=str(tmp_path / "cache"),
        )
        out = {}

        async def scenario():
            service = SimulationService(config)
            await service.start()
            try:
                job = service.submit(parse_sweep_request(payload))
                await service.wait_for(job.id, timeout=60)
                out["job"] = job
                out["stats"] = service.stats()
                out["metrics"] = service.render_metrics()
            finally:
                await service.stop()

        asyncio.run(scenario())
        return out

    def test_trace_id_in_summary_and_journal(self, tmp_path, monkeypatch):
        out = self._run(tmp_path, monkeypatch, _sweep(trace_id="trace-me"))
        assert out["job"].trace_id == "trace-me"
        assert out["job"].summary()["trace_id"] == "trace-me"
        submitted = [
            e for e in _journal_events(tmp_path / "journal.jsonl")
            if e.get("event") == "job-submitted"
        ]
        assert submitted and submitted[0]["trace_id"] == "trace-me"

    def test_trace_id_defaults_to_job_id(self, tmp_path, monkeypatch):
        out = self._run(tmp_path, monkeypatch, _sweep())
        assert out["job"].trace_id == out["job"].id

    def test_stats_carry_uptime_and_latency_summaries(self, tmp_path, monkeypatch):
        out = self._run(tmp_path, monkeypatch, _sweep())
        stats = out["stats"]
        assert stats["uptime_seconds"] >= 0
        assert stats["started_at"].endswith("+00:00")
        latency = stats["latency"]
        assert latency["point_seconds"]["count"] >= 1
        assert latency["job_queue_wait_seconds"]["count"] >= 1
        assert latency["point_seconds"]["p50"] <= latency["point_seconds"]["p99"]

    def test_engine_metrics_are_valid_exposition(self, tmp_path, monkeypatch):
        out = self._run(tmp_path, monkeypatch, _sweep())
        problems = validate_exposition(
            out["metrics"], expect_families=["repro_points_simulated_total"]
        )
        assert problems == []
        assert "repro_points_simulated_total 1" in out["metrics"]

    def test_job_gauge_follows_every_transition(self, tmp_path):
        """A state a job leaves reads 0 on the next scrape, and the gauge
        agrees with ``stats()["jobs"]`` at every step."""
        service = SimulationService(
            ServiceConfig(
                journal_path=str(tmp_path / "journal.jsonl"),
                cache_dir=str(tmp_path / "cache"),
            )
        )

        def scrape():
            text = service.render_metrics()
            gauge = {
                line.split('"')[1]: int(float(line.rsplit(" ", 1)[1]))
                for line in text.splitlines()
                if line.startswith("repro_jobs{")
            }
            assert gauge == service.stats()["jobs"]
            return gauge

        try:
            service.submit(parse_sweep_request(_sweep()))
            assert scrape()["queued"] == 1
            job = service.queue.pop()
            assert scrape()["running"] == 1
            service.queue.complete(job)
            assert scrape() == {
                "queued": 0, "running": 0, "completed": 1,
                "failed": 0, "cancelled": 0,
            }
        finally:
            service.queue.close()

    def test_trace_id_survives_journal_replay(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
        config = ServiceConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            cache_dir=str(tmp_path / "cache"),
        )

        async def first():
            service = SimulationService(config)
            await service.start()
            try:
                job = service.submit(
                    parse_sweep_request(_sweep(trace_id="persist-1"))
                )
                await service.wait_for(job.id, timeout=60)
                return job.id
            finally:
                await service.stop()

        async def second(job_id):
            service = SimulationService(config)
            await service.start()
            try:
                return service.queue.jobs[job_id].trace_id
            finally:
                await service.stop()

        job_id = asyncio.run(first())
        assert asyncio.run(second(job_id)) == "persist-1"


# ---------------------------------------------------------------------------
# HTTP: /metrics endpoint and instrumentation
# ---------------------------------------------------------------------------


class TestMetricsEndpoint:
    def test_scrape_is_valid_exposition(self, http_service):
        job = http_service.submit(_sweep(seed=3))
        http_service.wait(job["id"], timeout=60)
        text = http_service.metrics()
        assert validate_exposition(text, expect_families=EXPECTED_FAMILIES) == []

    def test_content_type_is_prometheus(self, http_service):
        import urllib.request

        with urllib.request.urlopen(
            http_service.base_url + "/metrics", timeout=10
        ) as response:
            assert response.headers["Content-Type"] == (
                "text/plain; version=0.0.4; charset=utf-8"
            )

    def test_http_requests_counted_by_normalized_route(self, http_service):
        job = http_service.submit(_sweep(seed=5))
        http_service.wait(job["id"], timeout=60)
        text = http_service.metrics()
        # polling /v1/jobs/<id> must collapse into one labeled series.
        assert 'route="/v1/jobs/{id}"' in text
        assert job["id"] not in text

    def test_store_and_point_metrics_reflect_work(self, http_service):
        payload = _sweep(seed=8)
        http_service.wait(http_service.submit(payload)["id"], timeout=60)
        http_service.wait(http_service.submit(payload)["id"], timeout=60)
        text = http_service.metrics()
        assert "repro_points_simulated_total 1" in text
        hits = [
            line for line in text.splitlines()
            if line.startswith("repro_store_hits_total{")
        ]
        assert any(int(float(line.rsplit(" ", 1)[1])) >= 1 for line in hits)

    def test_stats_uptime_grows(self, http_service):
        first = http_service.stats()["uptime_seconds"]
        time.sleep(0.05)
        second = http_service.stats()["uptime_seconds"]
        assert second > first


    def test_junk_methods_share_one_label(self, http_service):
        """A method the router does not serve is labeled ``other``: 50
        junk methods mint at most one new ``method`` label."""

        def methods():
            return {
                label
                for line in http_service.metrics().splitlines()
                if line.startswith(("repro_http_requests_total{",
                                    "repro_http_request_seconds_count{"))
                for label in re.findall(r'method="([^"]*)"', line)
            }

        assert http_service.healthy()  # a GET is labeled before the junk
        before = methods()
        parts = urlsplit(http_service.base_url)
        for index in range(50):
            with socket.create_connection(
                (parts.hostname, parts.port), timeout=10
            ) as sock:
                sock.sendall(f"M{index} /healthz HTTP/1.1\r\n\r\n".encode())
                assert sock.recv(64).startswith(b"HTTP/1.1 405 ")
        assert len(methods() - before) <= 1


class TestRouteNormalization:
    def test_known_routes_verbatim(self):
        for path in ("/healthz", "/metrics", "/v1/stats", "/v1/sweeps", "/v1/jobs"):
            assert _route_of(path) == path

    def test_job_routes_collapse(self):
        assert _route_of("/v1/jobs/job-1-abc") == "/v1/jobs/{id}"
        assert _route_of("/v1/jobs/job-1-abc/stream") == "/v1/jobs/{id}/stream"

    def test_unknown_routes_bucketed(self):
        assert _route_of("/v2/whatever") == "other"
        assert _route_of("/../../etc/passwd") == "other"

    def test_trailing_slash_normalized(self):
        assert _route_of("/healthz/") == "/healthz"
        assert _route_of("/") == "other"


class TestFormatDuration:
    def test_formats(self):
        assert _format_duration(0) == "0s"
        assert _format_duration(59.9) == "59s"
        assert _format_duration(61) == "1m 1s"
        assert _format_duration(3600) == "1h 0s"
        assert _format_duration(93784.2) == "1d 2h 3m 4s"
        assert _format_duration(-5) == "0s"
