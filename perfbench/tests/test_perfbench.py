"""Tests of the benchmark's own accounting; no simulation runs here.

    python3 -m pytest perfbench/tests -q

They pin down that every kind of failure the benchmark is meant to
catch counts as a failed operation: a result that differs from its
golden, an exception from ``run_points``, a job that ends other than
``completed``, and a refused submission.
"""

from __future__ import annotations

import copy
import http.server
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import sweep_child  # noqa: E402
from golden import Goldens  # noqa: E402
from load import CONFIGS, LoadGenerator  # noqa: E402
from tracing import NullTracer, Tracer, by_layer, uncovered  # noqa: E402


@pytest.fixture(scope="module")
def goldens():
    return Goldens(ROOT)


def _perturbed(stats: dict) -> dict:
    wrong = copy.deepcopy(stats)
    wrong["cycles"] += 1
    return wrong


# -- goldens and the sweep driver's check ---------------------------------


def test_golden_match_and_mismatch(goldens):
    digest = goldens.digest_of("prefetch")
    expected = goldens.sections["prefetch"]["mcf"]
    assert goldens.mismatch("mcf", digest, copy.deepcopy(expected)) is None
    assert "cycles" in goldens.mismatch("mcf", digest, _perturbed(expected))
    assert goldens.mismatch("mcf", "0" * 64, expected) is not None


class _Config:
    def __init__(self, digest):
        self._digest = digest

    def digest(self):
        return self._digest


class _Point:
    def __init__(self, benchmark, digest):
        self.benchmark = benchmark
        self.config = _Config(digest)


class _Stats:
    def __init__(self, data):
        self._data = data

    def to_dict(self):
        return self._data


def test_sweep_check_counts_each_mismatching_point(goldens):
    points, results = [], []
    for section in ("baseline", "tldram"):
        for name in ("swim", "eon"):
            points.append(_Point(name, goldens.digest_of(section)))
            results.append(_Stats(copy.deepcopy(goldens.sections[section][name])))
    assert sweep_child._check(goldens, points, results, None) == (0, [])
    results[1] = _Stats(_perturbed(results[1].to_dict()))
    failed, reasons = sweep_child._check(goldens, points, results, None)
    assert failed == 1 and "eon" in reasons[0]


def test_sweep_exception_fails_every_point(goldens):
    points = [_Point("swim", goldens.digest_of("baseline"))] * 3
    failed, reasons = sweep_child._check(goldens, points, None, "PointFailureError: x")
    assert failed == 3 and reasons == ["PointFailureError: x"]


# -- the service client against a scripted server -------------------------


class _Scripted(http.server.ThreadingHTTPServer):
    """Speaks the service's job routes; ``mode`` picks how it misbehaves."""

    daemon_threads = True

    def __init__(self, goldens, mode):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.goldens = goldens
        self.mode = mode
        self.jobs = {}


class _Handler(http.server.BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _send(self, status, payload, content_type="application/json"):
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.server.mode == "refuse":
            self._send(429, {"error": "queue-full"})
            return
        job_id = f"job-{len(self.server.jobs)}"
        self.server.jobs[job_id] = payload
        self._send(202, {"id": job_id, "state": "queued"})

    def do_GET(self):
        job_id = self.path.split("/")[3]
        state = "failed" if self.server.mode == "fail" else "completed"
        if self.path.endswith("/stream"):
            event = json.dumps({"type": "job", "id": job_id, "state": state})
            self._send(200, f"data: {event}\n\n".encode(), "text/event-stream")
            return
        goldens, payload = self.server.goldens, self.server.jobs[job_id]
        results = []
        for overrides in payload["configs"]:
            section = next(k for k, v in CONFIGS.items() if v == overrides)
            for name in payload["benchmarks"]:
                stats = copy.deepcopy(goldens.sections[section][name])
                if self.server.mode == "mismatch" and name == "mcf":
                    stats = _perturbed(stats)
                results.append(
                    {
                        "benchmark": name,
                        "config_digest": goldens.digest_of(section),
                        "memory_refs": goldens.memory_refs,
                        "seed": goldens.seed,
                        "stats": stats,
                    }
                )
        self._send(200, {"id": job_id, "state": state, "results": results})


def _drive(goldens, mode, jobs=12, tracer=None):
    server = _Scripted(goldens, mode)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        load = LoadGenerator(
            server.server_address[1], goldens, seed=3, jobs=jobs,
            tracer=tracer or NullTracer(),
        )
        return load, load.run()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_completed_jobs_pass_and_later_ones_are_warm(goldens):
    _, outcomes = _drive(goldens, "ok")
    assert len(outcomes) == 12
    assert all(o.error is None for o in outcomes)
    assert any(o.warm for o in outcomes) and not all(o.warm for o in outcomes)


def test_refused_submission_is_a_failure(goldens):
    _, outcomes = _drive(goldens, "refuse")
    assert len(outcomes) == 12
    assert all("submit HTTP 429" in o.error for o in outcomes)
    assert not any(o.warm for o in outcomes)


def test_failed_job_is_a_failure(goldens):
    _, outcomes = _drive(goldens, "fail")
    assert all(o.error == "job ended failed" for o in outcomes)


def test_stats_mismatch_fails_only_the_jobs_that_hold_it(goldens):
    _, outcomes = _drive(goldens, "mismatch", jobs=40)
    with_mcf = [o for o in outcomes if any(b == "mcf" for b, _ in o.points)]
    assert with_mcf and all("mcf" in o.error for o in with_mcf)
    assert all(o.error is None for o in outcomes if o not in with_mcf)


def test_failures_reach_the_result_line(goldens):
    _, outcomes = _drive(goldens, "refuse", jobs=4)

    def rep(attempted, failed, checks=None):
        return bench.Rep(
            wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, setup_s=1.0,
            attempted=attempted, failed=failed, errors=[], checks=checks or {},
        )

    refused = rep(len(outcomes), sum(o.error is not None for o in outcomes))
    clean = rep(24, 0)
    units = {"wall_s": "s"}
    result = bench.summarize([clean, refused], {"wall_s": 1.0}, units)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 28, 4)
    assert bench.summarize([clean], {"wall_s": 1.0}, units)["correct"] is True
    # a check that failed in any repetition fails the run
    broken = [rep(24, 0, {"points_simulated_once": ok}) for ok in (False, True)]
    assert bench.summarize(broken, {"wall_s": 1.0}, units)["correct"] is False
    with pytest.raises(bench.BenchError):
        bench.summarize([clean], {}, units)


# -- tracing ---------------------------------------------------------------


def test_client_spans_cover_the_window(goldens):
    tracer = Tracer(run="client")
    load, _ = _drive(goldens, "ok", jobs=6, tracer=tracer)
    layers = by_layer(tracer.spans)
    assert layers["client.job"]["calls"] == 6
    assert layers["service.submit"]["calls"] == 6
    # every span of a job carries the id the service gave it
    assert all(s["job"] and s["job"].startswith("job-") for s in tracer.spans)
    for start, end, ident in load.windows:
        mine = [s for s in tracer.spans if s["thread"] == ident]
        assert 0.0 <= uncovered(mine, start, end) < end - start


def test_self_time_excludes_children():
    spans = [
        {"id": 0, "name": "outer", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "inner", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "inner", "parent": 0, "start": 5.0, "end": 6.0},
    ]
    layers = by_layer(spans)
    assert layers["outer"]["self"] == pytest.approx(6.0)
    assert layers["inner"] == {"calls": 2, "total": 4.0, "self": 4.0}
    assert uncovered(spans, -1.0, 12.0) == pytest.approx(3.0)


def test_wrap_records_and_skips_nested_runs():
    tracer = Tracer()

    class Kernel:
        def run(self, trace):
            return len(trace)

        def warmup(self, trace):
            self.run(trace)

    tracer.wrap(Kernel, "warmup", "sim.warmup")
    tracer.wrap(Kernel, "run", "sim.measure", skip_inside=("sim.warmup",))
    kernel = Kernel()
    kernel.warmup([1, 2])
    assert kernel.run([1, 2, 3]) == 3
    assert [s["name"] for s in tracer.spans] == ["sim.warmup", "sim.measure"]


# -- the harness itself ----------------------------------------------------


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
