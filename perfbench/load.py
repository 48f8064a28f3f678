"""Closed-loop HTTP clients of the ``service_mixed`` workload.

Each client thread submits one seeded sweep, follows the job's
Server-Sent Events stream to its terminal event, fetches the results,
checks them against the goldens, and only then submits its next sweep:
a closed loop, because the service's callers are researchers who each
wait for their sweep.  Completion is read from the SSE stream, never by
polling, so no poll interval quantizes the latencies.

The sweeps draw 1-3 benchmarks from {swim, mcf, facerec} and 1-2
configs from {baseline, prefetch, chargecache}: nine distinct points,
all covered by the goldens, shared heavily across jobs.  A job is
*warm* when every one of its points had already come back in some
completed job before it was submitted.

Plain ``http.client`` is used on purpose: the benchmark measures the
service from outside and shares no client code with it.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

BENCHMARKS = ("swim", "mcf", "facerec")
#: request overrides per golden section; the section of a result is
#: found from the config digest the service reports, not from this map.
CONFIGS = {
    "baseline": {},
    "prefetch": {"prefetch": {"enabled": True}},
    "chargecache": {"dram": {"backend": "chargecache"}},
}


class Refused(Exception):
    """The service answered with an unexpected status, or not at all."""


def request(port: int, method: str, path: str, body=None, timeout: float = 60.0):
    """One request on a fresh connection (the server closes each one)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def terminal_state(port: int, job_id: str, timeout: float = 60.0) -> str:
    """Follow the job's SSE stream until its terminal ``job`` event."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/stream")
        response = conn.getresponse()
        if response.status != 200:
            raise Refused(f"stream HTTP {response.status}")
        for raw in response:
            line = raw.decode("utf-8").strip()
            if line.startswith("data: "):
                event = json.loads(line[len("data: "):])
                if event.get("type") == "job":
                    return event["state"]
        raise Refused("stream ended without a terminal event")
    finally:
        conn.close()


@dataclass
class Outcome:
    """One job as the client saw it."""

    warm: bool
    points: Tuple[Tuple[str, str], ...]
    latency_ms: float = 0.0
    error: Optional[str] = None
    #: (benchmark, config digest) -> stats, for completed jobs.
    results: Dict[Tuple[str, str], dict] = field(default_factory=dict)


class LoadGenerator:
    """``clients`` threads sharing ``jobs`` sweeps, all against one port."""

    def __init__(self, port, goldens, seed, jobs, tracer, clients=2) -> None:
        self.port = port
        self.goldens = goldens
        self.seed = seed
        self.jobs = jobs
        self.tracer = tracer
        self.clients = clients
        self.outcomes: List[Outcome] = []
        #: (thread start, thread end, thread ident) per client.
        self.windows: List[Tuple[float, float, int]] = []
        self._done: set = set()
        self._lock = threading.Lock()

    def run(self) -> List[Outcome]:
        threads = [
            threading.Thread(target=self._client, args=(index,), daemon=True)
            for index in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return self.outcomes

    def _client(self, index: int) -> None:
        start = time.monotonic()
        rng = random.Random(f"{self.seed}:{index}")
        share = self.jobs // self.clients + (index < self.jobs % self.clients)
        for _ in range(share):
            benchmarks = rng.sample(BENCHMARKS, rng.randint(1, len(BENCHMARKS)))
            sections = rng.sample(sorted(CONFIGS), rng.randint(1, 2))
            outcome = self._job(benchmarks, sections)
            with self._lock:
                self.outcomes.append(outcome)
        with self._lock:
            self.windows.append((start, time.monotonic(), threading.get_ident()))

    def _job(self, benchmarks: List[str], sections: List[str]) -> Outcome:
        points = tuple(
            (name, self.goldens.digest_of(section))
            for section in sections
            for name in benchmarks
        )
        with self._lock:
            warm = self._done.issuperset(points)
        outcome = Outcome(warm=warm, points=points)
        payload = {
            "benchmarks": benchmarks,
            "configs": [CONFIGS[section] for section in sections],
            "memory_refs": self.goldens.memory_refs,
            "seed": self.goldens.seed,
        }
        tracer = self.tracer
        started = time.perf_counter()
        try:
            with tracer.span("client.job") as job_span:
                job_span["warm"] = warm
                with tracer.span("service.submit") as submit_span:
                    status, body = request(self.port, "POST", "/v1/sweeps", payload)
                if status != 202:
                    raise Refused(f"submit HTTP {status}: {body[:200]!r}")
                job_id = json.loads(body)["id"]
                job_span["job"] = submit_span["job"] = job_id
                with tracer.span("service.stream"):
                    state = terminal_state(self.port, job_id)
                with tracer.span("service.results"):
                    status, body = request(self.port, "GET", f"/v1/jobs/{job_id}")
                    document = json.loads(body) if status == 200 else {}
                outcome.latency_ms = (time.perf_counter() - started) * 1e3
                with tracer.span("bench.verify"):
                    outcome.error = self._verify(state, status, document, outcome)
        except (
            OSError, http.client.HTTPException, ValueError, KeyError, TypeError, Refused
        ) as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
        if outcome.error is None:
            with self._lock:
                self._done.update(points)
        return outcome

    def _verify(self, state, status, document, outcome) -> Optional[str]:
        """Why the job failed, or None when every result matches its golden."""
        if state != "completed":
            return f"job ended {state}"
        if status != 200 or document.get("state") != "completed":
            return f"results HTTP {status}, state {document.get('state')}"
        entries = document.get("results") or []
        seen = {}
        for entry in entries:
            key = (entry["benchmark"], entry["config_digest"])
            if (entry["memory_refs"], entry["seed"]) != (
                self.goldens.memory_refs,
                self.goldens.seed,
            ):
                return f"{key[0]}: served the wrong point"
            why = self.goldens.mismatch(key[0], key[1], entry["stats"])
            if why is not None:
                return why
            seen[key] = entry["stats"]
        if len(entries) != len(outcome.points) or set(seen) != set(outcome.points):
            return "results do not cover the requested points"
        outcome.results = seen
        return None
