"""Stdlib-only asyncio HTTP front end for the simulation service.

A deliberately small HTTP/1.1 implementation over
``loop.create_server`` — no framework, no dependency beyond the
standard library, matching the project's constraint that everything
runs in the simulator's own minimal environment.

Routes (all JSON unless noted):

========  ==========================  =====================================
method    path                        meaning
========  ==========================  =====================================
GET       ``/healthz``                liveness probe
GET       ``/v1/contract``            machine-readable request contract
GET       ``/v1/stats``               service counters (queue/store/flight)
GET       ``/metrics``                Prometheus text exposition (not JSON)
POST      ``/v1/sweeps``              submit a sweep → ``202`` + job id,
                                      ``400`` with field-addressed errors,
                                      ``429`` + ``Retry-After`` when
                                      admission control refuses, or
                                      ``503`` while draining
GET       ``/v1/jobs``                every live job's summary, then the
                                      newest finished jobs', up to
                                      :data:`MAX_LISTED_JOBS` in all;
                                      ``held`` counts the jobs held
GET       ``/v1/jobs/<id>``           one job; includes per-point results
                                      once completed
GET       ``/v1/jobs/<id>/stream``    Server-Sent Events progress stream
DELETE    ``/v1/jobs/<id>``           cancel a queued *or running* job
========  ==========================  =====================================

Every connection handles one request and closes — the clients here are
pollers and scripts, not browsers, and one-shot connections keep the
server trivially correct.  Each connection is one
:class:`asyncio.Protocol` that buffers the head and its
``Content-Length`` body as they arrive and answers from
``data_received`` through one synchronous router
(:meth:`ServiceServer._dispatch`); bytes past the first request are
ignored.  One deadline per connection (:data:`REQUEST_TIMEOUT`) covers
head and body together: a request still incomplete when it fires, a
head over :data:`MAX_HEAD_BYTES` and any malformed request are answered
``400``.  Only the Server-Sent Events stream of a job that is not yet
terminal runs as a task, and it writes with the transport's
backpressure (``pause_writing``/``resume_writing``).  Every other
answer is written inline with no task, a finished job's stream
(its snapshot and terminal event in one response) and ``DELETE``
included.

Two robustness notes.  A 500 body never echoes internal exception text
(the traceback goes to the log; the client gets a generic message and
should not be handed implementation details).  And the deterministic
chaos harness can schedule a ``drop`` fault against a request path —
the connection is aborted before any response bytes, exercising every
client's mid-request disconnect handling.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from typing import Awaitable, Callable, Dict, Optional, Tuple, Union

from repro.obs.log import get_logger
from repro.runner import faults
from repro.service.engine import AdmissionError, SimulationService
from repro.service.queue import JobState
from repro.service.schema import SchemaError, contract_description

__all__ = ["ServiceServer"]

_log = get_logger("repro.service")

#: refuse request bodies beyond this size (a full 512-point sweep with
#: generous config payloads fits in a few tens of kilobytes).
MAX_BODY_BYTES = 1 << 20

#: refuse request heads (request line and headers) beyond this size.
MAX_HEAD_BYTES = 1 << 16

#: seconds a connection has to deliver its whole request, head and body.
REQUEST_TIMEOUT = 10.0

#: ``GET /v1/jobs`` lists every live job, then the newest finished ones
#: while the list is shorter than this.
MAX_LISTED_JOBS = 1000

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _http(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: str = "",
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra_headers}"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _response(
    status: int, payload: Dict[str, object], extra_headers: str = ""
) -> bytes:
    return _http(status, json.dumps(payload).encode("utf-8"),
                 extra_headers=extra_headers)


#: Prometheus text exposition format version (the standard 0.0.4 type).
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_MALFORMED = _response(400, {"error": "malformed-request"})
_INTERNAL = _response(
    500, {"error": "internal", "message": "internal error; see server log"}
)
_SSE_HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/event-stream\r\n"
    b"Cache-Control: no-cache\r\n"
    b"Connection: close\r\n\r\n"
)


def _sse(event: Dict[str, object]) -> bytes:
    return f"data: {json.dumps(event)}\n\n".encode("utf-8")


def _route_of(path: str) -> str:
    """Normalize a request path to a bounded-cardinality metric label.

    Job ids must not mint one time series each, and unknown paths all
    collapse into a single ``other`` bucket.
    """
    path = path.rstrip("/") or "/"
    if path in ("/healthz", "/metrics", "/v1/contract", "/v1/stats",
                "/v1/sweeps", "/v1/jobs"):
        return path
    if path.startswith("/v1/jobs/"):
        return "/v1/jobs/{id}/stream" if path.endswith("/stream") else "/v1/jobs/{id}"
    return "other"


def _parse_head(head: str) -> Optional[Tuple[str, str, int]]:
    """Method, path and body length of a request head; None if malformed."""
    lines = head.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        return None
    value = "0"
    for line in lines[1:]:
        name, colon, field = line.partition(":")
        if colon and name.strip().lower() == "content-length":
            value = field.strip()  # the last one counts
    try:
        length = int(value or "0")
    except ValueError:
        return None  # malformed Content-Length is the client's 400
    if length < 0 or length > MAX_BODY_BYTES:
        return None
    return parts[0].upper(), parts[1].split("?", 1)[0], length


#: the router's answer: a whole response, or the coroutine function that
#: streams one over the connection and returns its status.
Answer = Union[bytes, Callable[["_Connection"], Awaitable[int]]]


class _Connection(asyncio.Protocol):
    """One connection: buffer one request, answer it, close."""

    def __init__(self, server: "ServiceServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.started = 0.0
        #: method and route the HTTP metrics file the request under.
        self.label: Tuple[str, str] = ("GET", "malformed")
        self._buffer = bytearray()
        #: method, path, body offset and body length, once the head is in.
        self._head: Optional[Tuple[str, str, int, int]] = None
        self._deadline: Optional[asyncio.TimerHandle] = None
        self._answered = False
        self._stream: Optional["asyncio.Task"] = None
        self._paused = False
        self._resumed: Optional["asyncio.Future"] = None

    # -- asyncio.Protocol ----------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.started = time.monotonic()
        self._deadline = asyncio.get_running_loop().call_later(
            REQUEST_TIMEOUT, self._reject
        )

    def data_received(self, data: bytes) -> None:
        if self._answered:
            return  # one request per connection: the rest is ignored
        buffer = self._buffer
        scanned = len(buffer)
        if not scanned:
            # handling, and its latency metric, starts with the first byte
            self.started = time.monotonic()
        buffer += data
        if self._head is None:
            end = buffer.find(b"\r\n\r\n", max(0, scanned - 3))
            if end < 0:
                if len(buffer) >= MAX_HEAD_BYTES:
                    self._reject()
                return
            request = (
                _parse_head(buffer[:end].decode("latin-1"))
                if end + 4 <= MAX_HEAD_BYTES else None
            )
            if request is None:
                self._reject()
                return
            method, path, length = request
            self._head = (method, path, end + 4, length)
        method, path, start, length = self._head
        if len(buffer) - start < length:
            return  # the body is still arriving
        body = None
        if length:
            try:
                body = json.loads(buffer[start:start + length])
            except ValueError:
                self._reject()
                return
        self._answer(method, path, body)

    def eof_received(self) -> bool:
        # a client may half-close once its request is sent and still
        # read the answer; one that closes before that gets none
        return self._answered

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._deadline.cancel()
        if self._stream is not None:
            # a client gone mid-stream releases its watcher now
            self._stream.cancel()

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        if self._resumed is not None and not self._resumed.done():
            self._resumed.set_result(None)

    # -- answering -----------------------------------------------------------

    async def drain(self) -> None:
        """Wait while the transport's write buffer is over its limit."""
        if self.transport.is_closing():
            raise ConnectionResetError("connection lost")
        if self._paused:
            self._resumed = asyncio.get_running_loop().create_future()
            await self._resumed

    def _reject(self) -> None:
        """Answer a malformed, oversized or overdue request with 400."""
        self._answered = True
        self._deadline.cancel()
        self._finish(_MALFORMED)

    def _answer(
        self, method: str, path: str, body: Optional[Dict[str, object]]
    ) -> None:
        self._answered = True
        self._deadline.cancel()
        server = self.server
        if server._drop_planned(path):
            # injected mid-request connection drop: abort with no
            # response bytes, like a crashed proxy would.
            self.transport.abort()
            return
        self.label = (method, _route_of(path))
        try:
            answer = server._dispatch(method, path, body)
        except Exception as exc:  # never kill the connection's protocol
            answer = _internal_error(exc)
        if isinstance(answer, bytes):
            self._finish(answer)
        else:
            self._stream = asyncio.get_running_loop().create_task(
                self._run_stream(answer)
            )

    def _finish(self, response: bytes) -> None:
        self.transport.write(response)
        self.transport.close()
        self._observe(int(response[9:12]))

    async def _run_stream(
        self, stream: Callable[["_Connection"], Awaitable[int]]
    ) -> None:
        status = 0
        try:
            status = await stream(self)
        except ConnectionError:
            pass
        except Exception as exc:
            status = 500
            self.transport.write(_internal_error(exc))
        finally:
            self.transport.close()
            if status:
                self._observe(status)

    def _observe(self, status: int) -> None:
        method, route = self.label
        self.server.service.observe_http(
            method, route, status, time.monotonic() - self.started
        )


def _internal_error(exc: Exception) -> bytes:
    # full detail to the log; a deliberately generic body to the
    # client — internal exception text is not part of the API.
    _log.warning(f"[service] request failed: {type(exc).__name__}: {exc}")
    return _INTERNAL


class ServiceServer:
    """Bind a :class:`SimulationService` to a TCP port."""

    def __init__(
        self, service: SimulationService, host: str = "127.0.0.1", port: int = 8642
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: per-path request counters for deterministic ``drop`` faults.
        self._path_counts: Dict[str, int] = {}

    @property
    def bound_port(self) -> int:
        """The actual port (useful when constructed with ``port=0``)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self.bound_port
        _log.info(f"[service] listening on http://{self.host}:{self.port}")

    async def stop(
        self, drain: bool = False, deadline: Optional[float] = None
    ) -> None:
        """Stop listening, then stop the engine (optionally draining).

        The listener closes *first* in both modes, so a drain never
        races new submissions — see
        :meth:`repro.service.engine.SimulationService.stop`.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop(drain=drain, deadline=deadline)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- request handling --------------------------------------------------

    def _drop_planned(self, path: str) -> bool:
        """True when the fault plan drops this occurrence of ``path``."""
        path = path.rstrip("/") or "/"
        occurrence = self._path_counts.get(path, 0)
        self._path_counts[path] = occurrence + 1
        return faults.service_fault("drop", path, occurrence) is not None

    def _dispatch(
        self, method: str, path: str, body: Optional[Dict[str, object]]
    ) -> Answer:
        if method == "GET" and path.rstrip("/").endswith("/stream"):
            return self._stream(path)
        path = path.rstrip("/") or "/"
        service = self.service
        if path == "/healthz" and method == "GET":
            return _response(200, {"ok": True})
        if path == "/v1/contract" and method == "GET":
            return _response(200, contract_description(service.config.limits()))
        if path == "/v1/stats" and method == "GET":
            return _response(200, service.stats())
        if path == "/metrics" and method == "GET":
            return _http(
                200, service.render_metrics().encode("utf-8"), _METRICS_CONTENT_TYPE
            )
        if path == "/v1/sweeps":
            if method != "POST":
                return _response(405, {"error": "method-not-allowed"})
            if body is None:
                return _response(
                    400, {"error": "invalid-request",
                          "errors": [{"field": "<root>",
                                      "message": "a JSON body is required"}]}
                )
            try:
                job = service.submit_payload(body)
            except SchemaError as exc:
                return _response(400, exc.to_dict())
            except AdmissionError as exc:
                status = 503 if exc.reason == "draining" else 429
                return _response(
                    status,
                    exc.to_dict(),
                    extra_headers=f"Retry-After: {exc.retry_after}\r\n",
                )
            return _response(202, job.summary())
        if path == "/v1/jobs" and method == "GET":
            queue = service.queue
            return _response(
                200,
                {"jobs": [job.summary() for job in queue.listed(MAX_LISTED_JOBS)],
                 "held": len(queue.jobs)},
            )
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            if method == "GET":
                job = service.job(job_id)
                if job is None:
                    return _response(404, {"error": "no-such-job", "id": job_id})
                return _http(200, service.status_json(job).encode("utf-8"))
            if method == "DELETE":
                cancelled = service.cancel_job(job_id)
                if cancelled is None:
                    return _response(404, {"error": "no-such-job", "id": job_id})
                if cancelled:
                    return _response(200, {"id": job_id, "state": "cancelled"})
                return _response(
                    409,
                    {"error": "not-cancellable", "id": job_id,
                     "state": service.queue.jobs[job_id].state},
                )
            return _response(405, {"error": "method-not-allowed"})
        return _response(404, {"error": "no-such-route", "path": path})

    def _stream(self, path: str) -> Answer:
        """Server-Sent Events: one ``data:`` line per progress event.

        A finished job's snapshot and terminal event go out in one
        response; a live job's stream runs as the connection's task.
        """
        job_id = path.rstrip("/")[len("/v1/jobs/"):-len("/stream")].rstrip("/")
        job = self.service.job(job_id)
        if job is None:
            return _response(404, {"error": "no-such-job", "id": job_id})
        if job.state in JobState.TERMINAL:
            return _SSE_HEAD + b"".join(map(_sse, self.service.events_since(job)))
        return functools.partial(self._follow, job_id)

    async def _follow(self, job_id: str, conn: _Connection) -> int:
        conn.transport.write(_SSE_HEAD)
        watcher = self.service.watch(job_id)
        try:
            async for event in watcher:
                conn.transport.write(_sse(event))
                await conn.drain()
        finally:
            # a client that disconnects mid-stream must not leave the
            # watcher parked on the progress event: close it here,
            # deterministically, instead of waiting on the GC.
            await watcher.aclose()
        return 200
