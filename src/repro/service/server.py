"""Stdlib-only asyncio HTTP front end for the simulation service.

A deliberately small HTTP/1.1 implementation on non-blocking sockets
and the event loop's reader callbacks — no framework, no dependency
beyond the standard library, matching the project's constraint that
everything runs in the simulator's own minimal environment.

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

One table (:data:`ROUTES`) holds these routes and their methods: a
known path asked with another method gets ``405`` and an ``Allow``
header, an unknown path ``404``, and the HTTP metrics label requests by
that table's routes and methods (any other method is ``other``).
``Retry-After`` is whole seconds, rounded up; the JSON body's
``retry_after`` keeps the precise hint.

Every connection handles one request and closes — the clients here are
pollers and scripts, not browsers, and one-shot connections keep the
server trivially correct.  There is no transport or protocol object
and no task per connection.  The listening socket's reader callback
accepts the waiting connections (at most :data:`MAX_ACCEPTS` a
wake-up) and reads each one at once; a request already complete, as
most are, is parsed, routed through one synchronous router
(:meth:`ServiceServer._dispatch`) and answered with one ``send`` and a
close, all inside that callback.  An incomplete request gets a reader
on its socket and one deadline (:data:`REQUEST_TIMEOUT`) covering head
and body, and is answered the same way once complete.  A request still
incomplete when the deadline fires, a head over :data:`MAX_HEAD_BYTES`
and any malformed request are answered ``400``; a client that closes
before its request is complete gets no answer; bytes past the first
request are ignored.

Tasks remain in two places: a response the socket will not take in one
``send``, and the Server-Sent Events stream of a job not yet terminal.
Both write with ``loop.sock_sendall``, which waits while the socket's
buffer is full.  A stream's socket keeps a reader, so a client that
leaves mid-stream cancels the stream, and its watcher closes, at once.
A finished job's stream (its snapshot and terminal event in one
response) and ``DELETE`` are answered inline like any other request.
:meth:`ServiceServer.stop` closes the listener, stops the engine, then
closes every connection still open.

Two robustness notes.  A 500 body never echoes internal exception text
(the traceback goes to the log; the client gets a generic message and
should not be handed implementation details).  And the deterministic
chaos harness can schedule a ``drop`` fault against a request path —
the connection is closed before any response bytes, exercising every
client's mid-request disconnect handling.
"""

from __future__ import annotations

import asyncio
import errno
import functools
import json
import math
import socket
import time
from typing import Awaitable, Callable, Dict, List, Optional, Tuple, Union

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

#: connections accepted per wake-up of the listener (and its backlog).
MAX_ACCEPTS = 100

#: ``GET /v1/jobs`` lists every live job, then the newest finished ones
#: while the list is shorter than this.
MAX_LISTED_JOBS = 1000

#: every route the router serves and the methods it answers there;
#: :func:`_route_of` reduces a request path to one of these.
ROUTES: Dict[str, Tuple[str, ...]] = {
    "/healthz": ("GET",),
    "/metrics": ("GET",),
    "/v1/contract": ("GET",),
    "/v1/stats": ("GET",),
    "/v1/sweeps": ("POST",),
    "/v1/jobs": ("GET",),
    "/v1/jobs/{id}": ("GET", "DELETE"),
    "/v1/jobs/{id}/stream": ("GET",),
}

#: the methods the HTTP metrics label by name; any other is ``other``.
_METHODS = frozenset(method for methods in ROUTES.values() for method in methods)

#: bytes read from a connection at a time.
_RECV_BYTES = 1 << 16

#: accept errors after which the listener rests a while: it stays
#: readable, and retrying at once would spin.
_ACCEPT_PAUSE_ERRNOS = (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM)
_ACCEPT_PAUSE_SECONDS = 1.0

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
#: the metric labels of a request too malformed to have a method or route.
_MALFORMED_LABEL = ("GET", "malformed")
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
    """Normalize a request path to its route in :data:`ROUTES`, a
    bounded-cardinality metric label.

    Job ids must not mint one time series each, and unknown paths all
    collapse into a single ``other`` bucket.
    """
    path = path.rstrip("/") or "/"
    if path in ROUTES:
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
#: streams one over the connection's socket and returns its status.
Answer = Union[bytes, Callable[[socket.socket], Awaitable[int]]]


class _Request:
    """One connection's request as its bytes arrive."""

    __slots__ = ("sock", "buffer", "head", "started", "deadline")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = bytearray()
        #: method, path, body offset and body length, once the head is in.
        self.head: Optional[Tuple[str, str, int, int]] = None
        self.started = time.monotonic()
        #: set while the connection waits, with a reader, for more bytes.
        self.deadline: Optional[asyncio.TimerHandle] = None

    def take(self, data: bytes) -> Optional[Tuple[str, str, Optional[Dict[str, object]]]]:
        """Add ``data``; the request's method, path and body once it is
        whole, else None.  Raises ValueError for a malformed request."""
        buffer = self.buffer
        scanned = len(buffer)
        if not scanned:
            # handling, and its latency metric, starts with the first byte
            self.started = time.monotonic()
        buffer += data
        if self.head is None:
            end = buffer.find(b"\r\n\r\n", max(0, scanned - 3))
            if end < 0:
                if len(buffer) >= MAX_HEAD_BYTES:
                    raise ValueError("request head too large")
                return None
            request = (
                _parse_head(buffer[:end].decode("latin-1"))
                if end + 4 <= MAX_HEAD_BYTES else None
            )
            if request is None:
                raise ValueError("malformed request head")
            method, path, length = request
            self.head = (method, path, end + 4, length)
        method, path, start, length = self.head
        if len(buffer) - start < length:
            return None  # the body is still arriving
        return method, path, json.loads(buffer[start:start + length]) if length else None


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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: one listening socket per address the host resolves to.
        self._listeners: List[socket.socket] = []
        #: resolved by :meth:`stop`, which ends :meth:`serve_forever`.
        self._serving: Optional["asyncio.Future"] = None
        #: connections still open after the callback that accepted them:
        #: one waiting for the rest of its request, or one a task answers.
        self._open: Dict[socket.socket, Union[_Request, "asyncio.Task"]] = {}
        #: per-path request counters for deterministic ``drop`` faults.
        self._path_counts: Dict[str, int] = {}

    @property
    def bound_port(self) -> int:
        """The actual port (useful when constructed with ``port=0``)."""
        assert self._listeners, "server not started"
        return self._listeners[0].getsockname()[1]

    async def start(self) -> None:
        await self.service.start()
        self._loop = asyncio.get_running_loop()
        addresses = socket.getaddrinfo(
            self.host or None, self.port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE,
        )
        try:
            for family, _, _, _, address in addresses:
                listener = socket.create_server(
                    address, family=family, backlog=MAX_ACCEPTS
                )
                self._listeners.append(listener)
                listener.setblocking(False)
                self._listen(listener)
        except BaseException:
            self._close_listeners()
            raise
        self.port = self.bound_port
        _log.info(f"[service] listening on http://{self.host}:{self.port}")

    async def stop(
        self, drain: bool = False, deadline: Optional[float] = None
    ) -> None:
        """Stop listening, stop the engine (optionally draining), then
        close every connection still open.

        The listener closes *first* in both modes, so a drain never
        races new submissions — see
        :meth:`repro.service.engine.SimulationService.stop` — while a
        live stream keeps its connection through the drain.
        """
        self._close_listeners()
        try:
            await self.service.stop(drain=drain, deadline=deadline)
        finally:
            tasks = []
            for held in list(self._open.values()):
                if isinstance(held, _Request):
                    self._release(held)
                    held.sock.close()
                else:
                    held.cancel()
                    tasks.append(held)
            await asyncio.gather(*tasks, return_exceptions=True)

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop`; cancelling it closes the listener."""
        assert self._listeners, "call start() first"
        self._serving = self._loop.create_future()
        try:
            await self._serving
        finally:
            self._close_listeners()

    def _listen(self, listener: socket.socket) -> None:
        if listener in self._listeners:
            self._loop.add_reader(listener, self._accept, listener)

    def _close_listeners(self) -> None:
        for listener in self._listeners:
            self._loop.remove_reader(listener)
            listener.close()
        self._listeners = []
        if self._serving is not None and not self._serving.done():
            self._serving.set_result(None)

    # -- connections ---------------------------------------------------------

    def _accept(self, listener: socket.socket) -> None:
        """The listener's reader: take and read the waiting connections."""
        for _ in range(MAX_ACCEPTS):
            try:
                sock = listener.accept()[0]
            except (BlockingIOError, InterruptedError):
                return
            except ConnectionAbortedError:
                continue
            except OSError as exc:
                _log.warning(f"[service] accept failed: {exc}")
                if exc.errno in _ACCEPT_PAUSE_ERRNOS:
                    self._loop.remove_reader(listener)
                    self._loop.call_later(
                        _ACCEPT_PAUSE_SECONDS, self._listen, listener
                    )
                return
            sock.setblocking(False)
            self._receive(_Request(sock))

    def _receive(self, request: _Request) -> None:
        """Read what the client sent; answer once the request is whole."""
        sock = request.sock
        try:
            data = sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            self._wait(request)
            return
        except OSError:
            data = b""
        if not data:
            # gone before its request was complete: no answer
            self._release(request)
            sock.close()
            return
        try:
            whole = request.take(data)
        except (ValueError, RecursionError):
            self._reject(request)
            return
        if whole is None:
            self._wait(request)
        else:
            self._release(request)
            self._answer(request, *whole)

    def _wait(self, request: _Request) -> None:
        """Give a connection whose request is incomplete a reader and its
        deadline (once)."""
        if request.deadline is None:
            loop = self._loop
            loop.add_reader(request.sock, self._receive, request)
            request.deadline = loop.call_later(
                REQUEST_TIMEOUT, self._reject, request
            )
            self._open[request.sock] = request

    def _release(self, request: _Request) -> None:
        """Drop a waiting connection's reader and deadline."""
        if request.deadline is not None:
            request.deadline.cancel()
            request.deadline = None
            self._loop.remove_reader(request.sock)
            del self._open[request.sock]

    def _reject(self, request: _Request) -> None:
        """Answer a malformed, oversized or overdue request with 400."""
        self._release(request)
        self._respond(request, _MALFORMED_LABEL, _MALFORMED)

    def _answer(
        self,
        request: _Request,
        method: str,
        path: str,
        body: Optional[Dict[str, object]],
    ) -> None:
        if self._drop_planned(path):
            # injected mid-request connection drop: close with no
            # response bytes, like a crashed proxy would.
            request.sock.close()
            return
        label = (method if method in _METHODS else "other", _route_of(path))
        try:
            answer = self._dispatch(method, path, body)
        except Exception as exc:  # never let one request break the listener
            answer = _internal_error(exc)
        if isinstance(answer, bytes):
            self._respond(request, label, answer)
            return
        task = self._spawn(request.sock, self._run_stream(request, label, answer))
        # the client closing ends the stream, even while no event is due
        self._loop.add_reader(request.sock, self._hangup, request.sock, task)

    def _respond(
        self, request: _Request, label: Tuple[str, str], response: bytes
    ) -> None:
        """Send a whole response and close; a task sends what one
        ``send`` could not."""
        sock = request.sock
        try:
            sent = sock.send(response)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            sent = len(response)  # the client is gone: nothing to send
        if sent < len(response):
            self._spawn(sock, self._send_rest(sock, memoryview(response)[sent:]))
        else:
            sock.close()
        self._observe(request, label, int(response[9:12]))

    def _spawn(self, sock: socket.socket, coroutine: Awaitable[None]) -> "asyncio.Task":
        # a task writes more than once: no segment may wait on Nagle
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        task = self._open[sock] = self._loop.create_task(coroutine)
        return task

    def _close(self, sock: socket.socket) -> None:
        """Close a connection a task answered."""
        del self._open[sock]
        self._loop.remove_reader(sock)
        sock.close()

    async def _send_rest(self, sock: socket.socket, rest: memoryview) -> None:
        try:
            await self._loop.sock_sendall(sock, rest)
        except OSError:
            pass  # the client went away
        finally:
            self._close(sock)

    def _hangup(self, sock: socket.socket, task: "asyncio.Task") -> None:
        """A stream's reader: the client closing cancels its stream."""
        try:
            if sock.recv(_RECV_BYTES):
                return  # bytes past the request are ignored
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            pass
        self._loop.remove_reader(sock)
        task.cancel()

    async def _run_stream(
        self,
        request: _Request,
        label: Tuple[str, str],
        stream: Callable[[socket.socket], Awaitable[int]],
    ) -> None:
        sock = request.sock
        status = 0
        try:
            status = await stream(sock)
        except OSError:
            pass  # the client went away
        except Exception as exc:
            status = 500
            try:
                sock.send(_internal_error(exc))
            except OSError:
                pass
        finally:
            self._close(sock)
            if status:
                self._observe(request, label, status)

    def _observe(
        self, request: _Request, label: Tuple[str, str], status: int
    ) -> None:
        method, route = label
        self.service.observe_http(
            method, route, status, time.monotonic() - request.started
        )

    # -- request handling --------------------------------------------------

    def _drop_planned(self, path: str) -> bool:
        """True when the fault plan drops this occurrence of ``path``.

        Occurrences are counted only while a plan is installed, so a
        server without one keeps no counter per path it was sent."""
        if faults.get_fault_plan() is None:
            return False
        path = path.rstrip("/") or "/"
        occurrence = self._path_counts.get(path, 0)
        self._path_counts[path] = occurrence + 1
        return faults.service_fault("drop", path, occurrence) is not None

    def _dispatch(
        self, method: str, path: str, body: Optional[Dict[str, object]]
    ) -> Answer:
        route = _route_of(path)
        methods = ROUTES.get(route)
        if methods is None:
            return _response(
                404, {"error": "no-such-route", "path": path.rstrip("/") or "/"}
            )
        if method not in methods:
            return _response(
                405,
                {"error": "method-not-allowed"},
                extra_headers=f"Allow: {', '.join(methods)}\r\n",
            )
        service = self.service
        if route == "/v1/jobs/{id}/stream":
            return self._stream(path)
        if route == "/healthz":
            return _response(200, {"ok": True})
        if route == "/v1/contract":
            return _response(200, contract_description(service.config.limits()))
        if route == "/v1/stats":
            return _response(200, service.stats())
        if route == "/metrics":
            return _http(
                200, service.render_metrics().encode("utf-8"), _METRICS_CONTENT_TYPE
            )
        if route == "/v1/sweeps":
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
                # RFC 9110 allows whole seconds only; the body keeps the
                # precise hint
                return _response(
                    503 if exc.reason == "draining" else 429,
                    exc.to_dict(),
                    extra_headers=(
                        f"Retry-After: {max(1, math.ceil(exc.retry_after))}\r\n"
                    ),
                )
            return _response(202, job.summary())
        if route == "/v1/jobs":
            queue = service.queue
            return _response(
                200,
                {"jobs": [job.summary() for job in queue.listed(MAX_LISTED_JOBS)],
                 "held": len(queue.jobs)},
            )
        job_id = path.rstrip("/")[len("/v1/jobs/"):]
        if method == "GET":
            job = service.job(job_id)
            if job is None:
                return _response(404, {"error": "no-such-job", "id": job_id})
            return _http(200, service.status_json(job).encode("utf-8"))
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

    async def _follow(self, job_id: str, sock: socket.socket) -> int:
        send = self._loop.sock_sendall
        await send(sock, _SSE_HEAD)
        watcher = self.service.watch(job_id)
        try:
            async for event in watcher:
                await send(sock, _sse(event))
        finally:
            # a client that disconnects mid-stream must not leave the
            # watcher parked on the progress event: close it here,
            # deterministically, instead of waiting on the GC.
            await watcher.aclose()
        return 200
