"""The asyncio execution engine behind the simulation service.

:class:`SimulationService` ties the contract, the queue and the
execution core together:

* accepted sweeps (already validated by :mod:`repro.service.schema`)
  enter the persistent :class:`~repro.service.queue.JobQueue` — but
  only after **admission control**: a bounded queue (jobs, points, and
  serialized request bytes) rejects over-limit submissions with
  :class:`AdmissionError`, which the HTTP layer turns into ``429`` plus
  a ``Retry-After`` hint derived from the live backlog;
* ``job_concurrency`` dispatcher tasks drain it in priority order;
* each job's points resolve concurrently through one
  :class:`~repro.runner.Runner` built from the :class:`ServiceConfig`:
  its store serves what is already known, and on a true miss
  :class:`~repro.service.dedup.SingleFlight` elects one leader per
  key.  The leader resolves the point with the attempt loop a pooled
  ``Runner.run_points`` batch uses (:func:`repro.runner.pool.resolve`),
  running :func:`repro.runner.worker.execute_point` as this module
  names it at call time (so a double installed here runs instead) in
  a :class:`~repro.runner.pool.WorkerPool` of ``workers`` spawned
  processes, so simulations run in parallel and off the event loop's
  GIL.  Retries, the watchdog (``point_timeout``), what a worker's
  death costs, the failure taxonomy, the run log and the on-disk
  entries are therefore the batch runner's own.

What stays here is what a long-lived server needs and a batch does not.
The pool lives as long as the service, spawns its workers (this process
has threads) with the first attempt, and replaces them after every kill
or death, where a batch gives up after the second death.

Shutdown is two-mode.  ``stop()`` is the hard path: dispatchers are
cancelled mid-job and the journal's replay re-queues whatever was
running (crash-equivalent, and crash-safe for the same reason).
``stop(drain=True, deadline=...)`` is the graceful path: admission
closes, dispatchers finish the jobs they hold (up to the deadline,
after which stragglers are cancelled), interrupted jobs are explicitly
re-queued, and a ``service-shutdown`` marker is journaled so the next
instance knows the shutdown was clean.  Either way the pool is killed,
not joined, so a hung simulation never holds shutdown past its
deadline.

The run log carries the runner's point events plus the service-level
events ``job-submitted``, ``job-rejected``, ``job-completed``,
``job-failed``, ``job-cancelled``, ``point-cache-hit`` and
``point-deduped`` — so "this point was computed exactly once" is
directly checkable by counting ``point-completed`` records per key.
"""

from __future__ import annotations

import asyncio
import datetime
import json
import multiprocessing
import time
from dataclasses import dataclass
from typing import AsyncIterator, Dict, List, Optional

from repro import __version__
from repro.obs.log import JsonlSink, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.runner import FailureRecord, PointFailureError, PointRun, Runner, SimPoint
from repro.runner.pool import WorkerPool, resolve
from repro.runner.worker import execute_point
from repro.service.dedup import FlightCancelled, SingleFlight
from repro.service.queue import Job, JobQueue, JobState
from repro.service.schema import SweepRequest, parse_sweep_request

__all__ = [
    "AdmissionError",
    "ServiceConfig",
    "SimulationService",
]

_log = get_logger("repro.service")

#: pool workers are spawned, never forked: the server process has
#: threads (the pool's own manager thread among them).
_SPAWN = multiprocessing.get_context("spawn")


class AdmissionError(RuntimeError):
    """A submission was refused by admission control (HTTP ``429``/``503``).

    ``reason`` is a stable machine-readable token (``queue-full``,
    ``backlog-full``, ``bytes-full``, ``draining``); ``retry_after`` is
    the server's estimate, in seconds, of when capacity frees up.
    """

    def __init__(self, reason: str, message: str, retry_after: float) -> None:
        self.reason = reason
        self.retry_after = retry_after
        super().__init__(message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "error": "draining" if self.reason == "draining" else "over-capacity",
            "reason": self.reason,
            "message": str(self),
            "retry_after": self.retry_after,
        }


@dataclass
class ServiceConfig:
    """Knobs for one service instance."""

    #: JSONL journal backing the persistent job queue.
    journal_path: str
    #: shared on-disk result store; None = memo-only (no persistence).
    cache_dir: Optional[str] = None
    #: simulation worker processes (one point simulates per process at
    #: a time).
    workers: int = 2
    #: jobs dispatched concurrently; defaults to ``workers``.
    job_concurrency: Optional[int] = None
    #: failed attempts retried per point (the runner's default).
    max_retries: int = 2
    #: base seconds for the deterministic keyed backoff schedule.
    retry_backoff: float = 0.05
    #: optional JSONL telemetry sink (runner-compatible event names).
    run_log: Optional[JsonlSink] = None
    #: admission: max jobs waiting in the queue (0 = unlimited).
    max_queued_jobs: int = 64
    #: admission: max unresolved points across live jobs (0 = unlimited).
    max_queued_points: int = 4096
    #: admission: max serialized request bytes held by live jobs
    #: (0 = unlimited).
    max_inflight_bytes: int = 8 << 20
    #: per-point watchdog in seconds; None disables the watchdog.
    point_timeout: Optional[float] = None
    #: journal size that triggers snapshot compaction (0 disables).
    journal_max_bytes: int = 4 << 20

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.job_concurrency is None:
            self.job_concurrency = self.workers
        if self.job_concurrency < 1:
            raise ValueError(
                f"job_concurrency must be >= 1, got {self.job_concurrency}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        for name in ("max_queued_jobs", "max_queued_points",
                     "max_inflight_bytes", "journal_max_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0 (0 disables the limit)")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ValueError(
                f"point_timeout must be positive or None, got {self.point_timeout}"
            )

    def limits(self) -> Dict[str, object]:
        """The admission/robustness knobs, for ``/v1/contract``."""
        return {
            "max_queued_jobs": self.max_queued_jobs,
            "max_queued_points": self.max_queued_points,
            "max_inflight_bytes": self.max_inflight_bytes,
            "point_timeout": self.point_timeout,
            "max_retries": self.max_retries,
        }


class SimulationService:
    """Long-lived engine: submit → queue → dedup → simulate → results."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.queue = JobQueue(config.journal_path)
        #: the execution core, configured from ``config`` alone (no
        #: ``REPRO_*`` runner variable applies): its store, failure
        #: step, success step and run log serve every point.
        self.runner = Runner(
            jobs=1,
            cache_dir=config.cache_dir,
            timeout=config.point_timeout,
            max_retries=config.max_retries,
            retry_backoff=config.retry_backoff,
            run_log=config.run_log,
            trace_id=None,
        )
        self.store = self.runner.store
        self.flight = SingleFlight()
        self.run_log = config.run_log
        self.rejected: Dict[str, int] = {}
        self._job_tasks: Dict[str, List["asyncio.Task"]] = {}
        #: where every attempt runs, built by ``start()``: its workers
        #: start with the first attempt, so none starts before the
        #: service answers, and are replaced after every kill or death.
        self._pool: Optional[WorkerPool] = None
        self._dispatchers: List["asyncio.Task"] = []
        self._wake: Optional[asyncio.Event] = None
        self._progress: Optional[asyncio.Condition] = None
        self._stopping = False
        self._draining = False
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._init_metrics()

    def _init_metrics(self) -> None:
        """Build the Prometheus registry behind ``GET /metrics``.

        Latency histograms are observed at the event sites (queue pop,
        leader success, HTTP dispatch); everything that already has an
        authoritative counter on this object or the store is *mirrored*
        into the registry by a render-time callback instead of being
        double-counted at the call sites — the engine's own counters
        stay the source of truth that ``/v1/stats`` reports.
        """
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._m_queue_wait = m.histogram(
            "repro_job_queue_wait_seconds",
            "Seconds a job waited between submission and dispatch",
        )
        self._m_point_seconds = m.histogram(
            "repro_point_seconds",
            "Wall seconds one successful point simulation took",
        )
        self._m_http_seconds = m.histogram(
            "repro_http_request_seconds",
            "HTTP request handling latency by normalized route",
            ("method", "route"),
        )
        self._m_http_requests = m.counter(
            "repro_http_requests_total",
            "HTTP requests served by normalized route and status",
            ("method", "route", "status"),
        )
        self._m_simulated = m.counter(
            "repro_points_simulated_total", "Points simulated by this instance"
        )
        self._m_sim_seconds = m.counter(
            "repro_sim_seconds_total", "Cumulative simulation wall seconds"
        )
        self._m_store_hits = m.counter(
            "repro_store_hits_total",
            "Result-store hits by tier (memo or disk)",
            ("tier",),
        )
        self._m_store_misses = m.counter(
            "repro_store_misses_total", "Result-store misses"
        )
        self._m_rejected = m.counter(
            "repro_admission_rejected_total",
            "Submissions refused by admission control, by reason",
            ("reason",),
        )
        # Pre-declare the known reasons so scrapers see the series at
        # zero instead of having them appear on the first reject.
        for reason in ("draining", "queue-full", "backlog-full", "bytes-full"):
            self._m_rejected.labels(reason=reason)
        self._m_timeouts = m.counter(
            "repro_watchdog_timeouts_total", "Per-point watchdog expiries"
        )
        self._m_jobs = m.gauge(
            "repro_jobs", "Jobs known to the queue, by lifecycle state", ("state",)
        )
        self._m_queued_jobs = m.gauge("repro_queued_jobs", "Jobs waiting in the queue")
        self._m_backlog_points = m.gauge(
            "repro_backlog_points", "Unresolved points across live jobs"
        )
        self._m_inflight_bytes = m.gauge(
            "repro_inflight_bytes", "Serialized request bytes held by live jobs"
        )
        self._m_uptime = m.gauge(
            "repro_uptime_seconds", "Seconds since the service started"
        )
        m.register_callback(self._mirror_metrics)

    def _mirror_metrics(self, _registry: Optional[MetricsRegistry] = None) -> None:
        """Refresh mirrored counters/gauges from their authoritative sources."""
        store = self.store.summary()
        self._m_store_hits.labels(tier="memo").set_total(store["memo_hits"])
        self._m_store_hits.labels(tier="disk").set_total(store["disk_hits"])
        self._m_store_misses.set_total(store["misses"])
        self._m_simulated.set_total(self.runner.simulated)
        self._m_sim_seconds.set_total(self.runner.sim_seconds)
        self._m_timeouts.set_total(self.runner.timeouts)
        for reason, count in self.rejected.items():
            self._m_rejected.labels(reason=reason).set_total(count)
        by_state: Dict[str, int] = {}
        for job in self.queue.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        for state, count in by_state.items():
            self._m_jobs.labels(state=state).set(count)
        self._m_queued_jobs.set(self.queue.pending())
        self._m_backlog_points.set(self.queue.backlog_points())
        self._m_inflight_bytes.set(self.queue.inflight_bytes())
        self._m_uptime.set(self.uptime_seconds())

    def observe_http(
        self, method: str, route: str, status: int, seconds: float
    ) -> None:
        """Record one served HTTP request (called by the server layer)."""
        self._m_http_seconds.labels(method=method, route=route).observe(seconds)
        self._m_http_requests.labels(
            method=method, route=route, status=str(status)
        ).inc()

    def render_metrics(self) -> str:
        """Prometheus text exposition for ``GET /metrics``."""
        return self.metrics.render_prometheus()

    def uptime_seconds(self) -> float:
        return round(time.monotonic() - self._started_monotonic, 3)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn the dispatchers; resumes any journal-recovered jobs."""
        self._pool = WorkerPool(self.config.workers, _SPAWN, self.runner.timeout)
        self._wake = asyncio.Event()
        self._progress = asyncio.Condition()
        self._stopping = False
        self._draining = False
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(), name=f"dispatcher-{i}")
            for i in range(self.config.job_concurrency)
        ]
        recovered = self.queue.recovered_job_ids
        if recovered:
            _log.info(
                f"[service] recovered {len(recovered)} unfinished job(s) "
                f"from {self.queue.journal_path}"
            )
            self._wake.set()

    async def stop(
        self, drain: bool = False, deadline: Optional[float] = None
    ) -> None:
        """Shut the engine down.

        ``drain=False`` (default) is the hard path: dispatchers are
        cancelled mid-job; anything running is left non-terminal in the
        journal, which is exactly what replay re-queues after a crash.

        ``drain=True`` closes admission, lets dispatchers finish the
        jobs they hold (up to ``deadline`` seconds, then cancels the
        stragglers), re-queues every interrupted job at its original
        priority, and journals a clean ``service-shutdown`` marker.

        Either way the pool is killed, so an attempt still simulating
        (hung or not) ends here instead of holding shutdown.
        """
        self._draining = True
        if self._wake is not None:
            self._wake.set()  # idle dispatchers must observe the drain
        if drain and self._dispatchers:
            _, pending = await asyncio.wait(self._dispatchers, timeout=deadline)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        else:
            for task in self._dispatchers:
                task.cancel()
            for task in self._dispatchers:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._stopping = True
        self._dispatchers = []
        if drain:
            requeued = []
            for job in self.queue.jobs.values():
                if job.state == JobState.RUNNING:
                    self.queue.requeue(job)
                    requeued.append(job.id)
            self.queue.shutdown_marker(
                clean=True,
                drained=True,
                requeued=requeued,
                pending=self.queue.pending(),
            )
            if requeued:
                _log.info(
                    f"[service] drain deadline expired: re-queued "
                    f"{len(requeued)} interrupted job(s)"
                )
        if self._pool is not None:
            self._pool.kill()
        self.queue.close()
        if self.run_log is not None:
            self.run_log.close()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission --------------------------------------------------------

    def submit_payload(self, payload: Dict[str, object]) -> Job:
        """Validate, admit, and enqueue one raw submission.

        Raises :class:`~repro.service.schema.SchemaError` on a
        malformed payload and :class:`AdmissionError` when the service
        is saturated or draining — nothing invalid or over-limit ever
        reaches the queue.
        """
        request = parse_sweep_request(payload)
        return self.submit(request)

    def submit(self, request: SweepRequest) -> Job:
        self._admit(request)
        job = self.queue.submit(request)
        self._log(
            "job-submitted",
            id=job.id,
            priority=job.priority,
            points=job.total_points,
            trace_id=job.trace_id,
        )
        if self._wake is not None:
            self._wake.set()
        return job

    def retry_after_hint(self) -> float:
        """Seconds until capacity likely frees up, from the live backlog."""
        runner = self.runner
        avg = (runner.sim_seconds / runner.simulated) if runner.simulated else 1.0
        backlog = self.queue.backlog_points()
        estimate = backlog * max(avg, 0.05) / max(1, self.config.workers)
        return round(min(60.0, max(0.5, estimate)), 2)

    def _reject(self, reason: str, message: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        hint = self.retry_after_hint()
        self._log("job-rejected", reason=reason, retry_after=hint)
        raise AdmissionError(reason, message, retry_after=hint)

    def _admit(self, request: SweepRequest) -> None:
        """Backpressure: refuse work the service could only queue unboundedly."""
        cfg = self.config
        if self._draining or self._stopping:
            self._reject(
                "draining",
                "service is draining for shutdown; resubmit to the restarted "
                "instance",
            )
        queued = self.queue.pending()
        if cfg.max_queued_jobs and queued >= cfg.max_queued_jobs:
            self._reject(
                "queue-full",
                f"{queued} job(s) already queued (limit {cfg.max_queued_jobs})",
            )
        new_points = len(request.benchmarks) * len(request.configs)
        backlog = self.queue.backlog_points()
        if cfg.max_queued_points and backlog + new_points > cfg.max_queued_points:
            self._reject(
                "backlog-full",
                f"sweep adds {new_points} point(s) to a backlog of {backlog} "
                f"(limit {cfg.max_queued_points})",
            )
        if cfg.max_inflight_bytes:
            payload_bytes = len(
                json.dumps(request.to_dict(), sort_keys=True, separators=(",", ":"))
            )
            held = self.queue.inflight_bytes()
            if held + payload_bytes > cfg.max_inflight_bytes:
                self._reject(
                    "bytes-full",
                    f"request of {payload_bytes} bytes exceeds the in-flight "
                    f"byte budget ({held} of {cfg.max_inflight_bytes} held)",
                )

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while not self._stopping:
            job = None if self._draining else self.queue.pop()
            if job is None:
                if self._draining:
                    return  # drain: finish held jobs, start nothing new
                self._wake.clear()
                await self._wake.wait()
                continue
            self._wake.set()  # more jobs may be queued; keep siblings awake
            if job.submitted_monotonic:
                self._m_queue_wait.observe(
                    max(0.0, time.monotonic() - job.submitted_monotonic)
                )
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        tasks = [
            asyncio.create_task(self._resolve_point(job, point, key))
            for point, key in zip(job.points, job.keys)
        ]
        self._job_tasks[job.id] = tasks
        try:
            results = await asyncio.gather(*tasks, return_exceptions=True)
        except asyncio.CancelledError:
            # the dispatcher itself was cancelled (hard stop or drain
            # deadline): leave the job non-terminal so replay or the
            # drain path re-queues it.
            for task in tasks:
                task.cancel()
            raise
        finally:
            self._job_tasks.pop(job.id, None)
        if job.state == JobState.CANCELLED:
            # cooperative DELETE mid-run: the queue already journaled
            # the terminal transition; just wake the watchers.
            self._log(
                "job-cancelled", id=job.id, was_running=True, trace_id=job.trace_id
            )
            async with self._progress:
                self._progress.notify_all()
            self.queue.maybe_compact(self.config.journal_max_bytes)
            return
        errors = [
            r for r in results
            if isinstance(r, BaseException)
            and not isinstance(r, asyncio.CancelledError)
        ]
        async with self._progress:
            if errors:
                first = errors[0]
                if isinstance(first, PointFailureError):
                    message = str(first)
                else:
                    message = f"{type(first).__name__}: {first}"
                self.queue.fail(job, message, job.failures)
                self._log(
                    "job-failed", id=job.id, message=message, trace_id=job.trace_id
                )
            else:
                self.queue.complete(job)
                self._log("job-completed", id=job.id, trace_id=job.trace_id)
            self._progress.notify_all()
        self.queue.maybe_compact(self.config.journal_max_bytes)

    async def cancel_job(self, job_id: str) -> Optional[bool]:
        """Cancel a queued *or running* job.

        Returns True when the job was cancelled, False when it is
        already terminal, and None when the id is unknown.  Cancelling
        a running job cancels its outstanding point tasks cooperatively:
        points that already completed stay in the store (consistent and
        reusable), the in-flight leader is interrupted, and follower
        jobs sharing a flight elect a new leader instead of failing.
        """
        job = self.queue.jobs.get(job_id)
        if job is None:
            return None
        if job.state in JobState.TERMINAL:
            return False
        if job.state == JobState.QUEUED:
            self.queue.cancel(job_id)
            self._log(
                "job-cancelled", id=job_id, was_running=False, trace_id=job.trace_id
            )
        else:
            self.queue.cancel_running(job)
            for task in self._job_tasks.get(job_id, []):
                task.cancel()
        if self._progress is not None:
            async with self._progress:
                self._progress.notify_all()
        return True

    async def _resolve_point(self, job: Job, point: SimPoint, key: str) -> None:
        payload = self.store.get(key)
        if payload is not None:
            self._log(
                "point-cache-hit", label=point.label(), key=key, id=job.id,
                trace_id=job.trace_id,
            )
            await self._mark_done(job, key)
            return
        while True:
            if self.flight.is_inflight(key):
                self._log(
                    "point-deduped", label=point.label(), key=key, id=job.id,
                    trace_id=job.trace_id,
                )
            try:
                await self.flight.run(key, lambda: self._compute(job, point, key))
            except FlightCancelled:
                # the leader's *job* was cancelled, not this one: take
                # over with a fresh flight (or the store, if the leader
                # published before the cancel landed).
                if self.store.get(key) is None:
                    continue
            except PointFailureError as exc:
                # the leader's _compute already appended its records to
                # its own job; follower jobs copy the flight's trail.
                if not any(f.get("key") == key for f in job.failures):
                    job.failures.extend(r.to_dict() for r in exc.records)
                raise
            break
        await self._mark_done(job, key)

    async def _mark_done(self, job: Job, key: str) -> None:
        async with self._progress:
            self.queue.point_completed(job, key)
            self._progress.notify_all()

    # -- the leader path ---------------------------------------------------

    async def _compute(self, job: Job, point: SimPoint, key: str) -> None:
        """Leader path: the runner's attempt loop on the service's pool,
        until an attempt lands or the runner gives the point up."""
        run = PointRun(key, point, trace_id=job.trace_id)
        records: List[FailureRecord] = []

        def failed(record: FailureRecord) -> None:
            records.append(record)
            job.failures.append(record.to_dict())

        wall = await resolve(
            self.runner, self._pool, run, execute_point, failed,
            **self.runner.execute_kwargs(),
        )
        if wall is None:
            raise PointFailureError(records)
        self._m_point_seconds.observe(wall)

    # -- observation -------------------------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        return self.queue.jobs.get(job_id)

    def job_status(self, job_id: str) -> Optional[Dict[str, object]]:
        """Poll response: summary plus per-point results when available."""
        job = self.queue.jobs.get(job_id)
        if job is None:
            return None
        status = job.summary()
        if job.state == JobState.COMPLETED:
            status["results"] = self.results(job)
        return status

    def results(self, job: Job) -> List[Dict[str, object]]:
        """Per-point results in the sweep's stable point order."""
        out = []
        for point, key in zip(job.points, job.keys):
            stats = self.store.get(key)
            out.append(
                {
                    "benchmark": point.benchmark,
                    "config_digest": point.config.digest(),
                    "memory_refs": point.memory_refs,
                    "seed": point.seed,
                    "key": key,
                    "stats": stats,
                }
            )
        return out

    async def watch(self, job_id: str) -> AsyncIterator[Dict[str, object]]:
        """Progress events for one job until it reaches a terminal state.

        Yields ``{"type": "progress", ...}`` after every newly completed
        point and a final ``{"type": "job", "state": ...}``; starts with
        a snapshot so late subscribers still see current progress.
        Cancellation (queued or running) is a terminal transition like
        any other: every transition notifies the shared condition, so a
        watcher of a cancelled job terminates with a ``cancelled`` event
        instead of wedging.

        Raises :class:`ValueError` for an unknown job id.
        """
        assert self._progress is not None
        job = self.queue.jobs.get(job_id)
        if job is None:
            raise ValueError(f"no such job: {job_id!r}")
        seen = -1
        while True:
            done = job.completed_points
            if done != seen:
                seen = done
                yield {
                    "type": "progress",
                    "id": job.id,
                    "completed": done,
                    "total": job.total_points,
                }
            if job.state in JobState.TERMINAL:
                yield {"type": "job", "id": job.id, "state": job.state}
                return
            async with self._progress:
                # re-check under the lock: every transition notifies
                # while holding it, so this cannot miss a wakeup.
                if job.completed_points == seen and job.state not in JobState.TERMINAL:
                    await self._progress.wait()

    async def wait_for(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until ``job_id`` is terminal; returns the job.

        Raises :class:`ValueError` for an unknown job id and
        :class:`asyncio.TimeoutError` when the deadline expires first.
        """
        if job_id not in self.queue.jobs:
            raise ValueError(f"no such job: {job_id!r}")

        async def _drain_events() -> Job:
            async for _ in self.watch(job_id):
                pass
            return self.queue.jobs[job_id]

        return await asyncio.wait_for(_drain_events(), timeout)

    def stats(self) -> Dict[str, object]:
        """Service-level counters for ``GET /v1/stats``."""
        jobs = self.queue.jobs.values()
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "version": __version__,
            "started_at": datetime.datetime.fromtimestamp(
                self.started_at, datetime.timezone.utc
            ).isoformat(timespec="seconds"),
            "uptime_seconds": self.uptime_seconds(),
            "jobs": by_state,
            "points_simulated": self.runner.simulated,
            "sim_seconds": round(self.runner.sim_seconds, 3),
            "latency": {
                "job_queue_wait_seconds": self._m_queue_wait.summary(),
                "point_seconds": self._m_point_seconds.summary(),
            },
            "store": self.store.summary(),
            "single_flight": self.flight.summary(),
            "workers": self.config.workers,
            "job_concurrency": self.config.job_concurrency,
            "draining": self._draining,
            "admission": {
                "max_queued_jobs": self.config.max_queued_jobs,
                "max_queued_points": self.config.max_queued_points,
                "max_inflight_bytes": self.config.max_inflight_bytes,
                "queued_jobs": self.queue.pending(),
                "backlog_points": self.queue.backlog_points(),
                "inflight_bytes": self.queue.inflight_bytes(),
                "rejected": dict(self.rejected),
                "retry_after": self.retry_after_hint(),
            },
            "watchdog": {
                "point_timeout": self.config.point_timeout,
                "timeouts": self.runner.timeouts,
            },
            "journal": {
                "path": str(self.queue.journal_path),
                "bytes": self.queue.journal_bytes(),
                "max_bytes": self.config.journal_max_bytes,
                "compactions": self.queue.compactions,
                "write_errors": self.queue.journal_write_errors,
            },
        }

    def _log(self, event: str, **fields: object) -> None:
        if self.run_log is not None:
            self.run_log.event(event, **fields)
