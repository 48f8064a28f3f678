"""Parallel, cached, fault-tolerant execution of simulation points.

The experiment harnesses regenerate twelve paper artifacts, and many of
them revisit identical simulation points — the same benchmark under the
same configuration at the same workload size.  A :class:`Runner`
deduplicates those points behind a content hash and executes the
remainder either inline or fanned across a process pool:

* **keying** — a :class:`SimPoint` hashes its complete identity
  (:meth:`SystemConfig.digest`, benchmark name, ``memory_refs``,
  ``seed``, plus :data:`RESULT_VERSION` and the package version), so
  two points collide exactly when their simulations are bit-identical;
* **one store** — every resolved point lands in the runner's
  :class:`~repro.runner.cache.ResultStore`: an in-memory memo for the
  life of the runner (collapsing repeats within one batch and across
  experiments) over an optional on-disk
  :class:`~repro.runner.cache.ResultCache`; bumping
  :data:`RESULT_VERSION` (or the package version) busts every entry;
* **determinism** — all paths return statistics through the same
  ``SimStats.to_dict``/``from_dict`` round trip, so cached, pooled, and
  inline results are field-for-field identical.

Long sweeps additionally survive misbehaving points and environments:

* **watchdog timeouts** — with ``timeout`` set, a pooled simulation
  still running that long after its worker started it has its worker
  killed and is retried; other in-flight points are resubmitted
  unharmed;
* **bounded retries** — a failed attempt is retried up to
  ``max_retries`` times with exponential backoff whose jitter derives
  deterministically from the point's cache key, never from global RNG
  state;
* **pool recovery** — a broken process pool (worker died mid-call) is
  rebuilt once; if it breaks again, the remaining points finish inline
  in the parent process;
* **cache degradation** — an ``OSError`` while persisting a result
  (disk full, read-only cache dir) switches the cache off with a single
  stderr warning instead of aborting the batch;
* **partial-batch salvage** — results are memoized and cached the
  moment they land, every failure event is recorded as a structured
  :class:`FailureRecord` (kinds: ``timeout`` / ``crash`` / ``oom`` /
  ``cache-io`` / ``sanitizer``), and with ``keep_going=True`` a
  permanently failed point yields placeholder statistics instead of
  raising :class:`PointFailureError`, so experiments render from the
  points that succeeded.

The simulation service (:mod:`repro.service.engine`) is built on the
same core: it holds one runner and resolves every point through its
store, its failure step (:meth:`Runner.fail`) and its success step
(:meth:`Runner.completed`), so both engines share one retry policy,
one failure taxonomy, one run-log vocabulary and one store.  Both also
run attempts in worker processes through one pool class and one
attempt loop (:mod:`repro.runner.pool`): a pooled batch here is one
concurrent resolution per point on a pool that lives for the batch;
the service resolves its points on a pool that lives as long as it
does.

Every recovery path is exercised deterministically by the
fault-injection harness in :mod:`repro.runner.faults`.

The module-level default runner (:func:`get_runner` / :func:`set_runner`)
is what :func:`repro.experiments.common.run_benchmark` submits through;
it runs serially and takes its result cache from ``REPRO_CACHE_DIR``,
and ``repro-experiment`` replaces it with one built from ``--jobs`` /
``--cache-dir`` / ``--no-cache`` / ``--job-timeout`` / ``--max-retries``
/ ``--keep-going``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.core.config import SystemConfig
from repro.core.stats import SimStats
from repro.obs.log import JsonlSink, get_logger
from repro.runner.cache import RESULT_VERSION, ResultStore
from repro.runner.worker import execute_point
from repro.sanitize.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import ObsSession

__all__ = [
    "RESULT_VERSION",
    "SimPoint",
    "FailureRecord",
    "PointFailureError",
    "PointRun",
    "Runner",
    "backoff_delay",
    "placeholder_stats",
    "get_runner",
    "set_runner",
]

#: leveled stderr logger (threshold from ``REPRO_LOG_LEVEL``); message
#: text is identical to the former ad-hoc ``print(..., file=stderr)``.
_log = get_logger("repro.runner")

#: failure taxonomy used by :class:`FailureRecord`.
FAILURE_KINDS = ("timeout", "crash", "oom", "cache-io", "sanitizer")


@functools.lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Content hash of every ``.py`` file in the installed package.

    Folded into each point's cache key so on-disk results can never
    survive a change to the simulator itself — edits to the source bust
    the cache automatically, without waiting for anyone to remember to
    bump :data:`RESULT_VERSION`.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@functools.lru_cache(maxsize=4096, typed=True)
def _point_key(benchmark: str, config_digest: str, memory_refs: int, seed: int) -> str:
    """:meth:`SimPoint.cache_key`, computed once per distinct point."""
    payload = json.dumps(
        {
            "repro_version": __version__,
            "result_version": RESULT_VERSION,
            "source": source_fingerprint(),
            "benchmark": benchmark,
            "memory_refs": memory_refs,
            "seed": seed,
            "config": config_digest,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class SimPoint:
    """One simulation: a benchmark run under a configuration."""

    benchmark: str
    config: SystemConfig
    memory_refs: int
    seed: int = 0

    def cache_key(self) -> str:
        """Content hash identifying this point's result."""
        return _point_key(
            self.benchmark, self.config.digest(), self.memory_refs, self.seed
        )

    def label(self) -> str:
        """Short human-readable identity for progress lines."""
        return (
            f"{self.benchmark} cfg={self.config.digest()[:8]}"
            f" refs={self.memory_refs} seed={self.seed}"
        )


@dataclass(frozen=True)
class FailureRecord:
    """One failure event observed while resolving a point.

    A record is appended for *every* failed attempt, so a transient
    fault that a retry recovered still leaves an audit trail; ``fatal``
    is True only when the runner gave the point up for good.
    """

    label: str
    key: str
    #: one of :data:`FAILURE_KINDS`.
    kind: str
    #: zero-based attempt number that failed.
    attempt: int
    message: str
    fatal: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "key": self.key,
            "kind": self.kind,
            "attempt": self.attempt,
            "message": self.message,
            "fatal": self.fatal,
        }


class PointFailureError(RuntimeError):
    """Points were given up for good; ``records`` holds their failures.

    The message names the points and ends with the last record's kind
    and message.
    """

    def __init__(self, records: Sequence[FailureRecord]) -> None:
        self.records: List[FailureRecord] = list(records)
        labels = sorted({r.label for r in self.records})
        last = self.records[-1]
        super().__init__(
            f"{len(labels)} simulation point(s) failed permanently: "
            f"{', '.join(labels)} (last: {last.kind}: {last.message})"
        )


def backoff_delay(key: str, attempt: int, base: float) -> float:
    """Retry delay before ``attempt``: exponential with keyed jitter.

    The jitter derives from a hash of ``(cache key, attempt)`` rather
    than any global RNG, so a given point backs off identically in
    every process and every run — determinism extends to the recovery
    schedule itself.
    """
    if base <= 0 or attempt <= 0:
        return 0.0
    digest = hashlib.sha256(f"{key}:{attempt}".encode("ascii")).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2**64  # in [0, 1)
    return base * (2 ** (attempt - 1)) * (0.5 + jitter)


def placeholder_stats() -> SimStats:
    """Stand-in statistics for a point that could not be simulated.

    Used by ``keep_going`` mode.  ``cycles`` is NaN, so every derived
    rate (IPC first of all) is NaN and renders as ``-`` in the
    experiment tables, while counters stay at zero.
    """
    stats = SimStats()
    stats.cycles = float("nan")
    return stats


@dataclass
class PointRun:
    """One point on its way through the retry policy."""

    key: str
    point: SimPoint
    #: zero-based number of the attempt to make next.
    attempt: int = 0
    #: monotonic time before which that attempt must not start.
    eligible: float = 0.0
    #: correlation id stamped on the point's run-log events.
    trace_id: Optional[str] = None


_ENV = object()  # sentinel: resolve from the environment


class Runner:
    """Executes simulation points with dedup, caching, and a process pool.

    ``jobs`` is the number of worker processes (1 — inline, serial).
    ``cache_dir`` defaults to ``REPRO_CACHE_DIR`` when that is set and
    to no on-disk cache otherwise; pass a path to force a location or
    ``None`` to disable persistence explicitly.  The in-memory memo is
    always active.

    Fault-tolerance knobs (see the module docstring):

    ``timeout``
        per-job watchdog in seconds for pooled execution, timed from
        when the worker starts the attempt (None or 0: no watchdog;
        inline execution cannot be preempted and is never timed out);
    ``max_retries``
        failed attempts retried per point;
    ``retry_backoff``
        base delay in seconds for the exponential backoff schedule
        (0 disables waiting);
    ``keep_going``
        on permanent point failure, return :func:`placeholder_stats`
        instead of raising :class:`PointFailureError`.

    Telemetry knobs (see :mod:`repro.obs`):

    ``run_log``
        a :class:`~repro.obs.log.JsonlSink` receiving one structured
        record per lifecycle event — ``point-started`` /
        ``point-completed`` / ``point-retried`` / ``point-timed-out``
        / ``point-failed`` — each carrying the point's label, cache
        key, and zero-based attempt;
    ``trace_id``
        correlation id stamped on every run-log event (``None``
        stamps nothing);
    ``observe``
        an :class:`~repro.obs.observer.ObsSession` collecting a trace
        and/or metrics per point.  Observed execution is forced inline
        (an Observer cannot cross the process boundary) and skips
        on-disk cache *reads* (a cache hit would yield an empty trace)
        while still writing fresh results back; statistics are
        unaffected either way.

    Checking knobs (see :mod:`repro.sanitize`):

    ``sanitize``
        run every simulated point under the runtime invariant checker.
        Statistics are byte-identical with it on or off, and a plain
        bool crosses the process boundary, so sanitized runs still
        pool.  Sanitized runs skip on-disk cache *reads* (a cache hit
        would check nothing) but write fresh results back — identical
        to what an unsanitized run would have written.  A violated
        invariant raises :class:`~repro.sanitize.SanitizerError` and
        fails the point immediately.
    """

    #: how many times a broken process pool is rebuilt before the
    #: runner gives up on pooling and finishes the batch inline.
    MAX_POOL_REBUILDS = 1

    def __init__(
        self,
        jobs: int = 1,
        cache_dir=_ENV,
        progress: bool = False,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
        keep_going: bool = False,
        run_log: Optional[JsonlSink] = None,
        observe: "Optional[ObsSession]" = None,
        sanitize: bool = False,
        trace_id: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        if cache_dir is _ENV:
            cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        #: every resolved point: memo plus optional on-disk cache.
        self.store = ResultStore(cache_dir)
        self.progress = progress
        if timeout is not None and timeout <= 0:
            timeout = None
        self.timeout: Optional[float] = timeout
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self.retry_backoff = max(0.0, retry_backoff)
        self.keep_going = keep_going
        self.run_log = run_log
        self.observe = observe
        self.sanitize = sanitize
        self.trace_id: Optional[str] = trace_id
        #: every failure event, transient and fatal, in observation order.
        self.failures: List[FailureRecord] = []
        self.simulated = 0
        self.reused = 0
        self.retries = 0
        #: attempts that outlived the watchdog.
        self.timeouts = 0
        self.pool_rebuilds = 0
        self.sim_seconds = 0.0
        self._pool_unusable = False
        self._batch_done = 0
        self._batch_total = 0

    @property
    def disk_hits(self) -> int:
        return self.store.disk_hits

    @property
    def cache_disabled_reason(self) -> Optional[str]:
        return self.store.cache_disabled_reason

    # -- execution ---------------------------------------------------------

    def run_point(self, point: SimPoint) -> SimStats:
        return self.run_points([point])[0]

    def run_points(self, points: Sequence[SimPoint]) -> List[SimStats]:
        """Resolve every point, in order; duplicates simulate once.

        Raises :class:`PointFailureError` if any point exhausts its
        retry budget — unless ``keep_going`` is set, in which case the
        failed points come back as :func:`placeholder_stats` while
        everything that did resolve is returned (and cached) normally.
        """
        points = list(points)
        keys = [point.cache_key() for point in points]
        pending: List[Tuple[str, SimPoint]] = []
        scheduled = set()
        # Observed runs skip cache *reads*: a disk hit would come back
        # with an empty trace.  Sanitized runs skip them too: a hit
        # would simulate nothing, so nothing gets checked.  Writes
        # still happen, and the stats are identical either way.
        reads = self.observe is None and not self.sanitize
        for key, point in zip(keys, points):
            if key in self.store or key in scheduled:
                self.reused += 1
                continue
            if reads and self.store.get(key) is not None:
                continue
            scheduled.add(key)
            pending.append((key, point))

        # Group pending points by their trace recipe before dispatch:
        # points sharing a trace land consecutively, so each process's
        # bounded trace memo (repro.runner.worker) hits instead of
        # thrashing.  Results are re-ordered by ``keys`` at the end, so
        # callers still see their original order.
        pending.sort(
            key=lambda kp: (
                kp[1].benchmark,
                kp[1].memory_refs,
                kp[1].seed,
                kp[1].config.l2.size_bytes,
            )
        )

        if pending:
            self._execute(pending)
        memo = self.store.memo
        return [
            SimStats.from_dict(memo[key]) if key in memo else placeholder_stats()
            for key in keys
        ]

    def _execute(self, pending: List[Tuple[str, SimPoint]]) -> None:
        runs = [PointRun(key, point, trace_id=self.trace_id) for key, point in pending]
        self._batch_done = 0
        self._batch_total = len(runs)
        fatal: List[FailureRecord] = []
        use_pool = (
            self.jobs > 1
            and len(runs) > 1
            and not self._pool_unusable
            # an Observer cannot cross the process boundary.
            and self.observe is None
        )
        if use_pool:
            # asyncio loads with the pool: an inline batch never pays
            # for importing it.
            from repro.runner.pool import run_batch

            runs = run_batch(self, runs, fatal, execute_point, **self.execute_kwargs())
            if runs:
                _log.warning(
                    f"[runner] process pool unusable; finishing "
                    f"{len(runs)} point(s) inline"
                )
        self._run_inline(runs, fatal)
        if fatal and not self.keep_going:
            raise PointFailureError(fatal)

    def _rebuild_pool(self) -> bool:
        """Whether a batch's pool may replace a worker that died."""
        if self.pool_rebuilds >= self.MAX_POOL_REBUILDS:
            self._pool_unusable = True
            return False
        self.pool_rebuilds += 1
        _log.warning("[runner] worker pool broke; rebuilding it once")
        return True

    def _run_inline(self, runs: List[PointRun], fatal: List[FailureRecord]) -> None:
        queue: Deque[PointRun] = deque(runs)
        while queue:
            run = queue.popleft()
            delay = run.eligible - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self.log_event("point-started", run)
            # A fresh Observer per attempt: a failed attempt's partial
            # events are dropped, never committed to the session.
            obs = (
                self.observe.begin_point(run.point.label())
                if self.observe is not None
                else None
            )
            try:
                stats, wall = execute_point(
                    run.point, run.attempt, **self.execute_kwargs(obs)
                )
            except Exception as exc:
                self._failed(run, exc, queue, fatal)
            else:
                if obs is not None:
                    self.observe.commit_point(obs, key=run.key)
                self.completed(run, stats, wall)

    def execute_kwargs(self, obs=None) -> Dict[str, object]:
        """``obs``/``sanitize``/``cache_dir`` for :func:`execute_point`,
        each passed only when set, so a test double with the historical
        two-argument signature keeps working for a runner without them.
        ``cache_dir`` is the result cache, beside which the worker keeps
        its trace store."""
        kwargs: Dict[str, object] = {} if obs is None else {"obs": obs}
        if self.sanitize:
            kwargs["sanitize"] = True
        if self.store.cache is not None:
            kwargs["cache_dir"] = str(self.store.cache.root)
        return kwargs

    def _failed(self, run, error, requeue, fatal) -> None:
        record = self.fail(run, error)
        if record.fatal:
            fatal.append(record)
        else:
            requeue.append(run)

    # -- the steps both engines share --------------------------------------

    def log_event(self, event: str, run: PointRun, **fields: object) -> None:
        """Append one structured record to the run log, if one is wired."""
        if self.run_log is not None:
            if run.trace_id is not None:
                fields.setdefault("trace_id", run.trace_id)
            self.run_log.event(
                event,
                label=run.point.label(),
                key=run.key,
                attempt=run.attempt,
                **fields,
            )

    def fail(self, run: PointRun, error: Optional[BaseException]) -> FailureRecord:
        """Record one failed attempt; move ``run`` on or give it up.

        ``error`` is what the attempt raised, or None when it outlived
        the watchdog.  The point is given up once its retry budget is
        spent, or on a sanitizer violation (the simulator is
        deterministic, so a violated invariant reproduces identically on
        every retry).  Otherwise ``run`` moves to its next attempt,
        which must not start before ``run.eligible``.
        """
        if error is None:
            kind, message = "timeout", f"exceeded the {self.timeout:g}s watchdog"
        elif isinstance(error, MemoryError):
            kind, message = "oom", f"MemoryError: {error}"
        elif isinstance(error, SanitizerError):
            kind, message = "sanitizer", error.render()
        else:
            kind, message = "crash", f"{type(error).__name__}: {error}"
        label = run.point.label()
        record = FailureRecord(
            label=label,
            key=run.key,
            kind=kind,
            attempt=run.attempt,
            message=message,
            fatal=run.attempt >= self.max_retries or kind == "sanitizer",
        )
        self.failures.append(record)
        if kind == "timeout":
            self.timeouts += 1
            self.log_event("point-timed-out", run, message=message)
        if record.fatal:
            self.log_event("point-failed", run, kind=kind, message=message)
            _log.error(
                f"[runner] FAILED {label}: {kind} after "
                f"{run.attempt + 1} attempt(s) — {message}"
            )
            return record
        self.retries += 1
        run.attempt += 1
        run.eligible = time.monotonic() + backoff_delay(
            run.key, run.attempt, self.retry_backoff
        )
        self.log_event("point-retried", run, kind=kind, message=message)
        if self.progress:
            _log.info(
                f"[runner] retrying {label} "
                f"(attempt {run.attempt + 1}, {kind}: {message})"
            )
        return record

    def completed(self, run: PointRun, stats: Dict[str, object], wall: float) -> None:
        """Store a simulated point's statistics, count it and log it."""
        error = self.store.put(run.point, run.key, stats, wall, run.attempt)
        if error is not None:
            self.failures.append(
                FailureRecord(
                    label=run.point.label(),
                    key=run.key,
                    kind="cache-io",
                    attempt=run.attempt,
                    message=str(error),
                    fatal=False,
                )
            )
        self.simulated += 1
        self.sim_seconds += wall
        self._batch_done += 1
        self.log_event("point-completed", run, duration=round(wall, 6))
        if self.progress:
            _log.info(
                f"[runner] {self._batch_done}/{self._batch_total}"
                f" {run.point.label()} {wall:.2f}s"
            )

    # -- reporting ---------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Lifetime counters for an end-of-run report."""
        return {
            "jobs": self.jobs,
            "simulated": self.simulated,
            "disk_hits": self.disk_hits,
            "reused": self.reused,
            "retries": self.retries,
            "pool_rebuilds": self.pool_rebuilds,
            "sim_seconds": round(self.sim_seconds, 3),
            "timeout": self.timeout,
            "max_retries": self.max_retries,
            "cache_dir": self.store.summary()["cache_dir"],
            "cache_disabled": self.cache_disabled_reason,
            "failures": [record.to_dict() for record in self.failures],
        }

    def failure_report(self) -> str:
        """Human-readable end-of-run account of every failure event."""
        if not self.failures:
            return "[runner] no failures"
        fatal = sum(1 for record in self.failures if record.fatal)
        lines = [
            f"[runner] {len(self.failures)} failure event(s), "
            f"{fatal} point(s) given up:"
        ]
        for record in self.failures:
            outcome = "gave up" if record.fatal else "retried"
            lines.append(
                f"[runner]   {record.kind:<8} attempt {record.attempt} "
                f"{outcome}: {record.label} — {record.message}"
            )
        return "\n".join(lines)


_default_runner: Optional[Runner] = None


def get_runner() -> Runner:
    """The process-wide default runner, created lazily: serial, with
    its result cache at ``REPRO_CACHE_DIR`` when that is set."""
    global _default_runner
    if _default_runner is None:
        _default_runner = Runner()
    return _default_runner


def set_runner(runner: Optional[Runner]) -> Optional[Runner]:
    """Install (or, with None, reset) the default runner; returns it."""
    global _default_runner
    _default_runner = runner
    return runner
