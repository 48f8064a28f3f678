"""Persistent priority job queue with a JSONL journal.

Every accepted sweep becomes a :class:`Job` whose transitions are
journaled through the same JSONL machinery as the runner's run log
(:class:`repro.obs.log.JsonlSink`, append mode): ``job-submitted``
carries the complete validated request payload, ``job-started`` and
``job-requeued`` follow, and a terminal ``job-completed`` /
``job-failed`` / ``job-cancelled`` closes the job.  Points are not
journaled.

Because the journal is the source of truth, a restarted service
replays it on opening the queue and resumes exactly where it stopped:
jobs that never reached a terminal state re-enter the queue at their
original priority and submission order, and their already completed
points are *not* re-simulated — point results live in the
content-addressed shared store, which survives restarts on disk.

Dispatch order is strict priority (lower number first; the range is
validated by the schema), FIFO within a priority level.  Failures
reuse the runner's :class:`~repro.runner.FailureRecord` taxonomy
verbatim, so a service journal and a batch run log read the same way.

Two durability refinements keep a week-long service healthy:

* **journal-write degradation** — a failing journal write (disk full,
  volume gone) never takes a request down: the write is dropped, the
  error is counted (``journal_write_errors``) and logged once per
  burst, and the queue keeps serving from memory.  Availability wins
  over durability for the single record; the next compaction or clean
  write restores a consistent on-disk state.
* **compaction** — once the journal has grown by a byte budget since
  the last compaction (:meth:`maybe_compact`), it is rewritten via
  write-temp-then-atomic-rename as each held job's ``job-submitted``
  and terminal records, and the jobs already terminal at the previous
  compaction are released, so memory and replay cost are bounded by
  the live jobs plus two intervals of finished ones, not the service's
  age.  Replay stays tolerant of a torn tail.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.obs.log import JsonlSink, get_logger
from repro.runner import SimPoint
from repro.runner import faults
from repro.service.schema import SchemaError, SweepRequest, parse_sweep_request

__all__ = ["Job", "JobQueue", "JobState"]

_log = get_logger("repro.service")


class JobState:
    """Lifecycle states; terminal states are never left."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = (COMPLETED, FAILED, CANCELLED)
    ALL = (QUEUED, RUNNING) + TERMINAL


#: the state each transition record moves its job to; a terminal
#: state's record is ``job-<state>``.
_TRANSITIONS = {
    "job-started": JobState.RUNNING,
    "job-requeued": JobState.QUEUED,
    **{f"job-{state}": state for state in JobState.TERMINAL},
}


@dataclass
class Job:
    """One accepted sweep and its progress."""

    id: str
    seq: int
    priority: int
    request: SweepRequest
    payload: Dict[str, object]
    points: List[SimPoint]
    #: cache key per point, aligned with ``points``.
    keys: List[str]
    state: str = JobState.QUEUED
    done_keys: Set[str] = field(default_factory=set)
    #: :class:`repro.runner.FailureRecord` dicts, transient and fatal.
    failures: List[Dict[str, object]] = field(default_factory=list)
    error: Optional[str] = None
    #: serialized request size, charged against the admission byte budget.
    payload_bytes: int = 0
    #: correlation id: the client's ``trace_id`` or the job id.  Stable
    #: across journal replay (both inputs are journaled).
    trace_id: str = ""
    #: monotonic submission instant for the queue-wait metric; runtime
    #: only (never journaled — replayed jobs restart the clock).
    submitted_monotonic: float = 0.0
    #: ``JobQueue.compactions`` when the job became terminal (0 when
    #: replayed); runtime only.
    settled_at: int = 0

    @property
    def remaining_points(self) -> int:
        """Points not yet resolved — the job's admission-control weight."""
        return self.total_points - self.completed_points

    @property
    def total_points(self) -> int:
        return len(self.keys)

    @property
    def completed_points(self) -> int:
        return sum(1 for key in self.keys if key in self.done_keys)

    def summary(self) -> Dict[str, object]:
        """Poll-response form (without per-point statistics)."""
        out: Dict[str, object] = {
            "id": self.id,
            "state": self.state,
            "priority": self.priority,
            "points": self.total_points,
            "completed": self.completed_points,
            "benchmarks": list(self.request.benchmarks),
            "memory_refs": self.request.memory_refs,
            "seed": self.request.seed,
            "trace_id": self.trace_id,
        }
        if self.request.tags:
            out["tags"] = dict(self.request.tags)
        if self.failures:
            out["failures"] = list(self.failures)
        if self.error:
            out["error"] = self.error
        return out


def _job_id(seq: int, canonical: str) -> str:
    """Stable, human-sortable id: submission order + request fingerprint."""
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]
    return f"job-{seq:06d}-{digest}"


class JobQueue:
    """Priority queue of jobs, journaled to ``journal_path``.

    All methods are synchronous and must be called from one thread (the
    service's event loop); persistence is write-through — every state
    transition is journaled before it is observable.

    ``jobs`` holds the live (non-terminal) jobs and the finished ones
    that :meth:`compact` has not released yet; the admission measures
    (:meth:`pending`, :meth:`backlog_points`, :meth:`inflight_bytes`)
    read only the live ones, indexed where each transition is
    journaled, and the per-state counts of the jobs held
    (:meth:`state_counts`) are kept at the same sites.
    """

    def __init__(self, journal_path: Union[str, Path]) -> None:
        self.journal_path = Path(journal_path)
        self.jobs: Dict[str, Job] = {}
        self._live: Dict[str, Job] = {}
        self._counts: Dict[str, int] = dict.fromkeys(JobState.ALL, 0)
        self._heap: List = []  # (priority, seq, job id)
        self._seq = 0
        self._recovered: List[str] = []
        self.journal_write_errors = 0
        self.compactions = 0
        #: journal size right after the last compaction (0 before it).
        self._compacted_bytes = 0
        self._event_counts: Dict[str, int] = {}
        if self.journal_path.exists():
            self._replay()
        self._journal = JsonlSink(self.journal_path, mode="a")

    def _event(self, event: str, **fields: object) -> None:
        """Write one journal record, surviving a failing write.

        The deterministic chaos harness can schedule an ``OSError``
        here (``journal-io`` fault, keyed by event name + occurrence);
        real disk errors take the same path: count, log, keep serving.
        """
        occurrence = self._event_counts.get(event, 0)
        self._event_counts[event] = occurrence + 1
        try:
            if faults.service_fault("journal-io", event, occurrence) is not None:
                raise OSError(f"injected journal-io fault on {event!r}")
            self._journal.event(event, **fields)
        except OSError as exc:
            self.journal_write_errors += 1
            _log.warning(
                f"[service] journal write failed ({event}): {exc} — "
                f"continuing without this record"
            )

    def journal_bytes(self) -> int:
        """Current on-disk journal size (0 when unreadable/absent)."""
        try:
            return self.journal_path.stat().st_size
        except OSError:
            return 0

    # -- recovery ----------------------------------------------------------

    def _replay(self) -> None:
        """Rebuild queue state from the journal; tolerate a torn tail.

        A crash mid-write can leave a truncated final line; like the
        result cache, an unreadable record is skipped rather than
        poisoning recovery.
        """
        for line in self.journal_path.read_text(encoding="utf-8").splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            event = record.get("event")
            if event in ("job-submitted", "job-snapshot"):
                try:
                    request = parse_sweep_request(record["request"])
                except (SchemaError, KeyError):
                    continue  # journal from an incompatible schema version
                seq = int(record.get("seq", self._seq))
                self._seq = max(self._seq, seq + 1)
                job = self._make_job(
                    request, dict(record["request"]), seq, record.get("id")
                )
                self.jobs[job.id] = job
                if event == "job-snapshot" and record.get("state") in JobState.TERMINAL:
                    # one record per job, written by compactions before
                    # the journal held transitions only; its done_keys
                    # are ignored, the store serves finished points.
                    job.state = record["state"]
                    job.error = record.get("error")
                    job.failures = list(record.get("failures", []))
                continue
            job = self.jobs.get(record.get("id", ""))
            state = _TRANSITIONS.get(event)
            if job is None or state is None:
                continue
            job.state = state
            if state in JobState.TERMINAL:
                job.error = record.get("message")
                job.failures = list(record.get("failures", []))
        # anything non-terminal goes back on the queue: a RUNNING job at
        # crash time restarts (already-done points are served from the
        # shared store, so only the remainder re-simulates).
        for job in sorted(self.jobs.values(), key=lambda j: j.seq):
            if job.state not in JobState.TERMINAL:
                job.state = JobState.QUEUED
                heapq.heappush(self._heap, (job.priority, job.seq, job.id))
                self._live[job.id] = job
                self._recovered.append(job.id)
            self._counts[job.state] += 1

    @property
    def recovered_job_ids(self) -> List[str]:
        """Jobs re-queued by journal replay (empty on a fresh start)."""
        return list(self._recovered)

    def _make_job(
        self,
        request: SweepRequest,
        payload: Dict[str, object],
        seq: int,
        job_id: Optional[str] = None,
    ) -> Job:
        points = request.points()
        encoded = request.canonical()
        resolved_id = job_id or _job_id(seq, encoded)
        return Job(
            id=resolved_id,
            seq=seq,
            priority=request.priority,
            request=request,
            payload=payload,
            points=points,
            keys=[point.cache_key() for point in points],
            payload_bytes=len(encoded),
            trace_id=request.trace_id or resolved_id,
            submitted_monotonic=time.monotonic(),
        )

    # -- submission and dispatch -------------------------------------------

    def submit(self, request: SweepRequest) -> Job:
        """Accept a validated request; journal it; queue it."""
        job = self._make_job(request, request.to_dict(), self._seq)
        self._seq += 1
        self.jobs[job.id] = job
        self._live[job.id] = job
        self._counts[JobState.QUEUED] += 1
        self._event("job-submitted", **self._submitted_record(job))
        heapq.heappush(self._heap, (job.priority, job.seq, job.id))
        return job

    def pop(self) -> Optional[Job]:
        """Highest-priority queued job, marked running; None when idle."""
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self.jobs.get(job_id)
            if job is None or job.state != JobState.QUEUED:
                continue  # cancelled while queued, and maybe since released
            self._move(job, JobState.RUNNING)
            self._event("job-started", id=job.id)
            return job
        return None

    def pending(self) -> int:
        return self._counts[JobState.QUEUED]

    def state_counts(self) -> Dict[str, int]:
        """Jobs held in each lifecycle state, every state listed."""
        return dict(self._counts)

    def listed(self, limit: int) -> List[Job]:
        """Every live job in submission order, then the newest finished
        ones while fewer than ``limit`` jobs are listed."""
        listed = list(self._live.values())
        for job in reversed(self.jobs.values()):
            if len(listed) >= limit:
                break
            if job.state in JobState.TERMINAL:
                listed.append(job)
        return listed

    def backlog_points(self) -> int:
        """Unresolved points across every non-terminal job."""
        return sum(job.remaining_points for job in self._live.values())

    def inflight_bytes(self) -> int:
        """Serialized request bytes held by non-terminal jobs."""
        return sum(job.payload_bytes for job in self._live.values())

    def _move(self, job: Job, state: str) -> None:
        """Set ``job``'s state, keeping the per-state counts."""
        self._counts[job.state] -= 1
        self._counts[state] += 1
        job.state = state

    def _settle(self, job: Job, state: str) -> None:
        """Move ``job`` to the terminal ``state``, out of the live index,
        and journal its terminal record."""
        self._move(job, state)
        self._live.pop(job.id, None)
        job.settled_at = self.compactions
        event, fields = self._terminal_record(job)
        self._event(event, **fields)

    # -- journal records ---------------------------------------------------

    @staticmethod
    def _submitted_record(job: Job) -> Dict[str, object]:
        return {"id": job.id, "seq": job.seq, "priority": job.priority,
                "trace_id": job.trace_id, "request": job.payload}

    @staticmethod
    def _terminal_record(job: Job) -> Tuple[str, Dict[str, object]]:
        """The event and fields of terminal ``job``'s closing record."""
        fields: Dict[str, object] = {"id": job.id}
        if job.error is not None:
            fields["message"] = job.error
        if job.failures:
            fields["failures"] = list(job.failures)
        return f"job-{job.state}", fields

    # -- progress ----------------------------------------------------------

    def point_completed(self, job: Job, key: str) -> None:
        """Count one of ``job``'s points done.  In memory only: a
        replayed job's finished points come from the result store."""
        job.done_keys.add(key)

    def complete(self, job: Job) -> None:
        self._settle(job, JobState.COMPLETED)

    def fail(self, job: Job, message: str, failures: List[Dict[str, object]]) -> None:
        job.error = message
        job.failures = failures
        self._settle(job, JobState.FAILED)

    def cancel(self, job_id: str) -> bool:
        """Cancel a *queued* job; running/terminal jobs are left alone."""
        job = self.jobs.get(job_id)
        if job is None or job.state != JobState.QUEUED:
            return False
        self._settle(job, JobState.CANCELLED)
        return True

    def cancel_running(self, job: Job) -> None:
        """Journal a cooperative cancellation of a *running* job.

        The engine owns the hard part (cancelling the job's outstanding
        point tasks); the queue's contract is that the terminal
        transition hits the journal before it is observable.
        """
        self._settle(job, JobState.CANCELLED)

    def requeue(self, job: Job) -> None:
        """Return an interrupted running job to the queue (drain path).

        Keeps its original priority and submission order.  Its finished
        points stay in ``done_keys`` for this process; a restarted one
        finds them in the result store, so only the remainder re-runs.
        """
        self._move(job, JobState.QUEUED)
        heapq.heappush(self._heap, (job.priority, job.seq, job.id))
        self._event("job-requeued", id=job.id, completed=job.completed_points)

    def shutdown_marker(self, **fields: object) -> None:
        """Journal a clean ``service-shutdown`` marker (drain path)."""
        self._event("service-shutdown", **fields)

    # -- compaction --------------------------------------------------------

    def compact(self) -> None:
        """Rewrite the journal as each held job's ``job-submitted`` and
        terminal records, releasing the jobs already terminal at the
        previous compaction (their results stay in the store).

        The rewrite goes to a temp file that is fsynced and atomically
        renamed over the journal, so a crash at any instant leaves
        either the old journal or the new one — never a mix — and jobs
        are released only after the rename.
        """
        held: List[Job] = []
        released: List[Job] = []
        for job in self.jobs.values():
            done = job.state in JobState.TERMINAL and job.settled_at < self.compactions
            (released if done else held).append(job)
        tmp_path = self.journal_path.with_name(self.journal_path.name + ".compact")
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                for job in held:
                    records = [("job-submitted", self._submitted_record(job))]
                    if job.state in JobState.TERMINAL:
                        records.append(self._terminal_record(job))
                    handle.writelines(
                        json.dumps({"event": event, **fields}, sort_keys=True) + "\n"
                        for event, fields in records
                    )
                handle.flush()
                os.fsync(handle.fileno())
            self._journal.close()
            os.replace(tmp_path, self.journal_path)
            self.compactions += 1
            for job in released:
                del self.jobs[job.id]
                self._counts[job.state] -= 1
        except OSError as exc:
            self.journal_write_errors += 1
            _log.warning(f"[service] journal compaction failed: {exc}")
            try:
                tmp_path.unlink()
            except OSError:
                pass
        finally:
            # reopen even after a failed rewrite or rename: the old journal
            # is intact; a failed attempt, too, waits a whole interval
            self._journal.close()
            self._journal = JsonlSink(self.journal_path, mode="a")
            self._compacted_bytes = self.journal_bytes()

    def maybe_compact(self, max_bytes: int) -> bool:
        """Compact once the journal has grown by more than ``max_bytes``
        since the last compaction (0 never compacts)."""
        before = self.journal_bytes()
        if not max_bytes or before <= self._compacted_bytes + max_bytes:
            return False
        held = len(self.jobs)
        self.compact()
        _log.info(
            f"[service] journal compacted: {before} -> "
            f"{self.journal_bytes()} bytes ({held - len(self.jobs)} finished "
            f"job(s) released, {len(self.jobs)} held)"
        )
        return True

    def close(self) -> None:
        self._journal.close()
