"""Simulation-as-a-service: an async job API over :mod:`repro.runner`.

The service turns the batch reproduction into a traffic-serving system:

* :mod:`repro.service.schema` — the validation-first request contract
  (:class:`SweepRequest`): malformed sweeps are rejected upfront with
  actionable, field-addressed errors, and every accepted point is keyed
  by ``SystemConfig.digest()`` exactly like the runner's result cache;
* :mod:`repro.service.queue` — a persistent priority job queue whose
  JSONL journal replays after a restart, so no accepted job is ever
  lost mid-batch;
* :mod:`repro.service.dedup` — single-flight deduplication, so a point
  that concurrent submissions all want is computed exactly once;
* :mod:`repro.service.engine` — the asyncio engine tying them to the
  execution core: each point resolves through one
  :class:`~repro.runner.Runner`'s result store, failure step and
  success step, and simulates through the worker pool and attempt
  loop of :mod:`repro.runner.pool`, the same ones pooled batch runs
  use (spawned workers, a per-point watchdog that kills a hung
  worker).  Around that core it adds what a server needs: admission
  control with ``429`` + ``Retry-After`` backpressure, priority
  dispatch, cooperative cancellation of running jobs, graceful drain
  on shutdown, and journal compaction;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib-only asyncio HTTP API (submit sweep → job id → poll / stream)
  and the matching blocking client;
* :mod:`repro.service.cli` — the ``repro-serve`` entry point (serve,
  submit, status, wait, smoke).

Statistics served by the service are field-for-field identical to what
:meth:`repro.runner.Runner.run_points` returns for the same points —
both funnel through :func:`repro.runner.worker.execute_point` and the
same ``SimStats`` round trip.
"""

from repro.service.dedup import FlightCancelled, SingleFlight
from repro.service.engine import (
    AdmissionError,
    ServiceConfig,
    SimulationService,
)
from repro.service.queue import Job, JobQueue, JobState
from repro.service.schema import SchemaError, SweepRequest, parse_sweep_request

__all__ = [
    "AdmissionError",
    "FlightCancelled",
    "Job",
    "JobQueue",
    "JobState",
    "SchemaError",
    "ServiceConfig",
    "SimulationService",
    "SingleFlight",
    "SweepRequest",
    "parse_sweep_request",
]
