"""Tests for the simulation service: contract, queue, dedup, engine, HTTP.

The load-generation tests drive the real engine with a stubbed
``execute_point`` (from :mod:`tests.service_doubles`, importable by the
service's pool workers) so a thousand mostly-duplicate submissions
settle in seconds; the fidelity tests use the real simulator on tiny
points and assert the service's statistics are field-for-field
identical to calling the worker directly.
"""

import asyncio
import dataclasses
import errno
import json
import os
import random
import re
import selectors
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import pytest

import repro.core.config as config_module
from repro.core.config import DRAM_PARTS, SystemConfig
from repro.service import schema
from repro.runner import ResultStore, SimPoint, faults
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
from repro.service import server as server_module
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

    @pytest.mark.parametrize(
        "overrides, field, message",
        [
            # equal (==) to enabled=true, but it digested differently
            ({"prefetch": {"enabled": 1}}, "config.prefetch.enabled",
             "must be a boolean, got int"),
            # built a direct-mapped L2 under a digest of its own
            ({"l2": {"assoc": True}}, "config.l2.assoc",
             "must be an integer, got bool"),
            # was "invalid overrides: unsupported operand type(s) for &"
            ({"l2": {"size_bytes": 1048576.0}}, "config.l2.size_bytes",
             "must be an integer, got float"),
            # was an unhashable-type TypeError, a 500 over HTTP
            ({"dram": {"part": []}}, "config.dram.part",
             "unknown DRDRAM part []; expected one of 800-34, 800-40, 800-50"),
            ({"dram": {"mapping": 3}}, "config.dram.mapping",
             "must be a string, got int"),
            ({"core": {"clock_ghz": float("nan")}}, "config.core.clock_ghz",
             "must be a finite number"),
            ({"core": {"clock_ghz": 10**400}}, "config.core.clock_ghz",
             "must be a finite number"),
        ],
    )
    def test_ill_typed_override_is_field_addressed(self, overrides, field, message):
        with pytest.raises(SchemaError) as excinfo:
            parse_sweep_request(_sweep(config=overrides))
        assert excinfo.value.errors == [{"field": field, "message": message}]

    def test_every_section_field_has_a_type_check(self):
        base = SystemConfig()
        for section in schema._CONFIG_SECTIONS:
            for f in dataclasses.fields(getattr(base, section)):
                if (section, f.name) not in (("dram", "part"), ("dram", "backend")):
                    assert f.type in schema._FIELD_TYPES, (section, f.name, f.type)

    def test_int_for_a_float_field_is_stored_as_that_float(self):
        as_int = build_config({"core": {"clock_ghz": 2}})
        as_float = build_config({"core": {"clock_ghz": 2.0}})
        assert type(as_int.core.clock_ghz) is float
        assert as_int == as_float
        assert as_int.digest() == as_float.digest()

    def test_well_typed_overrides_digest_as_configs_built_in_code(
        self, monkeypatch
    ):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        prefetch = build_config({"prefetch": {"enabled": True}})
        assert prefetch.digest() == SystemConfig().with_prefetch().digest()
        assert prefetch.digest().startswith("dcb1661c")
        direct_mapped = build_config({"l2": {"assoc": 1}})
        base = SystemConfig()
        in_code = dataclasses.replace(base, l2=dataclasses.replace(base.l2, assoc=1))
        assert direct_mapped.digest() == in_code.digest()
        assert direct_mapped.digest().startswith("87a548f2")

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


@pytest.fixture()
def fresh_interned(monkeypatch):
    """An empty config memo for one test (restored afterwards)."""
    memo = {}
    monkeypatch.setattr(schema, "_INTERNED", memo)
    return memo


class TestInterning:
    def test_key_order_does_not_matter(self, fresh_interned):
        first = build_config(
            {"prefetch": {"enabled": True, "policy": "fifo"}, "l2": {"assoc": 8}}
        )
        again = build_config(
            {"l2": {"assoc": 8}, "prefetch": {"policy": "fifo", "enabled": True}}
        )
        assert again is first
        assert len(fresh_interned) == 1

    def test_one_and_true_never_share_an_entry(self, fresh_interned):
        assert build_config({"l2": {"assoc": 1}}).l2.assoc == 1
        with pytest.raises(SchemaError):
            build_config({"l2": {"assoc": True}})
        assert build_config({"prefetch": {"enabled": True}}).prefetch.enabled is True
        with pytest.raises(SchemaError):
            build_config({"prefetch": {"enabled": 1}})
        # 2 and 2.0 build one machine, but under two keys
        assert build_config({"core": {"clock_ghz": 2}}) == build_config(
            {"core": {"clock_ghz": 2.0}}
        )
        assert len(fresh_interned) == 4

    def test_errors_keep_their_paths_after_a_good_section(self, fresh_interned):
        parse_sweep_request(_sweep(configs=[{}, {"l2": {"assoc": 8}}]))
        for _ in range(2):  # an error is never kept, so it repeats whole
            with pytest.raises(SchemaError) as excinfo:
                parse_sweep_request(
                    _sweep(configs=[{}, {"l2": {"assoc": 8, "mshrs": 0.5}}])
                )
            assert excinfo.value.errors == [
                {"field": "configs[1].l2.mshrs",
                 "message": "must be an integer, got float"}
            ]
            with pytest.raises(SchemaError) as excinfo:
                parse_sweep_request(_sweep(config={"l2": {"assoc": 3}}))
            assert [e["field"] for e in excinfo.value.errors] == ["config.l2"]
        assert len(fresh_interned) == 2

    def test_memo_stays_within_its_bound(self, fresh_interned, monkeypatch):
        monkeypatch.setattr(schema, "_INTERNED_MAX", 8)
        built = [
            build_config({"core": {"clock_ghz": 1.0 + i / 10}}) for i in range(20)
        ]
        assert len(fresh_interned) == 8
        # the oldest went first; an evicted config rebuilds equal
        assert build_config({"core": {"clock_ghz": 2.9}}) is built[-1]
        rebuilt = build_config({"core": {"clock_ghz": 1.0}})
        assert rebuilt == built[0] and rebuilt is not built[0]
        assert len(fresh_interned) == 8

    def test_concurrent_builds_keep_the_bound(self, fresh_interned, monkeypatch):
        monkeypatch.setattr(schema, "_INTERNED_MAX", 4)
        errors = []

        def build(offset):
            try:
                for i in range(150):
                    ghz = 1.0 + (offset + i) % 12 / 10
                    assert build_config({"core": {"clock_ghz": ghz}}).core.clock_ghz == ghz
            except BaseException as exc:  # reported below, on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(fresh_interned) <= 4

    def test_default_backend_is_part_of_the_key(self, fresh_interned, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert build_config({}).dram.backend == "drdram"
        monkeypatch.setenv("REPRO_BACKEND", "tldram")
        assert build_config({}).dram.backend == "tldram"

    def test_resubmissions_digest_each_config_once(
        self, tmp_path, monkeypatch, fresh_interned
    ):
        """50 submissions of one 2-config sweep build each config's
        digest tree once: ``asdict`` is what ``SystemConfig.digest``
        walks the dataclass tree with."""
        walked = []
        real_asdict = config_module.asdict

        def counting_asdict(obj):
            walked.append(obj)
            return real_asdict(obj)

        monkeypatch.setattr(config_module, "asdict", counting_asdict)
        service = SimulationService(
            ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))
        )
        payload = _sweep(
            benchmarks=["mcf", "swim"],
            configs=[{"prefetch": {"enabled": True}}, {"l2": {"assoc": 8}}],
        )
        try:
            jobs = [service.submit_payload(payload) for _ in range(50)]
        finally:
            service.queue.close()
        assert len({job.id for job in jobs}) == 50
        assert len(walked) == 2
        assert {c.digest() for c in walked} == {
            p.config.digest() for p in jobs[0].points
        }


# ---------------------------------------------------------------------------
# queue
# ---------------------------------------------------------------------------


def _admission_scan(queue):
    """pending / backlog points / in-flight bytes / jobs per state, from
    every job."""
    live = [j for j in queue.jobs.values() if j.state not in JobState.TERMINAL]
    counts = dict.fromkeys(JobState.ALL, 0)
    for job in queue.jobs.values():
        counts[job.state] += 1
    return (
        sum(1 for j in live if j.state == JobState.QUEUED),
        sum(j.remaining_points for j in live),
        sum(j.payload_bytes for j in live),
        counts,
    )


class TestJobQueue:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_live_index_matches_a_full_scan(self, tmp_path, seed):
        """After every transition, journal replay and compaction, the
        admission measures read from the live-job index and the per-state
        counts equal a scan of every job the queue holds."""
        rng = random.Random(seed)
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        on_running = (
            "point_completed", "complete", "fail", "cancel_running", "requeue"
        )
        applied = set()
        for step in range(200):
            jobs = sorted(queue.jobs.values(), key=lambda j: j.seq)
            running = [j for j in jobs if j.state == JobState.RUNNING]
            op = rng.choice(
                ("submit", "pop", "cancel", "replay", "compact")
                + (on_running if running else ())
            )
            if op == "submit":
                benchmarks = rng.sample(["mcf", "swim", "eon"], rng.randint(1, 3))
                queue.submit(parse_sweep_request(_sweep(
                    benchmarks=benchmarks,
                    seed=rng.randrange(3),
                    priority=rng.randint(0, 9),
                )))
            elif op == "pop":
                queue.pop()
            elif op == "cancel":
                if jobs:
                    queue.cancel(rng.choice(jobs).id)
            elif op == "replay":
                queue.close()
                queue = JobQueue(journal)
            elif op == "compact":
                queue.compact()
            else:
                job = rng.choice(running)
                if op == "point_completed":
                    queue.point_completed(job, rng.choice(job.keys))
                elif op == "complete":
                    queue.complete(job)
                elif op == "fail":
                    queue.fail(job, "boom", [])
                elif op == "cancel_running":
                    queue.cancel_running(job)
                else:
                    queue.requeue(job)
            applied.add(op)
            measured = (
                queue.pending(), queue.backlog_points(), queue.inflight_bytes(),
                queue.state_counts(),
            )
            assert measured == _admission_scan(queue), (step, op)
            for job in queue.jobs.values():
                # one encoding charges a job alike on submit and replay
                assert job.payload_bytes == len(
                    json.dumps(job.payload, sort_keys=True, separators=(",", ":"))
                )
        queue.close()
        assert applied == {"submit", "pop", "cancel", "replay", "compact", *on_running}

    def test_compaction_holds_live_jobs_plus_two_intervals(self, tmp_path):
        """Hundreds of jobs under a small journal budget.  The queue
        holds its live jobs plus the jobs finished since the compaction
        before the last one, compactions never outrun the bytes appended,
        and reopening the journal after any compaction gives the same
        held jobs and re-queues exactly the live ones."""
        rng = random.Random(7)
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        max_bytes = 8 << 10
        appended = 0
        finished = []  # job ids in the order they became terminal
        marks = [0, 0]  # len(finished) at each compaction
        running = []

        def fields(job):
            return (job.state, job.priority, job.seq, job.trace_id,
                    job.error, job.failures)

        for step in range(800):
            before = queue.journal_bytes()
            op = rng.random()
            if op < 0.4 or not (queue.pending() or running):
                queue.submit(parse_sweep_request(_sweep(
                    benchmarks=rng.sample(["mcf", "swim", "eon"], rng.randint(1, 3)),
                    seed=rng.randrange(500),
                    priority=rng.randint(0, 9),
                )))
            elif queue.pending() and (op < 0.65 or not running):
                if rng.random() < 0.1:
                    queued = [j for j in queue.jobs.values()
                              if j.state == JobState.QUEUED]
                    job = rng.choice(queued)
                    assert queue.cancel(job.id)
                    finished.append(job.id)
                else:
                    running.append(queue.pop())
            else:
                job = running.pop(rng.randrange(len(running)))
                for key in job.keys:
                    queue.point_completed(job, key)
                end = rng.random()
                if end < 0.1:
                    queue.requeue(job)
                elif end < 0.2:
                    queue.fail(job, f"boom {step}", [{"kind": "crash", "step": step}])
                elif end < 0.25:
                    queue.cancel_running(job)
                else:
                    if end < 0.35:  # a transient failure the engine recorded
                        job.failures.append({"kind": "timeout", "step": step})
                    queue.complete(job)
                if job.state in JobState.TERMINAL:
                    finished.append(job.id)
            appended += queue.journal_bytes() - before
            if queue.maybe_compact(max_bytes):
                marks.append(len(finished))
                assert queue.compactions <= appended // max_bytes
                copy = tmp_path / "reopened.jsonl"
                copy.write_bytes(journal.read_bytes())
                reopened = JobQueue(copy)
                live = sorted(
                    (j for j in queue.jobs.values()
                     if j.state not in JobState.TERMINAL),
                    key=lambda j: j.seq,
                )
                assert reopened.recovered_job_ids == [j.id for j in live]
                expected = {
                    j.id: fields(j) for j in queue.jobs.values()
                    if j.state in JobState.TERMINAL
                }
                for job in live:  # a replayed running job is queued again
                    expected[job.id] = (JobState.QUEUED,) + fields(job)[1:]
                assert {
                    j.id: fields(j) for j in reopened.jobs.values()
                } == expected, step
                reopened.close()
            held_finished = {
                j.id for j in queue.jobs.values() if j.state in JobState.TERMINAL
            }
            assert held_finished == set(finished[marks[-2]:]), step
            assert queue.state_counts() == _admission_scan(queue)[3]
        queue.close()
        assert queue.compactions >= 5
        assert len(queue.jobs) < len(finished)
        assert {e["event"] for e in _journal_events(journal)} <= {
            "job-submitted", "job-started", "job-requeued", "job-completed",
            "job-failed", "job-cancelled",
        }

    def test_failed_compaction_releases_nothing_and_waits_an_interval(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        finished = []
        for seed in range(3):
            finished.append(queue.submit(parse_sweep_request(_sweep(seed=seed))))
            queue.complete(queue.pop())
        queue.compact()  # nothing was terminal at a previous compaction
        blocker = tmp_path / "journal.jsonl.compact"
        blocker.mkdir()  # the rewrite's temp file cannot be opened
        size = queue.journal_bytes()
        queue.compact()
        assert (queue.compactions, queue.journal_write_errors) == (1, 1)
        assert len(queue.jobs) == 3 and queue.journal_bytes() == size
        assert not queue.maybe_compact(1)  # no growth since the failed attempt
        live = queue.submit(parse_sweep_request(_sweep(seed=9)))
        blocker.rmdir()
        assert queue.maybe_compact(1)
        assert list(queue.jobs) == [live.id]
        assert queue.state_counts()[JobState.COMPLETED] == 0
        queue.close()
        reopened = JobQueue(journal)
        assert list(reopened.jobs) == [live.id]
        reopened.close()

    def test_journal_size_is_counted_not_statted(self, tmp_path, monkeypatch):
        """Finished jobs cost no ``stat`` of the journal: the queue counts
        the bytes it appends, reads the size from disk only after a
        compaction or a failed write, and its count equals the file's
        size after every step (compactions, an injected ``journal-io``
        fault and a torn write among them)."""
        journal = tmp_path / "journal.jsonl"
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, faults.FaultPlan([
            faults.FaultSpec(match="job-completed", fault="journal-io", attempts=(30,))
        ]).to_json())
        queue = JobQueue(journal)
        real_stat = os.stat
        statted = []

        def stat(path, *args, **kwargs):
            if os.fspath(path) == str(journal):
                statted.append(path)
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", stat)
        monkeypatch.setattr(Path, "stat", stat)

        class Torn:
            """Writes half a record, then fails like a full disk (once)."""

            def __init__(self, stream):
                self.stream = stream

            def write(self, line):
                sink._stream = self.stream
                self.stream.write(line[:len(line) // 2])
                self.stream.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        for step in range(120):
            if step == 70:
                sink = queue._journal
                sink._stream = Torn(sink._stream)
            job = queue.submit(parse_sweep_request(_sweep(seed=step)))
            assert queue.pop() is job
            for key in job.keys:
                queue.point_completed(job, key)
            queue.complete(job)
            queue.maybe_compact(16 << 10)
            assert len(statted) == queue.compactions + queue.journal_write_errors, step
            assert queue.journal_bytes() == real_stat(journal).st_size, step
        assert queue.compactions >= 2 and queue.journal_write_errors == 2
        queue.close()

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
        # the journal records jobs, not points: the result store serves
        # the finished point when the job runs again
        assert replayed.done_keys == set()
        assert replayed.keys == torn.keys  # same points, same content keys
        assert recovered.jobs[finished.id].state == JobState.COMPLETED
        # priority order preserved across the restart
        assert recovered.pop().id == torn.id
        recovered.close()

    def test_replay_reads_snapshot_records_of_older_compactions(self, tmp_path):
        """Compactions before the journal held transitions only wrote one
        ``job-snapshot`` record per job; replay recovers those jobs."""
        request = _sweep(configs=[{}], seed=1, priority=5)
        lines = [
            {"event": "job-snapshot", "id": "job-000000-0000aaaa", "seq": 0,
             "priority": 5, "state": "completed", "request": request,
             "done_keys": ["k0"]},
            {"event": "job-snapshot", "id": "job-000001-0000bbbb", "seq": 1,
             "priority": 5, "state": "failed", "request": dict(request, seed=2),
             "done_keys": [], "error": "boom",
             "failures": [{"kind": "crash", "key": "k1", "attempt": 0}]},
            {"event": "job-snapshot", "id": "job-000002-0000cccc", "seq": 2,
             "priority": 3, "state": "running",
             "request": dict(request, seed=3, priority=3),
             "done_keys": ["k2"]},
        ]
        journal = tmp_path / "journal.jsonl"
        journal.write_text("".join(json.dumps(line) + "\n" for line in lines))
        queue = JobQueue(journal)
        completed, failed, running = (queue.jobs[line["id"]] for line in lines)
        assert completed.state == JobState.COMPLETED
        assert (completed.error, completed.failures) == (None, [])
        assert failed.state == JobState.FAILED
        assert failed.error == "boom"
        assert failed.failures == lines[1]["failures"]
        # an unfinished job is re-queued at its priority; its done_keys
        # are ignored, since the store serves finished points
        assert queue.recovered_job_ids == [running.id]
        assert running.done_keys == set()
        assert (running.priority, running.seq) == (3, 2)
        assert queue.state_counts()["queued"] == 1
        assert queue.pop() is running
        assert queue.submit(parse_sweep_request(_sweep(seed=4))).seq == 3
        queue.close()

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

    def test_known_route_with_another_method_is_405_with_allow(self, http_service):
        # (method, path, the methods its route serves)
        pairs = [
            ("POST", "/healthz", {"GET"}),
            ("POST", "/v1/contract", {"GET"}),
            ("DELETE", "/v1/stats", {"GET"}),
            ("PUT", "/metrics", {"GET"}),
            ("GET", "/v1/sweeps", {"POST"}),
            ("POST", "/v1/jobs", {"GET"}),
            ("PUT", "/v1/jobs/job-000000-00000000", {"GET", "DELETE"}),
            ("POST", "/v1/jobs/job-000000-00000000/stream", {"GET"}),
        ]
        for method, path, allowed in pairs:
            reply = _raw_http(
                http_service,
                f"{method} {path} HTTP/1.1\r\nContent-Length: 0\r\n\r\n".encode(),
            )
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 405 "), (method, path, head)
            allow = re.search(rb"\r\nAllow: ([^\r]*)", head)
            assert allow is not None, (method, path, head)
            assert {m.strip() for m in allow.group(1).decode().split(",")} == allowed
            assert json.loads(body) == {"error": "method-not-allowed"}
        # an unknown path stays 404 whatever the method
        reply = _raw_http(http_service, b"POST /v2/nope HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 404 ")

    def test_retry_after_is_whole_seconds_at_least_the_body_hint(
        self, tmp_path, monkeypatch
    ):
        """A 429's and a 503's ``Retry-After`` is delay-seconds (RFC 9110
        §10.2.3), rounded up from the hint the body keeps precisely, and
        the client retries on the body's hint."""
        service = SimulationService(
            ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"),
                          max_queued_jobs=1)
        )
        server = server_module.ServiceServer(service)
        service.queue.submit(parse_sweep_request(_sweep(seed=1)))  # fills it
        replies = {}
        try:
            replies[429] = server._dispatch("POST", "/v1/sweeps", _sweep(seed=2))
            service._draining = True
            replies[503] = server._dispatch("POST", "/v1/sweeps", _sweep(seed=3))
        finally:
            service.queue.close()
        for status, reply in replies.items():
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 %d " % status)
            header = re.search(rb"\r\nRetry-After: ([^\r]*)", head).group(1).decode()
            assert re.fullmatch(r"[0-9]+", header), header
            hint = json.loads(body)["retry_after"]
            assert int(header) >= max(1, hint)
        monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
        with EphemeralServer(
            ServiceConfig(journal_path=str(tmp_path / "served.jsonl"))
        ) as ephemeral:
            ephemeral.server.service._draining = True
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(ephemeral.url)._request("POST", "/v1/sweeps", _sweep())
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == excinfo.value.payload["retry_after"]

    def test_job_list_is_every_live_job_then_the_newest_finished(self, tmp_path):
        service = SimulationService(
            ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))
        )
        queue = service.queue
        jobs = [queue.submit(parse_sweep_request(_sweep(seed=seed)))
                for seed in range(1200)]
        for job in jobs:
            assert queue.pop() is job  # one priority: submission order
        live = [job.id for job in jobs[7::100]]  # left running ...
        for job in jobs:
            if job.id not in live:
                queue.complete(job)
        for job in jobs[7::200]:
            queue.requeue(job)  # ... or queued again
        try:
            reply = server_module.ServiceServer(service)._dispatch(
                "GET", "/v1/jobs", None
            )
        finally:
            queue.close()
        head, body = reply.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 200 ")
        document = json.loads(body)
        assert document["held"] == 1200
        listed = [summary["id"] for summary in document["jobs"]]
        assert len(listed) == server_module.MAX_LISTED_JOBS == 1000
        assert listed[:len(live)] == live
        finished = [job.id for job in reversed(jobs) if job.id not in live]
        assert listed[len(live):] == finished[:1000 - len(live)]


# ---------------------------------------------------------------------------
# robustness satellites: malformed input, unknown ids, transport errors,
# SSE disconnects, cancellation while queued
# ---------------------------------------------------------------------------


def _raw_http(client, request_bytes, timeout=10.0, segment=None):
    """Send raw bytes to the service the client points at; return the reply.

    With ``segment``, the bytes go out ``segment`` at a time, each sent
    on its own after a short pause."""
    import socket
    from urllib.parse import urlsplit

    parts = urlsplit(client.base_url)
    with socket.create_connection(
        (parts.hostname, parts.port), timeout=timeout
    ) as sock:
        if segment is None:
            sock.sendall(request_bytes)
        else:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for start in range(0, len(request_bytes), segment):
                sock.sendall(request_bytes[start:start + segment])
                time.sleep(0.001)
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

    def test_stalled_body_gets_400_and_a_closed_connection(
        self, http_service, monkeypatch
    ):
        # the head promises 100 body bytes and one arrives: the request
        # deadline, which covers head and body, answers it
        monkeypatch.setattr(server_module, "REQUEST_TIMEOUT", 0.5)
        started = time.monotonic()
        reply = _raw_http(
            http_service,
            b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 100\r\n\r\n{",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"malformed-request" in reply
        assert time.monotonic() - started < 5.0  # not the client's timeout

    def test_request_sent_one_byte_per_segment_gets_its_answer(self, http_service):
        body = json.dumps(_sweep(seed=31)).encode()
        reply = _raw_http(
            http_service,
            b"POST /v1/sweeps HTTP/1.1\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
            segment=1,
        )
        head, _, document = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 202 ")
        job = json.loads(document)
        assert job["points"] == 1
        assert http_service.wait(job["id"], timeout=30)["state"] == "completed"

    def test_bytes_past_the_first_request_get_no_second_answer(self, http_service):
        # one request per connection: the second is never answered
        reply = _raw_http(
            http_service,
            b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/stats HTTP/1.1\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.count(b"HTTP/1.1") == 1
        assert reply.endswith(b'{"ok": true}')

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
            assert service.cancel_job(queued.id) is True
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


# ---------------------------------------------------------------------------
# the connection layer: partial sends, stream hang-ups, abandoned
# requests, stop()
# ---------------------------------------------------------------------------


def _on_loop(ephemeral, function):
    """Call ``function`` on the server's event loop; return its result."""

    async def call():
        return function()

    return asyncio.run_coroutine_threadsafe(call(), ephemeral._loop).result(10)


def _until(ephemeral, function, expected, timeout=5.0):
    """Poll ``function`` on the server's loop until it returns ``expected``."""
    deadline = time.monotonic() + timeout
    while (value := _on_loop(ephemeral, function)) != expected:
        assert time.monotonic() < deadline, value
        time.sleep(0.005)


def _readers(ephemeral):
    """File descriptors the server's event loop watches for reading."""
    return {
        key.fd for key in ephemeral._loop._selector.get_map().values()
        if key.events & selectors.EVENT_READ
    }


def _connect(ephemeral):
    parts = urlsplit(ephemeral.url)
    return socket.create_connection((parts.hostname, parts.port), timeout=10)


def _read_stream_head(sock):
    """Read a stream's response head and its first (snapshot) event."""
    received = b""
    while b"\n\n" not in received.partition(b"\r\n\r\n")[2]:
        chunk = sock.recv(4096)
        assert chunk, received
        received += chunk
    assert received.startswith(b"HTTP/1.1 200 ")
    return received


@pytest.fixture()
def ephemeral(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
    config = ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))
    with EphemeralServer(config) as server:
        yield server


class TestConnections:
    def test_response_larger_than_one_send_arrives_whole_when_read_slowly(
        self, tmp_path, monkeypatch
    ):
        # no socket buffer takes 8 MB at once: the rest goes out as the
        # client reads, and the server answers others meanwhile
        document = {"blob": "x" * (8 << 20)}
        monkeypatch.setattr(SimulationService, "stats", lambda self: document)
        monkeypatch.setattr("repro.service.engine.execute_point", fake_execute)
        config = ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))
        with EphemeralServer(config) as ephemeral:
            server = ephemeral.server
            parts = urlsplit(ephemeral.url)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10)
            with sock:
                sock.connect((parts.hostname, parts.port))
                sock.sendall(b"GET /v1/stats HTTP/1.1\r\n\r\n")
                received = bytearray(sock.recv(4096))
                assert received.startswith(b"HTTP/1.1 200 ")
                # the unsent rest is a task's, and it blocks no one
                assert _on_loop(ephemeral, lambda: len(server._open)) == 1
                assert ServiceClient(ephemeral.url).healthy()
                while True:
                    chunk = sock.recv(16384)
                    if not chunk:
                        break
                    received += chunk
                    time.sleep(0.0002)
            head, _, body = bytes(received).partition(b"\r\n\r\n")
            length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
            assert len(body) == length
            assert json.loads(body) == document
            _until(ephemeral, lambda: len(server._open), 0)

    def test_client_closing_a_live_stream_frees_its_watcher_and_socket(
        self, tmp_path, monkeypatch
    ):
        doubles.install(monkeypatch, doubles.gated_execute, tmp_path)
        config = ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))
        with EphemeralServer(config) as ephemeral:
            server = ephemeral.server
            client = ServiceClient(ephemeral.url, timeout=30.0)
            job = client.submit(_sweep(seed=77))
            before = _on_loop(ephemeral, lambda: _readers(ephemeral))
            sock = _connect(ephemeral)
            sock.sendall(f"GET /v1/jobs/{job['id']}/stream HTTP/1.1\r\n\r\n".encode())
            _read_stream_head(sock)

            def held():
                return (len(server.service._progress._waiters),
                        len(server._open), _readers(ephemeral) - before)

            watching = _on_loop(ephemeral, held)
            assert watching[:2] == (1, 1) and len(watching[2]) == 1
            sock.close()
            # no event is due (the job waits at the gate), yet the
            # watcher and the socket go now
            _until(ephemeral, held, (0, 0, set()), timeout=2.0)
            doubles.open_gate(tmp_path)
            assert client.wait(job["id"], timeout=30)["state"] == "completed"

    def test_client_closing_mid_request_leaves_no_reader_or_timer(self, ephemeral):
        server = ephemeral.server
        before = _on_loop(ephemeral, lambda: _readers(ephemeral))
        sock = _connect(ephemeral)
        sock.sendall(b"POST /v1/sweeps HTTP/1.1\r\nContent-Len")
        _until(ephemeral, lambda: len(server._open), 1)
        (request,) = _on_loop(ephemeral, lambda: list(server._open.values()))
        deadline = request.deadline
        assert _on_loop(ephemeral, lambda: _readers(ephemeral) - before) == {
            request.sock.fileno()
        }
        sock.close()
        _until(ephemeral, lambda: (len(server._open), _readers(ephemeral)), (0, before))
        assert deadline.cancelled()
        assert request.sock.fileno() == -1  # closed

    def test_stop_closes_every_open_connection(self, tmp_path, monkeypatch):
        doubles.install(monkeypatch, doubles.gated_execute, tmp_path)
        config = ServiceConfig(journal_path=str(tmp_path / "journal.jsonl"))
        with EphemeralServer(config) as ephemeral:
            server = ephemeral.server
            client = ServiceClient(ephemeral.url, timeout=30.0)
            job = client.submit(_sweep(seed=5))
            stream = _connect(ephemeral)
            stream.sendall(f"GET /v1/jobs/{job['id']}/stream HTTP/1.1\r\n\r\n".encode())
            _read_stream_head(stream)
            partial = _connect(ephemeral)
            partial.sendall(b"GET /healthz HTTP/1.1\r\n")
            _until(ephemeral, lambda: len(server._open), 2)
        # the job is still at the gate: stop() closed both connections
        with stream, partial:
            for sock in (stream, partial):
                sock.settimeout(5)
                while sock.recv(4096):
                    pass
        assert server._open == {} and server._listeners == []


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
