"""``repro-serve``: the simulation service from the command line.

Subcommands:

* ``serve``  — run the HTTP service (journal + shared cache + workers);
* ``submit`` — POST a sweep to a running service, print the job id;
* ``status`` — one job's status (or every job when no id is given);
* ``wait``   — block until a job is terminal, print its final status;
* ``smoke``  — self-contained end-to-end check: boot an ephemeral
  in-process service, submit a tiny sweep over real HTTP, wait for it,
  verify the returned statistics are field-for-field identical to
  simulating the same points directly, and validate the ``GET /metrics``
  Prometheus exposition.  Exit 0 on success; used by CI.

``serve`` is production-shaped: SIGTERM/SIGINT trigger a *graceful
drain* (stop admitting, finish in-flight jobs up to
``--drain-deadline`` seconds, re-queue the rest, journal a clean
shutdown marker), and every robustness knob — admission caps, per-point
watchdog, journal compaction — is settable by flag or by a
``REPRO_SERVE_*`` environment variable (the flag wins).  See the
"Operating the service" section of the README for the full table of
knobs, the drain semantics, and the chaos-harness workflow that
exercises them.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import tempfile
import threading
from typing import Callable, Dict, List, Optional, TypeVar

from repro import __version__
from repro.experiments.cli import default_cache_dir
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import ServiceConfig, SimulationService
from repro.service.server import ServiceServer

__all__ = ["main"]

_T = TypeVar("_T")


def _env_default(name: str, cast: Callable[[str], _T], fallback: _T) -> _T:
    """``REPRO_SERVE_<name>`` parsed with ``cast``, else ``fallback``."""
    raw = os.environ.get(f"REPRO_SERVE_{name}")
    if raw is None or raw == "":
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise SystemExit(
            f"repro-serve: invalid REPRO_SERVE_{name}={raw!r} "
            f"(expected {cast.__name__})"
        )


def _add_url(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url",
        default=os.environ.get("REPRO_SERVE_URL", "http://127.0.0.1:8642"),
        help="service base URL (default: REPRO_SERVE_URL, else "
        "http://127.0.0.1:8642)",
    )


def _build_service(args: argparse.Namespace) -> ServiceServer:
    from repro.obs.log import JsonlSink

    run_log = JsonlSink(args.run_log, mode="a") if args.run_log else None
    config = ServiceConfig(
        journal_path=args.journal,
        cache_dir=None if args.no_cache else (args.cache_dir or default_cache_dir()),
        workers=args.workers,
        max_retries=args.max_retries,
        run_log=run_log,
        max_queued_jobs=args.max_queued_jobs,
        max_queued_points=args.max_queued_points,
        max_inflight_bytes=args.max_inflight_bytes,
        point_timeout=args.point_timeout or None,
        journal_max_bytes=args.journal_max_bytes,
    )
    return ServiceServer(SimulationService(config), host=args.host, port=args.port)


def _cmd_serve(args: argparse.Namespace) -> int:
    server = _build_service(args)

    async def run() -> None:
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()

        def request_shutdown(signame: str) -> None:
            print(
                f"repro-serve: {signame} received — draining "
                f"(deadline {args.drain_deadline:.0f}s)",
                file=sys.stderr,
                flush=True,
            )
            stop.set()

        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, request_shutdown, sig.name)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without signal support
        print(
            f"repro-serve {__version__} listening on "
            f"http://{server.host}:{server.port} "
            f"(journal: {args.journal})",
            flush=True,
        )
        serve_task = asyncio.create_task(server.serve_forever())
        stop_task = asyncio.create_task(stop.wait())
        try:
            done, _ = await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if serve_task in done and serve_task.exception() is not None:
                raise serve_task.exception()
        finally:
            for task in (serve_task, stop_task):
                task.cancel()
            await asyncio.gather(serve_task, stop_task, return_exceptions=True)
            for sig in installed:
                loop.remove_signal_handler(sig)
            await server.stop(drain=True, deadline=args.drain_deadline)
            print("repro-serve: drained cleanly", file=sys.stderr, flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("repro-serve: shutting down", file=sys.stderr)
    return 0


def _read_payload(args: argparse.Namespace) -> Dict[str, object]:
    if args.file:
        if args.file == "-":
            return json.load(sys.stdin)
        with open(args.file, "r", encoding="utf-8") as handle:
            return json.load(handle)
    payload: Dict[str, object] = {
        "benchmarks": args.benchmarks,
        "memory_refs": args.memory_refs,
        "seed": args.seed,
        "priority": args.priority,
    }
    if args.config:
        payload["configs"] = [json.loads(raw) for raw in args.config]
    return payload


def _cmd_submit(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        summary = client.submit(_read_payload(args))
    except ServiceError as exc:
        print(f"repro-serve: rejected: {exc}", file=sys.stderr)
        return 1
    if args.wait:
        summary = client.wait(summary["id"], timeout=args.timeout)
    print(json.dumps(summary, indent=2))
    return 0 if summary.get("state") != "failed" else 1


def _format_duration(seconds: float) -> str:
    """``93784.2`` → ``"1d 2h 3m 4s"`` (largest-first, zero parts dropped)."""
    seconds = max(0, int(seconds))
    parts: List[str] = []
    for unit, span in (("d", 86400), ("h", 3600), ("m", 60)):
        if seconds >= span:
            parts.append(f"{seconds // span}{unit}")
            seconds %= span
    parts.append(f"{seconds}s")
    return " ".join(parts)


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        if args.job_id:
            print(json.dumps(client.job(args.job_id), indent=2))
        else:
            stats = client.stats()
            uptime = stats.get("uptime_seconds")
            if isinstance(uptime, (int, float)):
                print(
                    f"repro-serve: service up {_format_duration(uptime)} "
                    f"(started {stats.get('started_at', 'unknown')})",
                    file=sys.stderr,
                )
            print(json.dumps({"jobs": client.jobs()}, indent=2))
    except ServiceError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_wait(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        status = client.wait(args.job_id, timeout=args.timeout)
    except (ServiceError, TimeoutError) as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(status, indent=2))
    return 0 if status.get("state") == "completed" else 1


class EphemeralServer:
    """A real HTTP service on an OS-assigned port, in a daemon thread.

    Used by the smoke test and the service test suite: the event loop
    runs in its own thread so blocking clients (urllib) can talk to it
    from the main thread, exactly as an external client would.
    """

    def __init__(self, config: ServiceConfig, host: str = "127.0.0.1") -> None:
        self.server = ServiceServer(SimulationService(config), host=host, port=0)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        #: set before leaving the context to exit via graceful drain
        #: instead of the default hard stop (the chaos tests use this).
        self.drain = False
        self.drain_deadline: Optional[float] = None

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def __enter__(self) -> "EphemeralServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-smoke", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def __exit__(self, *exc_info: object) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def _run(self) -> None:
        async def run() -> None:
            self._stop_event = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            try:
                await self._stop_event.wait()
            finally:
                await self.server.stop(
                    drain=self.drain, deadline=self.drain_deadline
                )

        asyncio.run(run())


def _cmd_smoke(args: argparse.Namespace) -> int:
    # The journal, result cache and trace store live in a temporary
    # directory that goes on every exit path.
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        return _smoke(args, tmp)


def _smoke(args: argparse.Namespace, tmp: str) -> int:
    from repro.runner import SimPoint
    from repro.runner.worker import execute_point

    config = ServiceConfig(
        journal_path=os.path.join(tmp, "journal.jsonl"),
        cache_dir=os.path.join(tmp, "cache"),
        workers=2,
    )
    payload = {
        "benchmarks": list(args.benchmarks),
        "memory_refs": args.memory_refs,
        "seed": args.seed,
        "configs": [{"prefetch": {"enabled": True}}, {}],
    }
    with EphemeralServer(config) as ephemeral:
        client = ServiceClient(ephemeral.url)
        if not client.healthy():
            print("repro-serve smoke: FAIL — /healthz not responding")
            return 1
        contract = client.contract()
        job = client.submit(payload)
        print(
            f"repro-serve smoke: submitted {job['id']} "
            f"({job['points']} points) to {ephemeral.url}"
        )
        status = client.wait(job["id"], timeout=args.timeout)
        if status["state"] != "completed":
            print(f"repro-serve smoke: FAIL — job ended {status['state']}")
            print(json.dumps(status, indent=2))
            return 1
        results = status["results"]
        mismatches: List[str] = []
        for entry in results:
            point = SimPoint(
                benchmark=entry["benchmark"],
                config=_find_config(entry["config_digest"], payload),
                memory_refs=args.memory_refs,
                seed=args.seed,
            )
            direct, _ = execute_point(point)
            if direct != entry["stats"]:
                diffs = [
                    f"{field}: served {entry['stats'].get(field)!r} "
                    f"!= direct {value!r}"
                    for field, value in direct.items()
                    if entry["stats"].get(field) != value
                ]
                mismatches.append(
                    f"{entry['benchmark']}@{entry['config_digest'][:8]}: "
                    + "; ".join(diffs)
                )
        stats = client.stats()
        if mismatches:
            print("repro-serve smoke: FAIL — served stats diverge from direct run")
            for line in mismatches:
                print(f"  {line}")
            return 1
        if not isinstance(stats.get("uptime_seconds"), (int, float)):
            print("repro-serve smoke: FAIL — /v1/stats lacks uptime_seconds")
            return 1
        from repro.obs.metrics import validate_exposition

        exposition = client.metrics()
        problems = validate_exposition(
            exposition,
            expect_families=(
                "repro_job_queue_wait_seconds",
                "repro_queued_jobs",
                "repro_point_seconds",
                "repro_http_request_seconds",
                "repro_http_requests_total",
                "repro_store_hits_total",
                "repro_store_misses_total",
                "repro_admission_rejected_total",
                "repro_watchdog_timeouts_total",
                "repro_uptime_seconds",
            ),
        )
        if problems:
            print("repro-serve smoke: FAIL — /metrics exposition invalid:")
            for line in problems:
                print(f"  {line}")
            return 1
        if args.dump_metrics:
            with open(args.dump_metrics, "w", encoding="utf-8") as handle:
                handle.write(exposition)
            print(f"repro-serve smoke: wrote /metrics scrape to {args.dump_metrics}")
        print(
            f"repro-serve smoke: OK — {len(results)} point(s) field-identical "
            f"to direct simulation; {len(contract['benchmarks'])} benchmarks "
            f"in contract; store {stats['store']['misses']} miss(es), "
            f"flight {stats['single_flight']['leaders']} leader(s); "
            f"/metrics exposition valid "
            f"({exposition.count(chr(10))} lines)"
        )
    return 0


def _find_config(digest: str, payload: Dict[str, object]):
    """Rebuild the SystemConfig whose digest the service reported."""
    from repro.service.schema import build_config

    for overrides in payload["configs"]:
        config = build_config(overrides)
        if config.digest() == digest:
            return config
    raise AssertionError(f"service returned unknown config digest {digest!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Async simulation-as-a-service over the repro runner.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the HTTP service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--journal",
        default=os.path.join(default_cache_dir(), "service-journal.jsonl"),
        help="JSONL job journal; replayed on restart "
        "(default: <cache-dir>/service-journal.jsonl)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="shared result store (default: REPRO_CACHE_DIR, else ~/.cache/repro)",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="memo-only, no on-disk store"
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="simulation worker processes, one point each at a time (default 2)",
    )
    serve.add_argument(
        "--max-retries", type=int, default=2,
        help="retries per failed point (default 2)",
    )
    serve.add_argument(
        "--run-log", default=None, metavar="PATH",
        help="append JSONL telemetry (runner-compatible event names)",
    )
    serve.add_argument(
        "--max-queued-jobs", type=int,
        default=_env_default("MAX_QUEUED_JOBS", int, 64),
        help="admission cap on queued jobs, 0 = unlimited "
        "(default 64; env REPRO_SERVE_MAX_QUEUED_JOBS)",
    )
    serve.add_argument(
        "--max-queued-points", type=int,
        default=_env_default("MAX_QUEUED_POINTS", int, 4096),
        help="admission cap on unresolved points, 0 = unlimited "
        "(default 4096; env REPRO_SERVE_MAX_QUEUED_POINTS)",
    )
    serve.add_argument(
        "--max-inflight-bytes", type=int,
        default=_env_default("MAX_INFLIGHT_BYTES", int, 8 << 20),
        help="admission cap on serialized request bytes, 0 = unlimited "
        "(default 8 MiB; env REPRO_SERVE_MAX_INFLIGHT_BYTES)",
    )
    serve.add_argument(
        "--point-timeout", type=float,
        default=_env_default("POINT_TIMEOUT", float, 0.0),
        help="per-point watchdog seconds, 0 disables "
        "(default 0; env REPRO_SERVE_POINT_TIMEOUT)",
    )
    serve.add_argument(
        "--journal-max-bytes", type=int,
        default=_env_default("JOURNAL_MAX_BYTES", int, 4 << 20),
        help="journal size that triggers snapshot compaction, 0 disables "
        "(default 4 MiB; env REPRO_SERVE_JOURNAL_MAX_BYTES)",
    )
    serve.add_argument(
        "--drain-deadline", type=float,
        default=_env_default("DRAIN_DEADLINE", float, 30.0),
        help="seconds SIGTERM/SIGINT waits for in-flight jobs before "
        "re-queueing them (default 30; env REPRO_SERVE_DRAIN_DEADLINE)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser("submit", help="submit a sweep to a running service")
    _add_url(submit)
    submit.add_argument(
        "--file", metavar="PATH",
        help="JSON request payload ('-' for stdin); overrides the flags below",
    )
    submit.add_argument(
        "--benchmarks", nargs="+", default=["mcf"], metavar="NAME"
    )
    submit.add_argument("--memory-refs", type=int, default=8_000)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--priority", type=int, default=5)
    submit.add_argument(
        "--config", action="append", default=None, metavar="JSON",
        help="config-override object; repeat for a multi-config sweep",
    )
    submit.add_argument(
        "--wait", action="store_true", help="block until the job is terminal"
    )
    submit.add_argument("--timeout", type=float, default=600.0)
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="job status (all jobs when no id)")
    _add_url(status)
    status.add_argument("job_id", nargs="?", default=None)
    status.set_defaults(func=_cmd_status)

    wait = sub.add_parser("wait", help="block until a job is terminal")
    _add_url(wait)
    wait.add_argument("job_id")
    wait.add_argument("--timeout", type=float, default=600.0)
    wait.set_defaults(func=_cmd_wait)

    smoke = sub.add_parser(
        "smoke",
        help="end-to-end self-check against an ephemeral in-process service",
    )
    smoke.add_argument(
        "--benchmarks", nargs="+", default=["mcf", "swim"], metavar="NAME"
    )
    smoke.add_argument("--memory-refs", type=int, default=2_000)
    smoke.add_argument("--seed", type=int, default=0)
    smoke.add_argument("--timeout", type=float, default=300.0)
    smoke.add_argument(
        "--dump-metrics", metavar="PATH", default=None,
        help="save the validated /metrics scrape to PATH (CI artifact)",
    )
    smoke.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
