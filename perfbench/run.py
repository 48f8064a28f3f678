#!/usr/bin/env python3
"""End-to-end benchmark: cold golden-verified sweeps on both simulation
kernels, plus mixed traffic against a real ``repro-serve serve`` process.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

Workloads (BENCHMARK.json records why each was chosen):

``sweep_cold``
    24 points (six tiny-profile benchmarks x baseline, prefetch,
    chargecache, tldram; 8,000 refs, trace seed 0) through
    ``Runner(jobs=1).run_points`` on the reference kernel;
``sweep_cold_fast``
    the same with ``REPRO_FAST=1``;
``service_mixed``
    closed-loop sweeps from two client threads (see ``load.py``).

Every repetition runs the program in fresh processes, with fresh and
empty result-cache, trace-store and journal directories under
``.perfbench/``, and with every inherited ``REPRO_*`` variable cleared.
Each result is compared field for field with the goldens in
``tests/golden/``; a mismatch, an exception, a job that did not
complete, or a refused submission counts as a failed operation.

``--seconds`` is the least time a run spends measuring: repetitions
continue until it has passed, and at least the workload's least count
is made (see ``WORKLOADS``); values are medians over them.  ``--trace 1`` instead makes one untraced
and one traced repetition and reports the per-layer metrics from the
traced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from golden import GOLDEN_FILES, Goldens  # noqa: E402
from load import LoadGenerator, request  # noqa: E402
from tracing import NullTracer, Tracer, by_layer, model_counts, uncovered  # noqa: E402

#: setup is sampled this many times per run and reported as the median:
#: each repetition's own setup, plus spawns that only set up.
SETUP_SAMPLES = 5
SERVICE_JOBS = 600
#: warm jobs a service repetition needs, so that ten lie beyond the p95.
MIN_WARM_JOBS = 200
#: a run gives up (and prints no result) after this many seconds.
DEADLINE_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# -- processes ---------------------------------------------------------------


class Child:
    """One program process; stdout is read line by line, stderr is logged."""

    def __init__(self, argv: List[str], env: Dict[str, str], log: Path) -> None:
        self.log = log
        self.peak_rss_mb: Optional[float] = None
        with open(log, "wb") as stderr:
            self.spawned = time.monotonic()
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=stderr,
            )

    def expect(self, tag: str) -> str:
        """The rest of the next stdout line starting with ``tag``."""
        for raw in self.proc.stdout:
            line = raw.decode("utf-8", "replace").rstrip("\n")
            if line.startswith(tag):
                return line[len(tag):].strip()
        self.finish()
        tail = self.log.read_text(errors="replace")[-2000:]
        raise BenchError(f"{self.proc.args[1]} exited before {tag!r}:\n{tail}")

    def finish(self, sig: Optional[int] = None) -> float:
        """Stop (optionally by ``sig``), reap, and return peak RSS in MB.

        Peak RSS is read from outside, from the child's rusage at exit.
        """
        if self.proc.returncode is None:
            if sig is not None:
                self.proc.send_signal(sig)
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
            self.proc.stdout.close()
        if sig is None and self.proc.returncode != 0:
            tail = self.log.read_text(errors="replace")[-2000:]
            raise BenchError(f"{self.proc.args[1]} exited {self.proc.returncode}:\n{tail}")
        return self.peak_rss_mb

    def cpu_seconds(self) -> float:
        """User plus system CPU the process has used so far, from /proc."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.finish(signal.SIGKILL)


# -- one run -----------------------------------------------------------------


@dataclass
class Rep:
    """One repetition of a workload in fresh processes."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    attempted: int
    failed: int
    errors: List[str]
    #: workload-specific correctness checks that passed (name -> bool).
    checks: Dict[str, bool] = field(default_factory=dict)
    #: round trips of the service's warm jobs, in submission order.
    warm_ms: List[float] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)


class Context:
    """One run: its arguments, its work directory and its processes."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.workload = args.workload
        self.goldens = Goldens(ROOT)
        self.work = ROOT / ".perfbench" / f"run-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)  # left by a killed run
        self.work.mkdir(parents=True)
        self.children: List[Child] = []
        self._dirs = 0

    def spawn(self, argv: List[str], env: Dict[str, str], work: Path) -> Child:
        child = Child(argv, env, work / "stderr.log")
        self.children.append(child)
        return child

    def close(self) -> None:
        """Stop every process the run started, then drop its work dir."""
        for child in self.children:
            child.kill()
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / str(self._dirs)
        (path / "tmp").mkdir(parents=True)
        return path

    def env(self, work: Path, fast: bool = False) -> Dict[str, str]:
        """Inherited environment minus every REPRO_* knob, plus fresh dirs."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(SRC),
            TMPDIR=str(work / "tmp"),
            REPRO_CACHE_DIR=str(work / "results"),
            REPRO_TRACE_STORE=str(work / "traces"),
        )
        if fast:
            env["REPRO_FAST"] = "1"
        return env

    def keep_spans(self, source: Path, name: str) -> None:
        """Keep a traced run's spans in .perfbench/ after the run dir goes."""
        target = ROOT / ".perfbench" / f"spans-{self.workload}-seed{self.seed}-{name}.json"
        shutil.copyfile(source, target)


# -- sweeps ------------------------------------------------------------------


def _sweep_argv(mode: str, *extra: str) -> List[str]:
    return [sys.executable, str(HERE / "sweep_child.py"), "--mode", mode, *extra]


def sweep_setup(ctx: Context, fast: bool) -> float:
    work = ctx.fresh_dir()
    child = ctx.spawn(_sweep_argv("setup"), ctx.env(work, fast), work)
    child.expect("READY")
    setup = time.monotonic() - child.spawned
    child.finish()
    return setup


def sweep_rep(ctx: Context, fast: bool, traced: bool) -> Rep:
    work = ctx.fresh_dir()
    spans = work / "spans.json"
    argv = _sweep_argv(
        "sweep", "--seed", str(ctx.seed), *(["--spans", str(spans)] if traced else [])
    )
    child = ctx.spawn(argv, ctx.env(work, fast), work)
    child.expect("READY")
    ready, cpu = time.monotonic(), child.cpu_seconds()
    cold = json.loads(child.expect("COLD"))
    wall, cpu = time.monotonic() - ready, child.cpu_seconds() - cpu
    rep = Rep(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=child.finish(),
        setup_s=ready - child.spawned,
        attempted=cold["attempted"],
        failed=cold["failed"],
        errors=cold["errors"],
    )
    if traced:
        ctx.keep_spans(spans, "driver")
        rep.layers = sweep_layers(json.loads(spans.read_text()))
    return rep


def sweep_layers(data: dict) -> Dict[str, float]:
    """Per-layer metrics of the cold sweep from the driver's spans."""
    spans = data["spans"]
    cold = [s for s in spans if s["run"] == "cold"]
    layers = by_layer(cold)
    start, end = data["window"]
    in_window = [s for s in spans if s["run"] in ("cold", "verify")]
    out = simulation_layers(cold, layers)
    out.update(
        {
            "import_s": data["import_s"],
            "runner.overhead_s": _total(layers, "runner.run_points")
            - _total(layers, "runner.execute_point"),
            "trace.unattributed_frac": uncovered(in_window, start, end) / (end - start),
        }
    )
    out.update(data["model"])
    return out


def _total(layers: dict, name: str) -> float:
    return layers.get(name, {}).get("total", 0.0)


def _self(layers: dict, *names: str) -> float:
    return sum(layers.get(name, {}).get("self", 0.0) for name in names)


def _calls(layers: dict, *names: str) -> int:
    return sum(layers.get(name, {}).get("calls", 0) for name in names)


def simulation_layers(spans: List[dict], layers: dict) -> Dict[str, float]:
    """Layers under ``execute_point``: the same names on every workload."""
    measure = ("sim.measure.System", "sim.measure.FastSystem")

    def records(*names: str) -> int:
        return sum(s.get("records", 0) for s in spans if s["name"] in names)

    def per_record_us(seconds: float, count: int) -> float:
        return seconds / count * 1e6 if count else 0.0

    loads = [s for s in spans if s["name"] == "kernel.store.load"]
    attempts = [s for s in spans if s["name"] == "runner.execute_point"]
    points = [s["end"] - s["start"] for s in attempts]
    warmup_s, measure_s = _self(layers, "sim.warmup"), _self(layers, *measure)
    return {
        "workloads.build_s": _self(layers, "workloads.build"),
        "workloads.builds": _calls(layers, "workloads.build"),
        "kernel.store_s": _self(layers, "kernel.store.load", "kernel.store.save"),
        "kernel.store_hits": sum(1 for s in loads if s.get("hit")),
        "kernel.store_misses": sum(1 for s in loads if not s.get("hit")),
        "kernel.compile_s": _self(layers, "kernel.compile"),
        "kernel.fast_points": _calls(layers, "sim.measure.FastSystem"),
        "sim.warmup_s": warmup_s,
        "sim.warmup_us_per_record": per_record_us(warmup_s, records("sim.warmup")),
        "sim.measure_s": measure_s,
        "sim.measure_us_per_record": per_record_us(measure_s, records(*measure)),
        "runner.point_p50_s": statistics.median(points) if points else 0.0,
        "runner.point_max_s": max(points, default=0.0),
        "runner.result_write_s": _total(layers, "runner.result_write"),
        # attempts that raised: each one is retried or, at the last, fatal
        "runner.retries": sum(1 for s in attempts if s.get("error")),
        "stats.codec_s": _self(layers, "stats.codec"),
    }


# -- service -----------------------------------------------------------------

_LISTENING = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")


def start_server(ctx: Context, traced: bool):
    """Spawn ``repro-serve serve``; returns (child, port, work dir, setup_s)."""
    work = ctx.fresh_dir()
    serve = [
        "--host", "127.0.0.1", "--port", "0",
        "--journal", str(work / "journal.jsonl"),
        "--cache-dir", str(work / "results"),
    ]
    if traced:
        argv = [sys.executable, str(HERE / "serve_child.py"), str(work / "spans.json")]
    else:
        argv = [sys.executable, "-m", "repro.service.cli", "serve"]
    child = ctx.spawn(argv + serve, ctx.env(work), work)
    match = _LISTENING.search(child.expect("repro-serve"))
    if match is None:
        child.finish(signal.SIGKILL)
        raise BenchError("repro-serve did not report its port")
    port = int(match.group(1))
    while True:
        if child.proc.poll() is not None:
            raise BenchError(f"repro-serve exited {child.proc.returncode} before /healthz")
        try:
            if request(port, "GET", "/healthz", timeout=5.0)[0] == 200:
                break
        except OSError:
            pass
        time.sleep(0.002)
    return child, port, work, time.monotonic() - child.spawned


def service_setup(ctx: Context) -> float:
    child, _, _, setup = start_server(ctx, traced=False)
    child.finish(signal.SIGTERM)
    return setup


def service_rep(ctx: Context, traced: bool) -> Rep:
    child, port, work, setup = start_server(ctx, traced)
    try:
        tracer = Tracer(run="client") if traced else NullTracer()
        load = LoadGenerator(port, ctx.goldens, ctx.seed, SERVICE_JOBS, tracer)
        ready, cpu = time.monotonic(), child.cpu_seconds()
        outcomes = load.run()
        wall, cpu = time.monotonic() - ready, child.cpu_seconds() - cpu
        stats = json.loads(request(port, "GET", "/v1/stats")[1])
        exposition = request(port, "GET", "/metrics")[1].decode("utf-8")
    finally:
        rss = child.finish(signal.SIGTERM)
    if child.proc.returncode != 0:
        raise BenchError(f"repro-serve exited {child.proc.returncode}")
    failures = [o.error for o in outcomes if o.error is not None]
    unique = {point for o in outcomes for point in o.points}
    warm = [o.latency_ms for o in outcomes if o.warm and o.error is None]
    rep = Rep(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=rss,
        setup_s=setup,
        attempted=SERVICE_JOBS,
        failed=len(failures) + SERVICE_JOBS - len(outcomes),
        errors=failures[:3],
        checks={
            # single-flight and the store must simulate each point once
            "points_simulated_once": stats["points_simulated"] == len(unique),
            f"at_least_{MIN_WARM_JOBS}_warm_jobs": len(warm) >= MIN_WARM_JOBS,
        },
        warm_ms=warm,
    )
    if traced:
        tracer.dump(str(work / "client.json"))
        ctx.keep_spans(work / "client.json", "client")
        ctx.keep_spans(work / "spans.json", "server")
        server = json.loads((work / "spans.json").read_text())
        rep.layers = service_layers(server, tracer.spans, load, stats, exposition, outcomes)
    return rep


def _http_mean_ms(exposition: str, routes=("/v1/sweeps", "/v1/jobs/{id}")) -> float:
    """Mean server-side handling time of the job routes, from /metrics."""
    totals = {"sum": 0.0, "count": 0.0}
    pattern = re.compile(r'^repro_http_request_seconds_(sum|count)\{([^}]*)\} (\S+)$')
    for line in exposition.splitlines():
        match = pattern.match(line)
        if match and any(f'route="{route}"' in match.group(2) for route in routes):
            totals[match.group(1)] += float(match.group(3))
    return totals["sum"] / totals["count"] * 1e3 if totals["count"] else 0.0


def service_layers(server, client_spans, load, stats, exposition, outcomes):
    spans = server["spans"]
    layers = by_layer(spans)
    warm_jobs = {s["id"] for s in client_spans if s["name"] == "client.job" and s.get("warm")}

    def warm_p50_ms(name: str) -> float:
        times = [
            (s["end"] - s["start"]) * 1e3
            for s in client_spans
            if s["name"] == name and s["parent"] in warm_jobs
        ]
        return statistics.median(times) if times else 0.0

    store = stats["store"]
    hits = store["memo_hits"] + store["disk_hits"]
    lookups = hits + store["misses"]
    simulated = stats["points_simulated"]
    jobs = sum(stats["jobs"].values())
    parses = [s["end"] - s["start"] for s in spans if s["name"] == "service.parse"]
    windows = load.windows
    gap = sum(
        uncovered([s for s in client_spans if s["thread"] == ident], start, end)
        for start, end, ident in windows
    )
    unique = {}
    for outcome in outcomes:
        unique.update(outcome.results)
    # the service returns plain dicts; the model totals use SimStats'
    # own definitions, imported only now that the measuring is over
    sys.path.insert(0, str(SRC))
    from repro.core.stats import SimStats

    out = simulation_layers(spans, layers)
    out.update(
        {
            "import_s": server["import_s"],
            # the service resolves points itself; no Runner.run_points
            "runner.overhead_s": 0.0,
            "service.submit_p50_ms": warm_p50_ms("service.submit"),
            "service.stream_p50_ms": warm_p50_ms("service.stream"),
            "service.results_p50_ms": warm_p50_ms("service.results"),
            "service.server_http_mean_ms": _http_mean_ms(exposition),
            "service.queue_wait_mean_ms": stats["latency"]["job_queue_wait_seconds"]["mean"] * 1e3,
            "service.point_sim_mean_s": stats["sim_seconds"] / simulated if simulated else 0.0,
            "service.points_simulated": simulated,
            "service.flight_followers": stats["single_flight"]["followers"],
            "service.store_hit_ratio": hits / lookups if lookups else 0.0,
            "service.journal_bytes_per_job": stats["journal"]["bytes"] / jobs if jobs else 0.0,
            "service.parse_us": statistics.mean(parses) * 1e6 if parses else 0.0,
            "service.rejected": sum(stats["admission"]["rejected"].values()),
            "trace.unattributed_frac": gap / sum(end - start for start, end, _ in windows),
        }
    )
    out.update(model_counts(SimStats.from_dict(s) for s in unique.values()))
    return out


# -- assembling the result ---------------------------------------------------

SERVICE_ONLY = (
    "service.warm_job_p50_ms", "service.warm_job_p95_ms",
    "service.submit_p50_ms", "service.stream_p50_ms", "service.results_p50_ms",
    "service.server_http_mean_ms", "service.queue_wait_mean_ms",
    "service.point_sim_mean_s", "service.points_simulated",
    "service.flight_followers", "service.store_hit_ratio",
    "service.journal_bytes_per_job", "service.parse_us", "service.rejected",
)


def _cpu_ticks() -> List[int]:
    """The host's aggregate CPU tick counters (user ... steal) from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(value) for value in handle.readline().split()[1:9]]


def report_steal(before: List[int]) -> None:
    """Print the share of CPU time the hypervisor gave to other guests.

    Wall-clock metrics absorb it and CPU-time metrics do not, so it
    explains a run whose ``wall_s`` moved while its ``cpu_s`` did not.
    """
    delta = [b - a for a, b in zip(before, _cpu_ticks())]
    print(f"perfbench: host steal {delta[7] / max(sum(delta), 1):.1%} of CPU time")


def warm_percentiles(warm_ms: List[float]) -> Dict[str, float]:
    """Median and p95 of warm-job round trips (0 when there were none)."""
    if len(warm_ms) < 2:
        return {"service.warm_job_p50_ms": 0.0, "service.warm_job_p95_ms": 0.0}
    return {
        "service.warm_job_p50_ms": statistics.median(warm_ms),
        "service.warm_job_p95_ms": statistics.quantiles(warm_ms, n=20)[18],
    }


def measure(ctx: Context, setup, rep, min_reps: int):
    """The untraced run: repetitions until ``--seconds`` have passed."""
    ticks = _cpu_ticks()
    setups = [setup() for _ in range(SETUP_SAMPLES - min_reps)]
    reps: List[Rep] = []
    started = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - started < ctx.seconds:
        reps.append(rep(False))
    setups += [r.setup_s for r in reps]
    report_steal(ticks)
    print(
        f"perfbench: {ctx.workload} seed={ctx.seed}: {len(reps)} repetition(s), "
        f"{len(setups)} setup samples"
    )
    for r in reps:
        if r.warm_ms:
            latency = warm_percentiles(r.warm_ms)
            print(
                f"perfbench: {len(r.warm_ms)} warm jobs, p50 "
                f"{latency['service.warm_job_p50_ms']:.2f} ms, p95 "
                f"{latency['service.warm_job_p95_ms']:.2f} ms"
            )
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r.wall_s for r in reps),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
    }
    return reps, metrics


def traced(ctx: Context, rep):
    """An untraced repetition, then a traced one for the per-layer numbers."""
    ticks = _cpu_ticks()
    plain, traced_rep = rep(False), rep(True)
    report_steal(ticks)
    layers = {name: 0.0 for name in SERVICE_ONLY}
    layers.update(traced_rep.layers)
    # latency is taken with tracing off, from the untraced repetition
    layers.update(warm_percentiles(plain.warm_ms))
    layers["trace.overhead_frac"] = traced_rep.wall_s / plain.wall_s - 1.0
    print(
        f"perfbench: {ctx.workload} seed={ctx.seed}: traced wall {traced_rep.wall_s:.3f}s, "
        f"untraced {plain.wall_s:.3f}s"
    )
    return [plain, traced_rep], layers


#: workload -> (setup sample, repetition, least repetitions per run).
#: The host's speed swings by a quarter within a minute, so a run spans
#: 20-50 s of measuring; the counts keep the whole driver run (70 runs)
#: well inside its time limit on a 2-vCPU host.
WORKLOADS = {
    "sweep_cold": (
        lambda c: sweep_setup(c, False), lambda c, t: sweep_rep(c, False, t), 2
    ),
    "sweep_cold_fast": (
        lambda c: sweep_setup(c, True), lambda c, t: sweep_rep(c, True, t), 1
    ),
    "service_mixed": (service_setup, service_rep, 3),
}


def declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in file order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def summarize(reps: List[Rep], metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    """The result line: every failed operation of every repetition counts."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    checks: Dict[str, bool] = {}
    for r in reps:
        for error in r.errors:
            print(f"perfbench: FAILED {error}")
        for name, ok in r.checks.items():
            checks[name] = checks.get(name, True) and ok
    for name, ok in checks.items():
        print(f"perfbench: check {name}: {'ok' if ok else 'FAILED'}")
    print(f"perfbench: error_rate {failed}/{attempted} = {failed / max(attempted, 1):.6f}")
    return {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def run(args: argparse.Namespace) -> dict:
    ctx = Context(args)
    try:
        setup, rep, min_reps = WORKLOADS[args.workload]
        if ctx.trace:
            outcome = traced(ctx, lambda t: rep(ctx, t))
        else:
            outcome = measure(ctx, lambda: setup(ctx), lambda t: rep(ctx, t), min_reps)
    finally:
        signal.alarm(0)  # cleanup must not be cut short
        ctx.close()
    reps, metrics = outcome
    units = declared("per_layer" if ctx.trace else "end_to_end")
    return summarize(reps, metrics, units)


def _stop(signum, _frame):
    """SIGALRM (the deadline) or SIGTERM: unwind, so the run's processes stop."""
    raise BenchError(f"stopped by {signal.Signals(signum).name} (deadline {DEADLINE_S}s)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "repro", *(ROOT / g for g in GOLDEN_FILES)) if not p.exists()]
    if missing:
        print(f"perfbench: not a repro checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(DEADLINE_S)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
