"""Command-line entry point: ``repro-experiment <name> [--profile P]``.

Runs one experiment (or ``all``) and prints the paper-style table plus
the paper-reported reference values for comparison.

Simulation points are executed through the :mod:`repro.runner`
subsystem: ``--jobs N`` fans points across a process pool (default:
``REPRO_JOBS``, else serial), and results persist in an on-disk cache
(``--cache-dir``, default ``REPRO_CACHE_DIR``, else
``~/.cache/repro``) so re-running an experiment — or another
experiment sharing points with it — only simulates what it has never
seen.  ``--no-cache`` disables persistence; any change to the
simulator source, a ``RESULT_VERSION`` bump, or a package version bump
invalidates every cached entry.

Long sweeps are fault tolerant: ``--job-timeout`` arms a watchdog that
kills and retries hung pooled simulations, failures are retried up to
``--max-retries`` times with deterministic backoff, a broken worker
pool is rebuilt once and then abandoned for inline execution, cache
write errors degrade to cache-off, and ``--keep-going`` renders the
experiments from whatever points succeeded instead of aborting.  Every
failure event is summarized in an end-of-run report on stderr.
``Ctrl-C`` terminates the workers, keeps everything already cached,
and exits with status 130.

For ad-hoc sweeps outside the paper's fixed experiments — or to share
one result cache between many clients — ``repro-serve``
(:mod:`repro.service.cli`) exposes the same runner as an async HTTP
job API; point it at the same ``--cache-dir`` and the two fronts
never simulate the same point twice.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from typing import List, Optional

from repro import __version__
from repro.core.config import ConfigError, default_backend_name
from repro.experiments.common import PROFILES
from repro.runner import PointFailureError, Runner, set_runner
from repro.runner.cache import default_cache_dir

__all__ = ["EXPERIMENTS", "main"]

#: experiment name -> module (each exposes run(profile) and render(result)).
EXPERIMENTS = {
    "figure1": "repro.experiments.figure1",
    "table1": "repro.experiments.table1",
    "table2": "repro.experiments.table2",
    "mapping": "repro.experiments.mapping",
    "table3": "repro.experiments.table3",
    "table4": "repro.experiments.table4",
    "figure5": "repro.experiments.figure5",
    "region-size": "repro.experiments.region_size",
    "utilization": "repro.experiments.utilization",
    "cache-size": "repro.experiments.cache_size",
    "latency-sensitivity": "repro.experiments.latency_sensitivity",
    "software-prefetch": "repro.experiments.software_prefetch",
    "backend-compare": "repro.experiments.backends",
}


def _profile_sim(benchmark: str, profile, top: int = 25) -> int:
    """Simulate one point under cProfile; print sorted hot-spot tables.

    Trace construction and the simulation itself both run inside the
    profile window (trace generation is part of the optimized kernel).
    The point uses the prefetch-enabled configuration so the region
    engine and DRAM scheduling paths appear in the profile.  The point
    goes through ``execute_point`` like any experiment point, and the
    summary line names the kernel whose code the profile recorded.
    """
    import cProfile
    import io
    import pstats

    from repro.core.config import SystemConfig
    from repro.kernel.fastcore import FastSystem
    from repro.runner import SimPoint
    from repro.runner.worker import execute_point

    point = SimPoint(
        benchmark=benchmark,
        config=SystemConfig().with_prefetch(enabled=True),
        memory_refs=profile.memory_refs,
        seed=profile.seed,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    _, wall = execute_point(point)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    code = FastSystem._run.__code__
    ran_fast = (code.co_filename, code.co_firstlineno, code.co_name) in stats.stats
    kernel = "fast" if ran_fast else "reference"
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    print(f"profiled {benchmark} ({profile.name}: {profile.memory_refs} refs, "
          f"single point, {kernel} kernel, {wall:.2f}s simulated wall time)")
    print(stream.getvalue().rstrip())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate tables/figures from Lin, Reinhardt & Burger (HPCA 2001).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which paper result to regenerate",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default=None,
        help="simulation effort (default: REPRO_PROFILE env var, else 'quick')",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="simulate up to N points in parallel (default: REPRO_JOBS, else 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk result cache (default: REPRO_CACHE_DIR, else ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per completed simulation job to stderr",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog: kill and retry any pooled simulation running longer "
        "than this (default: REPRO_JOB_TIMEOUT, else no watchdog)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry a failed simulation point up to N times "
        "(default: REPRO_MAX_RETRIES, else 2)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="when a point fails permanently, render the experiments from "
        "the points that succeeded instead of aborting",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run every simulated point under the runtime invariant "
        "checker (repro.sanitize): DRDRAM protocol legality, demand "
        "priority, cache/MSHR structural invariants.  Statistics and "
        "experiment output are byte-identical with or without it; a "
        "violated invariant fails the point immediately with full "
        "cycle/component context.  Skips cache reads so every point "
        "is actually simulated and checked",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="run every simulated point on this DRAM backend "
        "(see --list-backends): sets REPRO_BACKEND for this process "
        "and its pool workers, so each experiment's configurations are "
        "built against that memory system.  Default: REPRO_BACKEND "
        "env var, else 'drdram' (the paper's Direct Rambus model)",
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="list registered DRAM backends and exit",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a Chrome trace-event JSON of every simulated point "
        "(load in Perfetto / chrome://tracing); forces inline execution "
        "and skips cache reads so events are actually generated",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write per-point latency histograms and windowed timelines "
        "as JSON (merged aggregates included); forces inline execution",
    )
    parser.add_argument(
        "--run-log",
        default=None,
        metavar="FILE",
        help="append one JSON line per runner lifecycle event "
        "(point started/retried/timed-out/completed) to FILE",
    )
    parser.add_argument(
        "--trace-id",
        default=None,
        metavar="ID",
        help="correlation id stamped on every run-log event and obs "
        "artifact, so one logical run is greppable across files "
        "(default: REPRO_TRACE_ID, else unset)",
    )
    parser.add_argument(
        "--profile-sim",
        nargs="?",
        const="mcf",
        default=None,
        metavar="BENCHMARK",
        help="instead of running the experiment, simulate one point of "
        "BENCHMARK (default: mcf, prefetch enabled) under cProfile and "
        "print the hottest functions",
    )
    args = parser.parse_args(argv)
    if args.list_backends:
        from repro.dram.backends import backend_names, get_backend

        default = default_backend_name()
        for name in backend_names():
            marker = "*" if name == default else " "
            print(f"{marker} {name:<12} {get_backend(name).description}")
        return 0
    if args.experiment is None:
        parser.error("the experiment argument is required (or use --list-backends)")
    if args.backend is not None:
        from repro.dram.backends import backend_names, has_backend

        if not has_backend(args.backend):
            parser.error(
                f"--backend: unknown DRAM backend {args.backend!r} "
                f"(registered: {', '.join(backend_names())})"
            )
        # Environment, not a parameter: pool workers inherit it, and
        # every SystemConfig constructed anywhere in the experiment
        # picks it up as the default.
        os.environ["REPRO_BACKEND"] = args.backend
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.job_timeout is not None and args.job_timeout <= 0:
        parser.error(f"--job-timeout must be positive, got {args.job_timeout}")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error(f"--max-retries must be >= 0, got {args.max_retries}")

    if args.profile_sim is not None:
        from repro.experiments.common import active_profile
        from repro.workloads import BENCHMARKS

        if args.profile_sim not in BENCHMARKS:
            parser.error(f"--profile-sim: unknown benchmark {args.profile_sim!r}")
        return _profile_sim(
            args.profile_sim,
            PROFILES[args.profile] if args.profile else active_profile(),
        )

    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    runner_kwargs = {}
    if args.job_timeout is not None:
        runner_kwargs["timeout"] = args.job_timeout
    if args.max_retries is not None:
        runner_kwargs["max_retries"] = args.max_retries
    trace_id = args.trace_id or os.environ.get("REPRO_TRACE_ID") or None
    session = None
    if args.trace or args.metrics:
        from repro.obs import ObsSession

        session = ObsSession(
            trace_path=args.trace, metrics_path=args.metrics, trace_id=trace_id
        )
    run_log = None
    if args.run_log:
        from repro.obs import JsonlSink

        try:
            run_log = JsonlSink(args.run_log)
        except OSError as error:
            parser.error(f"cannot open run log {args.run_log!r}: {error}")
    try:
        runner = Runner(
            jobs=args.jobs,
            cache_dir=cache_dir,
            progress=args.progress,
            keep_going=args.keep_going,
            run_log=run_log,
            observe=session,
            sanitize=args.sanitize,
            trace_id=trace_id,
            **runner_kwargs,
        )
    except OSError as error:
        parser.error(f"cannot use cache dir {cache_dir!r}: {error}")
    set_runner(runner)

    profile = PROFILES[args.profile] if args.profile else None
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    exit_code = 0
    try:
        for name in names:
            module = importlib.import_module(EXPERIMENTS[name])
            started = time.time()
            result = module.run(profile)
            print(module.render(result))
            print()
            # timing and runner diagnostics go to stderr: stdout must be
            # byte-identical regardless of --jobs / cache state.
            print(f"[{name}: {time.time() - started:.1f}s]", file=sys.stderr)
    except KeyboardInterrupt:
        # workers are already torn down by Runner; completed points
        # stay in the on-disk cache for the next invocation.
        print(
            "repro-experiment: interrupted — completed results remain cached",
            file=sys.stderr,
        )
        return 130
    except PointFailureError as error:
        print(f"repro-experiment: {error}", file=sys.stderr)
        print("(re-run with --keep-going to render what succeeded)", file=sys.stderr)
        exit_code = 1
    except ConfigError as error:
        print(f"repro-experiment: invalid configuration: {error}", file=sys.stderr)
        return 2
    finally:
        # Observability output lands on every exit path (an interrupted
        # sweep keeps the points already committed); notices go to
        # stderr — stdout stays byte-identical with and without
        # --trace/--metrics/--run-log.
        if run_log is not None:
            run_log.close()
        if session is not None:
            try:
                for path in session.close():
                    print(f"[obs] wrote {path}", file=sys.stderr)
            except OSError as error:
                print(
                    f"[obs] could not write observability output: {error}",
                    file=sys.stderr,
                )
    if runner.failures:
        print(runner.failure_report(), file=sys.stderr)
    summary = runner.summary()
    print(
        f"[runner: jobs={summary['jobs']} simulated={summary['simulated']}"
        f" cache-hits={summary['disk_hits']} reused={summary['reused']}"
        f" sim-time={summary['sim_seconds']}s]",
        file=sys.stderr,
    )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
