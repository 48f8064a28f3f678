"""Command-line entry point: ``repro-bench [--quick] [--label L] ...``.

Runs the simulator's representative hot-path scenarios and writes
``BENCH_<label>.json`` (schema in :mod:`repro.bench.harness`).  With
``--check BASELINE.json`` the deterministic event counters of the run
are compared against the baseline file and a drift fails the process —
this is the CI perf-smoke counter gate, deliberately independent of
wall-clock time so it cannot flake on loaded shared runners.  The
wall-clock gate is ``benchmarks/paired_gate.py`` over ``perfbench/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.bench.harness import (
    compare_counters,
    load_result,
    run_benchmarks,
    write_result,
)
from repro.bench.scenarios import SCENARIOS

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the simulator's hot paths (deterministic workloads, "
        "warmup/repeat/median timing) and gate on their event counters.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--label",
        default="local",
        help="output name: results go to BENCH_<label>.json (default: local)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller inputs and fewer repeats (CI-sized run)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=None,
        metavar="N",
        help="timed repeats per scenario (default: 5, or 3 with --quick)",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=1,
        metavar="N",
        help="untimed warm-up iterations per scenario (default: 1)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        default=None,
        metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="build every scenario config against this DRAM backend "
        "(sets REPRO_BACKEND).  The backend is recorded in results, and "
        "--check reports a baseline of another backend as one mismatch.  "
        "Default: REPRO_BACKEND env var, else 'drdram'",
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="directory for BENCH_<label>.json (default: current directory)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE.json",
        help="compare deterministic event counters against this baseline file "
        "and exit 1 on any drift (wall-clock is never compared)",
    )
    args = parser.parse_args(argv)
    if args.backend is not None:
        import os

        from repro.dram.backends import backend_names, has_backend

        if not has_backend(args.backend):
            parser.error(
                f"--backend: unknown DRAM backend {args.backend!r} "
                f"(registered: {', '.join(backend_names())})"
            )
        os.environ["REPRO_BACKEND"] = args.backend
    repeat = args.repeat if args.repeat is not None else (3 if args.quick else 5)
    if repeat < 1:
        parser.error(f"--repeat must be >= 1, got {repeat}")
    if args.warmup < 0:
        parser.error(f"--warmup must be >= 0, got {args.warmup}")

    result = run_benchmarks(
        label=args.label,
        quick=args.quick,
        repeat=repeat,
        warmup=args.warmup,
        scenarios=args.scenario,
    )
    out_path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    write_result(result, out_path)

    print(f"{'scenario':<18} {'median s':>10} {'items/s':>14}")
    for name, sres in result.scenarios.items():
        print(f"{name:<18} {sres.wall_seconds_median:>10.3f} {sres.items_per_second:>14,.0f}")
    print(f"wrote {out_path}")

    if args.check:
        try:
            baseline = load_result(args.check)
        except (OSError, ValueError) as error:
            print(f"repro-bench: cannot load baseline {args.check!r}: {error}", file=sys.stderr)
            return 2
        problems = compare_counters(result, baseline)
        if problems:
            print("repro-bench: counters do not match the baseline:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"counters match baseline {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
