"""The sweep-driver process of the sweep workloads (spawned by run.py).

Runs in a fresh interpreter with ``PYTHONPATH=src`` and fresh, empty
``REPRO_CACHE_DIR`` / ``REPRO_TRACE_STORE`` directories.  It speaks a
line protocol on stdout, which the parent times from outside:

``READY``
    ``repro`` is imported and the ``Runner`` is built (``--mode setup``
    exits here);
``COLD {json}``
    the 24-point sweep went through ``Runner(jobs=1).run_points`` and
    every result was compared with the goldens.

With ``--spans PATH`` the layers are wrapped (see ``tracing.py``)
before ``READY`` and the spans are written to PATH at exit.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from golden import Goldens  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

#: the tiny profile's benchmarks, each covered by every golden section.
BENCHMARKS = ("swim", "mcf", "twolf", "eon", "facerec", "parser")
SECTIONS = ("baseline", "prefetch", "chargecache", "tldram")


def _configs():
    from repro.core.config import SystemConfig

    return {
        "baseline": SystemConfig(),
        "prefetch": SystemConfig().with_prefetch(enabled=True),
        "chargecache": SystemConfig().with_backend("chargecache"),
        "tldram": SystemConfig().with_backend("tldram"),
    }


def _emit(tag: str, payload: dict) -> None:
    print(f"{tag} {json.dumps(payload)}", flush=True)


def _check(goldens, points, results, error):
    """(failed count, first reasons) for one run_points call."""
    if error is not None:
        return len(points), [error]
    reasons = []
    for point, stats in zip(points, results):
        why = goldens.mismatch(point.benchmark, point.config.digest(), stats.to_dict())
        if why is not None:
            reasons.append(why)
    return len(reasons), reasons[:3]


def _run(runner, points):
    try:
        return runner.run_points(points), None
    except Exception as exc:  # every point of the sweep counts as failed
        return None, f"{type(exc).__name__}: {exc}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "sweep"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import_start = time.monotonic()
    from repro.runner.runner import Runner, SimPoint

    imported = time.monotonic()
    tracer = NullTracer()
    if args.spans:
        from tracing import install_sweep_layers

        tracer = Tracer(run="cold")
        install_sweep_layers(tracer)
    runner = Runner(jobs=1)
    ready = time.monotonic()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    root = HERE.parent
    goldens = Goldens(root)
    configs = _configs()
    points = [
        SimPoint(name, configs[section], goldens.memory_refs, goldens.seed)
        for section in SECTIONS
        for name in BENCHMARKS
    ]
    # the seed drives the submission order only; the trace seed stays
    # the goldens' so every result has a golden to match.
    random.Random(args.seed).shuffle(points)

    results, error = _run(runner, points)
    tracer.run = "verify"
    with tracer.span("bench.verify"):
        failed, reasons = _check(goldens, points, results, error)
    verified = time.monotonic()
    _emit("COLD", {"attempted": len(points), "failed": failed, "errors": reasons})

    if args.spans:
        from tracing import model_counts

        tracer.dump(
            args.spans,
            import_s=imported - import_start,
            window=[ready, verified],
            model=model_counts(results or []),
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
