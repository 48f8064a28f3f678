"""Shared experiment infrastructure.

Every experiment module exposes ``run(profile) -> *Result`` and
``render(result) -> str``; this module supplies the common pieces:

* :class:`Profile` — how much work to simulate.  The paper used
  200M-instruction SPEC samples; a pure-Python simulator sweeps many
  configurations, so the default profiles are far smaller and chosen so
  the qualitative shape is stable.  Select with the ``REPRO_PROFILE``
  environment variable (``tiny`` / ``quick`` / ``full``) or pass a
  profile explicitly.
* trace memoization (building a trace costs a sizable fraction of
  simulating it),
* warm-up handling: each benchmark's trace is split, the head warms the
  caches and is excluded from the measured statistics,
* point submission: :func:`run_benchmark`, :func:`run_suite`, and
  :func:`run_points` all route through the process-wide
  :class:`repro.runner.Runner`, which deduplicates identical
  (benchmark, config, profile) points, serves them from its result
  cache, fans fresh work across a process pool when ``--jobs`` asks
  for one, and absorbs worker failures (watchdog timeouts, retries,
  pool rebuild — see the ``repro.runner`` module docs); in
  ``--keep-going`` mode a permanently failed point comes back as
  NaN-valued placeholder statistics, which the table renderer prints
  as ``-``,
* speedup/aggregation helpers and an ASCII table renderer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.stats import SimStats, harmonic_mean
from repro.cpu.trace import Trace
from repro.runner import SimPoint, get_runner
from repro.runner import worker as _worker
from repro.workloads import BENCHMARKS

__all__ = [
    "Profile",
    "PROFILES",
    "active_profile",
    "get_traces",
    "run_benchmark",
    "run_points",
    "run_suite",
    "speedup",
    "format_table",
    "harmonic_mean",
]


@dataclass(frozen=True)
class Profile:
    """Simulation effort level for experiments."""

    name: str
    memory_refs: int
    benchmarks: Tuple[str, ...] = BENCHMARKS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.memory_refs < 100:
            raise ValueError("memory_refs too small to be meaningful")


PROFILES: Dict[str, Profile] = {
    "tiny": Profile("tiny", memory_refs=8_000, benchmarks=(
        "swim", "mcf", "twolf", "eon", "facerec", "parser",
    )),
    "quick": Profile("quick", memory_refs=30_000),
    "full": Profile("full", memory_refs=120_000),
}


def active_profile(default: str = "quick") -> Profile:
    """Profile selected by ``REPRO_PROFILE``, else ``default``."""
    name = os.environ.get("REPRO_PROFILE", default)
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"REPRO_PROFILE={name!r} unknown; choose from {', '.join(PROFILES)}"
        ) from None


# -- trace handling --------------------------------------------------------------

def get_traces(
    benchmark: str,
    profile: Profile,
    l2_bytes: int = 1 << 20,
) -> Tuple[Optional[Trace], Trace]:
    """(warm-up initialization trace, measured trace) for one benchmark.

    Delegates to the runner worker's per-process memo, so experiments
    and pool workers share one trace-construction path.
    """
    return _worker.get_traces(benchmark, profile.memory_refs, profile.seed, l2_bytes)


# -- point submission -------------------------------------------------------------

def run_points(
    points: Sequence[Tuple[str, SystemConfig]],
    profile: Profile,
) -> List[SimStats]:
    """Resolve a batch of (benchmark, config) points, in order.

    This is the experiments' one entry to the simulator: the whole
    batch goes to the default :class:`repro.runner.Runner` in a single
    call, so duplicate points collapse, cached points return instantly,
    and the rest fan across the process pool.  A point that fails
    permanently raises :class:`repro.runner.PointFailureError` — or,
    when the runner was built with ``keep_going=True``, yields
    placeholder statistics whose NaN-valued rates render as ``-``.
    """
    runner = get_runner()
    return runner.run_points(
        [
            SimPoint(
                benchmark=benchmark,
                config=config,
                memory_refs=profile.memory_refs,
                seed=profile.seed,
            )
            for benchmark, config in points
        ]
    )


def run_benchmark(benchmark: str, config: SystemConfig, profile: Profile) -> SimStats:
    """Simulate one benchmark under one configuration (with warm-up)."""
    return run_points([(benchmark, config)], profile)[0]


def run_suite(
    config: SystemConfig,
    profile: Profile,
    benchmarks: Optional[Sequence[str]] = None,
) -> Dict[str, SimStats]:
    """Run every benchmark of the profile under ``config``."""
    names = tuple(benchmarks) if benchmarks is not None else profile.benchmarks
    return dict(zip(names, run_points([(name, config) for name in names], profile)))


# -- aggregation -----------------------------------------------------------------

def speedup(new_ipc: float, old_ipc: float) -> float:
    """Relative improvement, reported the way the paper does (+43% == 0.43)."""
    if old_ipc <= 0:
        raise ValueError("baseline IPC must be positive")
    return new_ipc / old_ipc - 1.0


def mean_ipc(stats: Iterable[SimStats]) -> float:
    """Harmonic-mean IPC, the paper's suite aggregate."""
    return harmonic_mean([s.ipc for s in stats])


# -- rendering --------------------------------------------------------------------

def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Plain-text table in the style of the paper's tables."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            if value != value:  # NaN
                return "-"
            return f"{value:.3f}" if abs(value) < 100 else f"{value:.0f}"
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), max((len(r[i]) for r in text_rows), default=0))
        for i in range(len(headers))
    ]
    def line(cells):
        return "  ".join(cell.rjust(w) for cell, w in zip(cells, widths))
    out: List[str] = []
    if title:
        out.append(title)
    out.append(line([str(h) for h in headers]))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(r) for r in text_rows)
    return "\n".join(out)


def geometric_block_sizes(minimum: int = 64, maximum: int = 8192) -> Tuple[int, ...]:
    """Block sizes swept by the paper's Tables 1 and 2 (64B .. 8KB)."""
    sizes = []
    size = minimum
    while size <= maximum:
        sizes.append(size)
        size *= 2
    return tuple(sizes)
