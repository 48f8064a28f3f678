"""Warmup/repeat/median timing harness and ``BENCH_*.json`` I/O.

The JSON schema (``BENCH_<label>.json``)::

    {
      "label": "before",
      "mode": "full" | "quick",
      "repeat": 5,
      "warmup": 1,
      "backend": "drdram",
      "python": "3.11.8",
      "scenarios": {
        "<name>": {
          "description": "...",
          "work_items": 400000,
          "wall_seconds": [ ... one entry per repeat ... ],
          "wall_seconds_median": 0.123,
          "items_per_second": 3252032.5,
          "counters": { "<event>": <int>, ... }
        },
        ...
      }
    }

``counters`` are exactly reproducible event counts (cache accesses,
DRAM accesses, instruction totals, …); :func:`compare_counters`
implements the CI regression gate over them.  Wall-clock fields are
informative only and never gate anything: the program's speed is
measured end to end by ``perfbench/`` and gated by
``benchmarks/paired_gate.py``.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.bench.scenarios import SCENARIOS, Scenario, time_scenario

__all__ = [
    "BenchResult",
    "ScenarioResult",
    "compare_counters",
    "load_result",
    "run_benchmarks",
    "write_result",
]


@dataclass
class ScenarioResult:
    """Timing and counters of one scenario."""

    name: str
    description: str
    work_items: int
    wall_seconds: List[float] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def wall_seconds_median(self) -> float:
        return statistics.median(self.wall_seconds) if self.wall_seconds else 0.0

    @property
    def items_per_second(self) -> float:
        median = self.wall_seconds_median
        return self.work_items / median if median > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "description": self.description,
            "work_items": self.work_items,
            "wall_seconds": [round(s, 6) for s in self.wall_seconds],
            "wall_seconds_median": round(self.wall_seconds_median, 6),
            "items_per_second": round(self.items_per_second, 1),
            "counters": dict(sorted(self.counters.items())),
        }


@dataclass
class BenchResult:
    """One full harness run."""

    label: str
    mode: str
    repeat: int
    warmup: int
    #: DRAM backend every scenario config was built against; counters
    #: are only comparable within one backend (see compare_counters).
    backend: str = "drdram"
    scenarios: Dict[str, ScenarioResult] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "mode": self.mode,
            "repeat": self.repeat,
            "warmup": self.warmup,
            "backend": self.backend,
            "python": platform.python_version(),
            "scenarios": {name: res.to_dict() for name, res in self.scenarios.items()},
        }


def run_benchmarks(
    label: str,
    quick: bool = False,
    repeat: int = 5,
    warmup: int = 1,
    scenarios: Optional[Iterable[str]] = None,
    progress: bool = True,
) -> BenchResult:
    """Run the selected scenarios and collect a :class:`BenchResult`.

    Each scenario runs ``warmup`` untimed iterations (JIT-free Python
    still benefits: allocator warm-up, trace memo population) followed
    by ``repeat`` timed iterations; the median is the headline number.
    Counters must be identical across repeats — a mismatch means the
    simulator became non-deterministic and is reported as an error.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    names = list(scenarios) if scenarios is not None else list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s): {', '.join(unknown)}")
    from repro.dram.backends import default_backend_name

    result = BenchResult(
        label=label,
        mode="quick" if quick else "full",
        repeat=repeat,
        warmup=warmup,
        backend=default_backend_name(),
    )
    for name in names:
        scenario: Scenario = SCENARIOS[name]
        refs = scenario.quick_refs if quick else scenario.full_refs
        if progress:
            print(f"bench: {name} ({refs} items, {repeat} repeats)...", file=sys.stderr)
        for _ in range(warmup):
            time_scenario(scenario, refs)
        sres = ScenarioResult(name=name, description=scenario.description, work_items=refs)
        for _ in range(repeat):
            seconds, work, counters = time_scenario(scenario, refs)
            sres.work_items = work
            sres.wall_seconds.append(seconds)
            if sres.counters and counters != sres.counters:
                raise RuntimeError(
                    f"scenario {name!r} produced different event counters on "
                    "two repeats; the simulator is non-deterministic"
                )
            sres.counters = counters
        result.scenarios[name] = sres
        if progress:
            print(
                f"bench: {name}: median {sres.wall_seconds_median:.3f}s, "
                f"{sres.items_per_second:,.0f} items/s",
                file=sys.stderr,
            )
    return result


def write_result(result: BenchResult, path: Union[str, Path]) -> Path:
    """Write ``BENCH_<label>.json``-style output to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(result.to_dict(), indent=1, sort_keys=True) + "\n")
    return path


def load_result(path: Union[str, Path]) -> Dict[str, object]:
    """Load a previously written benchmark JSON file."""
    return json.loads(Path(path).read_text())


def compare_counters(
    current: BenchResult, baseline: Dict[str, object]
) -> List[str]:
    """CI regression gate: deterministic counters must match the baseline.

    Returns a list of human-readable mismatch descriptions (empty when
    the gate passes).  Only scenarios present in both sides are
    compared, and only when the work-item counts match (a --quick run
    checked against a full baseline would differ for honest reasons);
    scenarios the baseline knows but the current run lacks are reported
    so the gate cannot silently shrink.  Counters of two DRAM backends
    differ for honest reasons too, so a run on another backend than the
    baseline's (``drdram`` when the baseline names none) is one problem
    naming both, not a drift of every DRAM-timed counter.
    """
    base_backend = baseline.get("backend", "drdram")
    if current.backend != base_backend:
        return [
            f"backend differs (baseline {base_backend!r}, current "
            f"{current.backend!r}); counters compare within one backend"
        ]
    problems: List[str] = []
    base_scenarios = baseline.get("scenarios", {})
    for name, base in base_scenarios.items():
        cur = current.scenarios.get(name)
        if cur is None:
            problems.append(f"{name}: scenario missing from the current run")
            continue
        if cur.work_items != base.get("work_items"):
            problems.append(
                f"{name}: work_items differ (baseline {base.get('work_items')}, "
                f"current {cur.work_items}); regenerate the baseline"
            )
            continue
        base_counters = base.get("counters", {})
        for key in sorted(set(base_counters) | set(cur.counters)):
            expected = base_counters.get(key)
            actual = cur.counters.get(key)
            if expected != actual:
                problems.append(
                    f"{name}: counter {key!r} drifted (baseline {expected}, "
                    f"current {actual})"
                )
    return problems
