"""Deterministic counter harness for the simulator's hot paths.

``repro-bench`` runs a small set of representative single simulation
points — a cache-hit-dominated microbenchmark, a hot-cache workload, a
DRAM-bound workload, a prefetch-heavy workload, and trace synthesis —
with warmup/repeat/median methodology, and writes the results to a
``BENCH_<label>.json`` file.  Every scenario also reports its
*deterministic* event counters (cache accesses, DRAM accesses,
instructions, …), which CI compares against a committed baseline:
wall-clock numbers vary with the machine, but the counters must not,
so the perf-smoke counter gate is flake-free on shared runners.

Wall-clock speed is measured end to end by ``perfbench/`` (declared in
``BENCHMARK.json``), and gated by ``benchmarks/paired_gate.py``, which
runs a change and its parent in alternating pairs on one machine.
"""

from repro.bench.harness import (
    BenchResult,
    ScenarioResult,
    compare_counters,
    run_benchmarks,
    write_result,
)
from repro.bench.scenarios import SCENARIOS, Scenario

__all__ = [
    "BenchResult",
    "Scenario",
    "SCENARIOS",
    "ScenarioResult",
    "compare_counters",
    "run_benchmarks",
    "write_result",
]
