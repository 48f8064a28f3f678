"""Per-backend golden-statistics gate (CI's ``backends`` job).

``tests/golden/tiny_stats_backends.json`` pins the exact
``SimStats.to_dict()`` output of every workload at the tiny-profile
point (8000 memory references, seed 0) for each *non-default* DRAM
backend — the default DRDRAM backend is pinned by
``tests/golden/tiny_stats.json``, whose byte-identity across the
registry refactor is asserted there.

Every point here runs under the runtime invariant checker, so this
module is simultaneously the "full 26-workload tiny sweep is
sanitizer-clean on every backend" gate of that job: a backend
whose channel schedule violates its own policy's timing grants fails
here with cycle/component context, not just with drifted numbers.

The same goldens gate the fast kernel (``execute_point(..., fast=True)``,
which drives each backend's own geometry, timings and row-timing
policy): it must reproduce the reference kernel's snapshot exactly, and
a drift there is fixed in the kernel, never by regenerating.

The default run spot-checks the tiny profile's six benchmarks per
backend (fast enough for every tier-1 invocation); each non-default
cell of the ``backends`` job sets ``REPRO_GOLDEN_FULL=1`` and selects
its backend with ``-k`` to sweep all 26 workloads.  The golden file
always carries all 26, so flipping the switch never regenerates.

Regenerate after an intentional timing-model change (its own commit),
and explain it with the point-by-point diff against the old file:

    PYTHONPATH=src python tests/test_backend_golden.py tests/golden/tiny_stats_backends.json
    PYTHONPATH=src python -m repro.core.stats diff OLD.json tests/golden/tiny_stats_backends.json
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.runner.runner import SimPoint
from repro.runner.worker import execute_point
from repro.workloads import BENCHMARKS

GOLDEN_PATH = Path(__file__).parent / "golden" / "tiny_stats_backends.json"

MEMORY_REFS = 8_000
SEED = 0

#: every registered backend except the default (covered by tiny_stats.json).
BACKENDS = ("tldram", "chargecache", "ddr")

#: tier-1 spot check; REPRO_GOLDEN_FULL=1 (CI's backends job) sweeps all 26.
SPOT_CHECK = ("swim", "mcf", "twolf", "eon", "facerec", "parser")
WORKLOADS = BENCHMARKS if os.environ.get("REPRO_GOLDEN_FULL") else SPOT_CHECK


def _config(backend: str) -> SystemConfig:
    return SystemConfig().with_backend(backend)


def _simulate(backend: str, benchmark: str) -> dict:
    stats, _ = execute_point(
        SimPoint(benchmark, _config(backend), MEMORY_REFS, SEED), sanitize=True
    )
    return stats


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _regenerate(path: Path) -> None:
    out = {
        "memory_refs": MEMORY_REFS,
        "seed": SEED,
        "configs": {backend: _config(backend).digest() for backend in BACKENDS},
    }
    for backend in BACKENDS:
        out[backend] = {}
        for name in BENCHMARKS:
            out[backend][name] = _simulate(backend, name)
            print(f"{backend} {name}: done", file=sys.stderr)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def test_golden_metadata_matches_current_configs():
    golden = _golden()
    assert golden["memory_refs"] == MEMORY_REFS
    assert golden["seed"] == SEED
    for backend in BACKENDS:
        assert golden["configs"][backend] == _config(backend).digest(), (
            f"the {backend} SystemConfig changed; regenerate "
            "tests/golden/tiny_stats_backends.json"
        )
        assert set(golden[backend]) == set(BENCHMARKS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_backend_stats_match_golden(backend, workload):
    golden = _golden()
    assert _simulate(backend, workload) == golden[backend][workload], (
        f"SimStats for {backend}/{workload} drifted from the golden snapshot; "
        "if the timing-model change is intentional, regenerate "
        "tests/golden/tiny_stats_backends.json in its own commit"
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fast_kernel_matches_backend_golden(backend, workload):
    stats, _ = execute_point(
        SimPoint(workload, _config(backend), MEMORY_REFS, SEED), fast=True
    )
    assert stats == _golden()[backend][workload], (
        f"the fast kernel drifted from the reference for {backend}/{workload}; "
        "the fast kernel must stay byte-identical — fix the kernel, never the snapshot"
    )


if __name__ == "__main__":
    _regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH)
