"""Golden-statistics equivalence gate for simulator optimizations.

``tests/golden/tiny_stats.json`` pins the exact ``SimStats.to_dict()``
output of every workload at the tiny-profile point (8000 memory
references, seed 0) under the baseline configuration, plus the tiny
profile's six benchmarks under the prefetch-enabled configuration.
Performance work on the simulation kernel must leave every number
byte-identical; any intentional behaviour change must regenerate the
snapshot *in its own commit* so the diff documents the change:

    PYTHONPATH=src python tests/test_golden_stats.py tests/golden/tiny_stats.json
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.runner.runner import SimPoint
from repro.runner.worker import execute_point
from repro.workloads import BENCHMARKS

GOLDEN_PATH = Path(__file__).parent / "golden" / "tiny_stats.json"

MEMORY_REFS = 8_000
SEED = 0

#: prefetch-enabled points cover the tiny profile's benchmark set.
PREFETCH_BENCHMARKS = ("swim", "mcf", "twolf", "eon", "facerec", "parser")


def _config(section: str) -> SystemConfig:
    config = SystemConfig()
    if section == "prefetch":
        config = config.with_prefetch(enabled=True)
    return config


def _simulate(section: str, benchmark: str) -> dict:
    stats, _ = execute_point(
        SimPoint(benchmark, _config(section), MEMORY_REFS, SEED)
    )
    return stats


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _regenerate(path: Path) -> None:
    out = {
        "memory_refs": MEMORY_REFS,
        "seed": SEED,
        "configs": {
            "baseline": _config("baseline").digest(),
            "prefetch": _config("prefetch").digest(),
        },
        "baseline": {},
        "prefetch": {},
    }
    for name in BENCHMARKS:
        out["baseline"][name] = _simulate("baseline", name)
        print(f"baseline {name}: done", file=sys.stderr)
    for name in PREFETCH_BENCHMARKS:
        out["prefetch"][name] = _simulate("prefetch", name)
        print(f"prefetch {name}: done", file=sys.stderr)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def test_golden_metadata_matches_current_configs():
    golden = _golden()
    assert golden["memory_refs"] == MEMORY_REFS
    assert golden["seed"] == SEED
    assert golden["configs"]["baseline"] == _config("baseline").digest(), (
        "the baseline SystemConfig changed; regenerate tests/golden/tiny_stats.json"
    )
    assert golden["configs"]["prefetch"] == _config("prefetch").digest(), (
        "the prefetch SystemConfig changed; regenerate tests/golden/tiny_stats.json"
    )
    assert set(golden["baseline"]) == set(BENCHMARKS)
    assert set(golden["prefetch"]) == set(PREFETCH_BENCHMARKS)


@pytest.mark.parametrize("workload", BENCHMARKS)
def test_baseline_stats_match_golden(workload):
    golden = _golden()
    assert _simulate("baseline", workload) == golden["baseline"][workload], (
        f"SimStats for baseline/{workload} drifted from the golden snapshot; "
        "if the change is intentional, regenerate tests/golden/tiny_stats.json"
    )


@pytest.mark.parametrize("workload", PREFETCH_BENCHMARKS)
def test_prefetch_stats_match_golden(workload):
    golden = _golden()
    assert _simulate("prefetch", workload) == golden["prefetch"][workload], (
        f"SimStats for prefetch/{workload} drifted from the golden snapshot; "
        "if the change is intentional, regenerate tests/golden/tiny_stats.json"
    )


#: representative points pinned to each kernel explicitly.  The points
#: above run the default (fast) kernel; the golden snapshot is generated
#: on the reference kernel, so matching it on both is the fast-on/fast-off
#: byte-identity gate at the tiny-profile size.
FAST_SPOT_CHECKS = (
    ("baseline", "mcf"),
    ("baseline", "eon"),
    ("prefetch", "swim"),
    ("prefetch", "mcf"),
)


@pytest.mark.parametrize("section,workload", FAST_SPOT_CHECKS)
def test_fast_kernel_stats_match_golden(section, workload):
    stats, _ = execute_point(
        SimPoint(workload, _config(section), MEMORY_REFS, SEED), fast=True
    )
    assert stats == _golden()[section][workload], (
        f"the fast kernel drifted from the reference for {section}/{workload}; "
        "the fast kernel must stay byte-identical — fix the kernel, never the snapshot"
    )


@pytest.mark.parametrize("section,workload", FAST_SPOT_CHECKS)
def test_reference_kernel_stats_match_golden(section, workload):
    stats, _ = execute_point(
        SimPoint(workload, _config(section), MEMORY_REFS, SEED), fast=False
    )
    assert stats == _golden()[section][workload], (
        f"the reference kernel drifted for {section}/{workload}; "
        "if the change is intentional, regenerate tests/golden/tiny_stats.json"
    )


if __name__ == "__main__":
    _regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH)
