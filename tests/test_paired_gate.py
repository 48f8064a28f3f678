"""The paired wall-clock gate's verdict (``benchmarks/paired_gate.py``).

The script lives beside the paper-claim benchmarks, outside the
package, so it is loaded by path.  Its verdict is a pure function of
``BENCHMARK.json``'s end-to-end metrics and both sides' result lines;
the bounds are the committed ones.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "paired_gate", ROOT / "benchmarks" / "paired_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BASE = {"setup_s": 0.5, "wall_s": 7.0, "cpu_s": 6.9, "peak_rss_mb": 60.0}


def _run(scale=None, correct=True, failed=0, attempted=24):
    """One result line: ``BASE`` with each named metric multiplied."""
    scale = scale or {}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value * scale.get(name, 1.0), "unit": "x"}
            for name, value in BASE.items()
        },
    }


def _judge(parent, change):
    return gate.judge(END_TO_END, parent, change)


def test_bounds_are_the_committed_ones():
    assert {m["name"]: m["bound"] for m in END_TO_END} == {
        "setup_s": 0.25, "wall_s": 0.25, "cpu_s": 0.25, "peak_rss_mb": 0.1,
    }


def test_a_a_samples_pass():
    """Pairs of one program: runs scatter on both sides alike."""
    parent = [_run({"wall_s": f, "cpu_s": f}) for f in (1.0, 1.08, 0.95)]
    change = [_run({"wall_s": f, "cpu_s": f}) for f in (1.05, 0.97, 1.1)]
    rows, problems = _judge(parent, change)
    assert problems == []
    assert [row.metric for row in rows] == [m["name"] for m in END_TO_END]
    assert all(row.verdict == "ok" for row in rows)


def test_slower_wall_median_fails():
    rows, problems = _judge([_run()] * 3, [_run({"wall_s": 1.3})] * 3)
    assert problems == ["wall_s 1.300x the parent's, past the 0.25 bound"]
    wall = next(row for row in rows if row.metric == "wall_s")
    assert wall[1:5] == pytest.approx((7.0, 9.1, 1.3, 0.25)) and wall.verdict == "WORSE"


def test_rss_bound_is_ten_percent():
    assert _judge([_run()] * 3, [_run({"peak_rss_mb": 1.09})] * 3)[1] == []
    problems = _judge([_run()] * 3, [_run({"peak_rss_mb": 1.11})] * 3)[1]
    assert problems == ["peak_rss_mb 1.110x the parent's, past the 0.1 bound"]


def test_a_change_run_not_correct_fails():
    change = [_run(), _run(correct=False), _run()]
    assert _judge([_run()] * 3, change)[1] == ["change run 2 not correct"]


def test_a_larger_failed_share_fails():
    parent = [_run(failed=1), _run(), _run()]
    assert _judge(parent, [_run(failed=1), _run(), _run()])[1] == []
    problems = _judge(parent, [_run(failed=1), _run(failed=1), _run()])[1]
    assert len(problems) == 1 and problems[0].startswith("change failed 2.7778%")


#: ``service_mixed`` ``wall_s`` on a 2-vCPU guest with CPU steal, ten
#: alternating pairs within one hour: the parent ran 3.18-14.03 s.
NOISY_PARENT = (9.554, 9.643, 14.026, 6.332, 3.890, 3.777, 3.666, 3.679, 3.179, 3.749)
NOISY_CHANGE = (8.301, 6.830, 14.235, 10.035, 4.180, 3.836, 3.850, 3.965, 3.694, 3.713)


def _walls(seconds):
    return [_run({"wall_s": s / BASE["wall_s"]}) for s in seconds]


def _wall_row(parent, change):
    rows, problems = _judge(_walls(parent), _walls(change))
    return next(row for row in rows if row.metric == "wall_s"), problems


def test_a_parent_spread_past_the_bound_reads_unresolved():
    """The medians are 1.06x apart, inside the bound, but the parent's
    interquartile range is 1.3x its median: the gate cannot tell."""
    wall, problems = _wall_row(NOISY_PARENT, NOISY_CHANGE)
    assert (wall.parent, wall.change) == pytest.approx((3.8335, 4.0725))
    assert wall.parent_quartiles == pytest.approx((3.6965, 8.7485))
    assert wall.change_quartiles == pytest.approx((3.8395, 7.93325))
    assert wall.verdict == "unresolved"
    assert problems == []


def test_a_worse_row_still_fails_however_wide_the_spread():
    wall, problems = _wall_row(NOISY_PARENT, [s * 1.3 for s in NOISY_CHANGE])
    assert wall.verdict == "WORSE"
    assert problems == ["wall_s 1.381x the parent's, past the 0.25 bound"]


def test_every_change_run_beating_every_parent_run_resolves_the_spread():
    wall, problems = _wall_row(NOISY_PARENT, [s * 0.8 for s in sorted(NOISY_PARENT)[:5]] * 2)
    assert wall.verdict == "ok"
    assert problems == []
