#!/usr/bin/env python3
"""Paired wall-clock gate: a change against its parent, on one machine.

Run from anywhere, with two checkouts of the repository::

    python3 benchmarks/paired_gate.py PARENT_DIR CHANGE_DIR

The change's ``perfbench/`` and ``BENCHMARK.json`` are first copied into
the parent checkout, so both sides run identical benchmark code and
differ only in the program.  Then every workload ``BENCHMARK.json``
declares runs for its ``run_seconds`` on both checkouts (``--trace 0``),
in ``PAIRS`` pairs that alternate which side goes first; pair ``i`` uses
seed ``i + 1`` on both sides.  The host's speed drifts within a minute,
so the two runs of a pair share the drift and the alternation cancels
its order.

The gate prints one row per workload and end-to-end metric: the median
of each side's runs, their ratio (change / parent) and the metric's
bound.  It exits 1 when, on any workload, the change's median is worse
than the parent's by more than that bound, when a run of the change is
not ``correct``, when the change fails a larger share of its operations
than the parent, or when a run of either side ends without a result.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: pairs per workload, chosen from A/A runs (one program against
#: itself) on a 2-vCPU guest.  Single pairs differed by up to 44% in
#: setup_s and 34% in wall_s; medians over three pairs by up to 28% in
#: setup_s, past its 25% bound; medians over five never by more than
#: 15.2%.  CHANGES.md lists the runs.
PAIRS = 5

SIDES = ("parent", "change")


def judge(
    end_to_end: Sequence[dict], parent: List[dict], change: List[dict]
) -> Tuple[List[tuple], List[str]]:
    """The verdict on one workload: ``(rows, problems)``.

    ``end_to_end`` is ``BENCHMARK.json``'s metric list (name, better,
    bound); ``parent`` and ``change`` are the result lines of each
    side's runs.  A row is ``(metric, parent median, change median,
    ratio, bound, ok)``; the change passes when ``problems`` is empty.
    """
    rows, problems = [], []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        medians = [
            statistics.median(run["metrics"][name]["value"] for run in runs)
            for runs in (parent, change)
        ]
        ratio = medians[1] / medians[0]
        ok = ratio <= 1 + bound if metric["better"] == "lower" else ratio >= 1 - bound
        rows.append((name, medians[0], medians[1], ratio, bound, ok))
        if not ok:
            problems.append(f"{name} {ratio:.3f}x the parent's, past the {bound} bound")
    for i, run in enumerate(change, 1):
        if not run["correct"]:
            problems.append(f"change run {i} not correct")
    shares = [
        sum(run["failed"] for run in runs) / max(sum(run["attempted"] for run in runs), 1)
        for runs in (parent, change)
    ]
    if shares[1] > shares[0]:
        problems.append(f"change failed {shares[1]:.4%} of operations, parent {shares[0]:.4%}")
    return rows, problems


def run_once(root: Path, spec: dict, workload: str, seed: int) -> dict:
    """One benchmark run in ``root``; its result line, or SystemExit."""
    argv = [
        *spec["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.decode("utf-8", "replace").splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.decode("utf-8", "replace")[-2000:]
        raise SystemExit(
            f"paired_gate: {workload} seed {seed} in {root} exited {proc.returncode} "
            f"without a result:\n{tail}"
        ) from None


def copy_benchmark(change: Path, parent: Path) -> None:
    """Give the parent checkout the change's benchmark code."""
    shutil.rmtree(parent / "perfbench", ignore_errors=True)
    shutil.copytree(
        change / "perfbench", parent / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copyfile(change / "BENCHMARK.json", parent / "BENCHMARK.json")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: paired_gate.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    if parent == change:
        print("paired_gate: PARENT_DIR and CHANGE_DIR must be two checkouts", file=sys.stderr)
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text())
    copy_benchmark(change, parent)
    roots = dict(zip(SIDES, (parent, change)))
    workloads = [w["name"] for w in spec["workloads"]]
    runs: Dict[str, Dict[str, List[dict]]] = {w: {s: [] for s in SIDES} for w in workloads}
    for pair in range(PAIRS):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_once(roots[side], spec, workload, pair + 1)
                runs[workload][side].append(result)
                values = " ".join(
                    f"{name}={m['value']:.3f}" for name, m in result["metrics"].items()
                )
                print(
                    f"pair {pair + 1}/{PAIRS} {workload} {side}: {values} "
                    f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                    flush=True,
                )
    failures = []
    print(f"\n{'workload':<16} {'metric':<12} {'parent':>9} {'change':>9} {'ratio':>7} {'bound':>6}")
    for workload in workloads:
        rows, problems = judge(spec["end_to_end"], runs[workload]["parent"], runs[workload]["change"])
        for name, base, new, ratio, bound, ok in rows:
            verdict = "ok" if ok else "WORSE"
            print(f"{workload:<16} {name:<12} {base:>9.3f} {new:>9.3f} {ratio:>7.3f} {bound:>6} {verdict}")
        failures += [f"{workload}: {problem}" for problem in problems]
    for failure in failures:
        print(f"paired_gate: FAILED {failure}")
    if not failures:
        print(f"paired_gate: ok, {PAIRS} pairs per workload")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
