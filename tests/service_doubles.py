"""Stand-ins for ``execute_point`` that the service's pool workers import.

The service runs every attempt in a spawned worker process, so a test
cannot hand it a closure: it replaces ``repro.service.engine.execute_point``
with one of the module-level functions below, which pickle by reference
and which the worker imports from this module.  They talk back to the
test through files in the directory named by ``$SERVICE_DOUBLES_DIR``
(:func:`install` sets it; spawned workers inherit the environment):

* ``calls.jsonl`` — one line per call, read back with :func:`calls`;
* ``gate`` — :func:`gated_execute` waits for it; :func:`open_gate`
  creates it.

Planned faults reach the doubles exactly as they reach the real
function: through ``REPRO_FAULT_PLAN`` and
:func:`repro.runner.faults.maybe_inject`.
"""

import json
import os
import time
from pathlib import Path

from repro.runner import faults

ENV_DIR = "SERVICE_DOUBLES_DIR"

#: how long a gated call waits for its gate at most.
GATE_SECONDS = 30.0


def install(monkeypatch, double, root) -> None:
    """Make ``double`` the service's ``execute_point``, talking via ``root``."""
    monkeypatch.setenv(ENV_DIR, str(root))
    monkeypatch.setattr("repro.service.engine.execute_point", double)


def calls(root):
    """Every recorded call so far: pid, benchmark, seed, key, attempt."""
    path = Path(root) / "calls.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


def open_gate(root) -> None:
    (Path(root) / "gate").touch()


def fake_stats(point):
    return {
        "benchmark": point.benchmark,
        "seed": point.seed,
        "cycles": 100.0 + point.seed,
    }


def _record(point, attempt) -> None:
    root = os.environ.get(ENV_DIR)
    if root:
        call = {
            "pid": os.getpid(),
            "benchmark": point.benchmark,
            "seed": point.seed,
            "key": point.cache_key(),
            "attempt": attempt,
        }
        with open(Path(root) / "calls.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(call) + "\n")


def _fake(point, attempt):
    faults.maybe_inject(point.label(), attempt)
    time.sleep(0.001)
    return fake_stats(point), 0.001


def fake_execute(point, attempt=0, obs=None, sanitize=False, cache_dir=None):
    """Any planned fault, then key-dependent stats without simulating."""
    _record(point, attempt)
    return _fake(point, attempt)


def gated_execute(point, attempt=0, obs=None, sanitize=False, cache_dir=None):
    """:func:`fake_execute` once the gate is open."""
    _record(point, attempt)
    gate = Path(os.environ[ENV_DIR]) / "gate"
    deadline = time.monotonic() + GATE_SECONDS
    while not gate.exists() and time.monotonic() < deadline:
        time.sleep(0.005)
    return _fake(point, attempt)


def tracking_execute(point, attempt=0, obs=None, sanitize=False, cache_dir=None):
    _record(point, attempt)
    return {"cycles": 2.0}, 0.0


def flaky_execute(point, attempt=0, obs=None, sanitize=False, cache_dir=None):
    """Fails on the first two attempts, then succeeds."""
    _record(point, attempt)
    if attempt < 2:
        raise ValueError("transient")
    return {"cycles": 5.0}, 0.0


def crashing_execute(point, attempt=0, obs=None, sanitize=False, cache_dir=None):
    raise ValueError("synthetic fault")


def timing_out_execute(point, attempt=0, obs=None, sanitize=False, cache_dir=None):
    raise TimeoutError("socket read timed out")
