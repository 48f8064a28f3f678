"""Deterministic fault injection for the experiment runner.

The fault-tolerance machinery in :mod:`repro.runner.runner` — watchdog
timeouts, retry with backoff, pool rebuild, inline fallback, cache
degradation — is only trustworthy if every recovery path can be driven
on demand.  This module provides that driver: a :class:`FaultPlan` is a
list of :class:`FaultSpec` rules, each matching a simulation point by a
substring of its label and an explicit set of attempt numbers, and
naming the failure to manufacture when it matches:

``raise``
    the worker raises :class:`InjectedFault` (a transient crash);
``hang``
    the worker sleeps for ``hang_seconds`` before simulating, tripping
    the runner's watchdog when one is armed;
``exit``
    the worker process dies via ``os._exit`` — in a process pool this
    breaks the pool exactly like a segfault would; during inline
    execution (where ``os._exit`` would take the whole interpreter
    down) it degrades to an :class:`InjectedFault`;
``cache-io``
    the runner's cache write for the point raises :class:`OSError`,
    exercising the disk-full/read-only degradation path.

The service (:mod:`repro.service`) extends the same plan with faults
for the paths only a long-lived server has:

``slow``
    the worker sleeps ``hang_seconds`` *then simulates normally* — a
    slow simulation that should stay under a well-tuned watchdog
    (``hang`` is the same mechanic with a duration chosen to trip it);
``journal-io``
    a journal write raises :class:`OSError`; matched against the
    journal *event name* (e.g. ``"job-started"``) with
    ``attempts`` counting occurrences of that event;
``drop``
    the HTTP server aborts the connection mid-request without writing
    a response; matched against the request *path* with ``attempts``
    counting requests to that path.

Service-side faults are looked up through :func:`service_fault`, which
reuses the ``(label, attempt)`` matching verbatim — the "label" is the
event name or path and the "attempt" is the occurrence index, so a
service fault schedule is exactly as deterministic as a worker one.

Because a rule is a pure function of ``(label, attempt)`` — no
counters, no RNG — the same plan produces the same faults in any
process, under any scheduling, which is what lets the tests assert
*byte-identical* results with and without injected-then-recovered
faults.

The active plan lives in the ``REPRO_FAULT_PLAN`` environment variable
as JSON (see :meth:`FaultPlan.to_json`), which is also how it reaches
pool workers: both fork- and spawn-context children inherit the parent
environment.  :func:`set_fault_plan` writes a plan through to the
environment; :func:`get_fault_plan` reads it back.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ENV_FAULT_PLAN",
    "FAULT_KINDS",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "set_fault_plan",
    "get_fault_plan",
    "maybe_inject",
    "cache_fault",
    "service_fault",
]

#: environment variable holding the active plan as JSON.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

#: the injectable failure modes (the last three are service-level).
FAULT_KINDS = ("raise", "hang", "exit", "cache-io", "slow", "journal-io", "drop")

#: exit status used by an injected worker death, chosen to be
#: recognizable in a process table / waitpid status.
EXIT_STATUS = 86


class InjectedFault(RuntimeError):
    """Failure manufactured by the fault-injection harness."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: *which* fault fires *where* and *when*.

    ``match`` is a substring test against the point's
    :meth:`~repro.runner.runner.SimPoint.label` (a bare benchmark name
    like ``"mcf"`` works); ``attempts`` lists the zero-based attempt
    numbers on which the fault fires, so a transient failure is spelled
    ``attempts=(0,)`` — recovered by the first retry — while a
    permanent one lists every attempt the retry policy could reach.
    """

    match: str
    fault: str
    attempts: Tuple[int, ...] = (0,)
    #: how long a ``hang`` sleeps; keep it far above the watchdog.
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.fault not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault {self.fault!r}; expected one of {', '.join(FAULT_KINDS)}"
            )
        if not self.match:
            raise ValueError("fault spec needs a non-empty match substring")
        if not self.attempts:
            raise ValueError("fault spec needs at least one attempt number")
        if any(a < 0 for a in self.attempts):
            raise ValueError(f"attempt numbers must be >= 0, got {self.attempts}")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        # normalize list -> tuple so specs stay hashable after from_dict
        object.__setattr__(self, "attempts", tuple(self.attempts))

    def applies(self, label: str, attempt: int) -> bool:
        return self.match in label and attempt in self.attempts

    def to_dict(self) -> dict:
        return {
            "match": self.match,
            "fault": self.fault,
            "attempts": list(self.attempts),
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            match=data["match"],
            fault=data["fault"],
            attempts=tuple(data.get("attempts", (0,))),
            hang_seconds=float(data.get("hang_seconds", 3600.0)),
        )


class FaultPlan:
    """An ordered list of :class:`FaultSpec` rules; first match wins."""

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)

    def find(
        self,
        label: str,
        attempt: int,
        kinds: Optional[Sequence[str]] = None,
    ) -> Optional[FaultSpec]:
        """First spec applying to ``(label, attempt)``, if any."""
        for spec in self.specs:
            if kinds is not None and spec.fault not in kinds:
                continue
            if spec.applies(label, attempt):
                return spec
        return None

    def to_json(self) -> str:
        return json.dumps([spec.to_dict() for spec in self.specs], sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("fault plan JSON must be a list of specs")
        return cls([FaultSpec.from_dict(entry) for entry in data])

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)


def set_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as the active plan (None clears it).

    The plan is written to ``REPRO_FAULT_PLAN`` so that worker
    processes created afterwards — by fork or spawn — inherit it.
    """
    if plan is None or not len(plan):
        os.environ.pop(ENV_FAULT_PLAN, None)
    else:
        os.environ[ENV_FAULT_PLAN] = plan.to_json()


@functools.lru_cache(maxsize=8)
def _parse_plan(text: str) -> FaultPlan:
    return FaultPlan.from_json(text)


def get_fault_plan() -> Optional[FaultPlan]:
    """The active plan from ``REPRO_FAULT_PLAN``, or None."""
    text = os.environ.get(ENV_FAULT_PLAN)
    if not text:
        return None
    return _parse_plan(text)


def _in_worker_process() -> bool:
    return multiprocessing.parent_process() is not None


def maybe_inject(label: str, attempt: int) -> None:
    """Fire any worker-side fault planned for ``(label, attempt)``.

    Called by :func:`repro.runner.worker.execute_point` before
    simulating.  ``cache-io`` specs are ignored here — they belong to
    the parent's cache-write path (see :func:`cache_fault`).
    """
    plan = get_fault_plan()
    if plan is None:
        return
    spec = plan.find(label, attempt, kinds=("raise", "hang", "slow", "exit"))
    if spec is None:
        return
    if spec.fault in ("hang", "slow"):
        time.sleep(spec.hang_seconds)
        return
    if spec.fault == "exit" and _in_worker_process():
        os._exit(EXIT_STATUS)
    raise InjectedFault(
        f"injected {spec.fault!r} fault for {label!r} on attempt {attempt}"
    )


def cache_fault(label: str, attempt: int) -> Optional[FaultSpec]:
    """The ``cache-io`` spec planned for ``(label, attempt)``, if any."""
    plan = get_fault_plan()
    if plan is None:
        return None
    return plan.find(label, attempt, kinds=("cache-io",))


def service_fault(kind: str, label: str, occurrence: int) -> Optional[FaultSpec]:
    """The service-level spec of ``kind`` planned for this occurrence.

    ``label`` is the journal event name (``journal-io``) or the request
    path (``drop``); ``occurrence`` is the zero-based count of prior
    matching events, taking the role ``attempt`` plays worker-side.
    The caller owns the occurrence counter — this function stays a pure
    lookup so the same plan fires identically in every process.
    """
    plan = get_fault_plan()
    if plan is None:
        return None
    return plan.find(label, occurrence, kinds=(kind,))
