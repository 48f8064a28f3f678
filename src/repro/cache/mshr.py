"""Miss Status Holding Register occupancy limiter.

The target system has a finite number of MSHRs per data cache
(Section 3.1: eight).  In the transaction-level model, in-flight fill
*merging* is handled by installing lines with a future ``ready_time``
(see :mod:`repro.cache.cache`); this class models only the structural
limit: a new miss must wait for a free MSHR when all are outstanding.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.probe import Probe

__all__ = ["MSHRFile"]


class MSHRFile:
    """Bounded set of outstanding fills, tracked as completion times."""

    __slots__ = ("entries", "_completions", "stalls", "_probe", "_level")

    def __init__(
        self, entries: int, probe: "Optional[Probe]" = None, level: str = "l1d"
    ) -> None:
        if entries < 1:
            raise ValueError("MSHR file needs at least one entry")
        self.entries = entries
        self._completions: List[float] = []
        #: number of times a miss had to wait for a free MSHR.
        self.stalls = 0
        self._probe = probe
        self._level = level

    def __len__(self) -> int:
        return len(self._completions)

    def acquire(self, now: float) -> float:
        """Earliest time a new miss can allocate an MSHR, >= ``now``."""
        heap = self._completions
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        outstanding = len(heap)
        if outstanding < self.entries:
            granted = now
        else:
            self.stalls += 1
            granted = heapq.heappop(heap)
            # Entries completing at the same instant free together.
            while heap and heap[0] <= granted:
                heapq.heappop(heap)
        if self._probe is not None:
            self._probe.mshr_acquire(
                self._level, now, granted, outstanding, self.entries
            )
        return granted

    def commit(self, completion: float, granted: float = 0.0, addr: int = 0) -> None:
        """Record a newly issued fill that completes at ``completion``;
        ``granted`` (the MSHR's allocation time) and ``addr`` only
        describe the fill to the probe."""
        heapq.heappush(self._completions, completion)
        if self._probe is not None:
            self._probe.mshr_commit(
                self._level, granted, completion, addr, len(self._completions), self.entries
            )

    def quiesce(self, finish: float) -> None:
        """End of run: every outstanding fill must drain by ``finish``."""
        if self._probe is not None:
            self._probe.mshr_quiesce(self._level, self._completions, finish)

    def reset(self) -> None:
        self._completions.clear()
        self.stalls = 0
