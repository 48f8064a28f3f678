"""Prefetch queue with FIFO and LIFO region prioritization (Section 4.2).

The queue holds at most ``capacity`` region entries ordered by issue
priority (index 0 = highest).

* **FIFO** (the paper's baseline prioritizer): the *oldest* region has
  the highest issue priority and is also the one replaced when a new
  demand miss arrives with the queue full.
* **LIFO** (the paper's improvement): the *most recently added* region
  has the highest priority; replacement victims come from the tail
  (stalest) end; and a demand miss inside a queued region re-promotes
  that region to the highest-priority position.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.prefetch.region import RegionEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.probe import Probe

__all__ = ["PrefetchQueue"]


class PrefetchQueue:
    """Priority-ordered bounded list of :class:`RegionEntry`.

    Mutations take the simulated time ``now`` only to timestamp the
    events they report to the optional probe.
    """

    __slots__ = ("capacity", "policy", "_entries", "peak_depth", "_probe")

    def __init__(
        self, capacity: int, policy: str = "lifo", probe: "Optional[Probe]" = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if policy not in ("fifo", "lifo"):
            raise ValueError(f"unknown policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self._entries: List[RegionEntry] = []
        #: most entries ever simultaneously queued (observability).
        self.peak_depth = 0
        self._probe = probe

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RegionEntry]:
        """Iterate entries in decreasing issue priority."""
        return iter(self._entries)

    @property
    def entries(self) -> List[RegionEntry]:
        return list(self._entries)

    def find(self, addr: int) -> Optional[RegionEntry]:
        """Entry whose region contains ``addr``, if any."""
        for entry in self._entries:
            if entry.contains(addr):
                return entry
        return None

    def insert(self, entry: RegionEntry, now: float = 0.0) -> Optional[RegionEntry]:
        """Add a new region; returns the replaced entry if one was evicted."""
        victim = None
        if len(self._entries) >= self.capacity:
            if self.policy == "fifo":
                victim = self._entries.pop(0)
            else:
                victim = self._entries.pop()
        if self.policy == "fifo":
            self._entries.append(entry)
        else:
            self._entries.insert(0, entry)
        if len(self._entries) > self.peak_depth:
            self.peak_depth = len(self._entries)
        if self._probe is not None:
            self._probe.region_enqueue(now, self, entry, victim)
        return victim

    def promote(self, entry: RegionEntry, now: float = 0.0) -> None:
        """Move ``entry`` to the highest-priority position (LIFO only)."""
        self._entries.remove(entry)
        self._entries.insert(0, entry)
        if self._probe is not None:
            self._probe.region_promote(now, self, entry)

    def retire(self, entry: RegionEntry, now: float = 0.0) -> None:
        """Remove a region whose blocks have all been processed."""
        self._entries.remove(entry)
        if self._probe is not None:
            self._probe.region_retire(now, self, entry)

    def head(self) -> Optional[RegionEntry]:
        """Highest-priority entry, or None when empty."""
        return self._entries[0] if self._entries else None
