"""Stride prefetcher baseline (related work, Section 5).

A reference-prediction-table prefetcher in the style of Baer & Chen
(as used by Zhang & McKee's memory-controller prefetching, which the
paper compares against): the L2 demand-miss stream is tracked per
static access site (PC); when two consecutive misses from the same
site differ by a stable stride, the predicted next blocks are pushed
into a small queue and issued through the same scheduled path as the
region engine — idle channel time only, low replacement priority.

This engine exists as an ablation baseline: region prefetching needs no
PC, captures bidirectional/irregular locality within the region, and
prefetches far more aggressively; the stride engine only covers
constant-stride misses.  It implements the same interface as
:class:`repro.prefetch.engine.RegionPrefetcher` so the controller can
drive either.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.core.stats import SimStats
from repro.dram.channel import LogicalChannel
from repro.dram.mapping import AddressMapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.probe import Probe

__all__ = ["StrideEntry", "StridePrefetcher"]

ResidencyProbe = Callable[[int], bool]


class StrideEntry:
    """Reference-prediction-table row for one access site."""

    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, addr: int) -> None:
        self.last_addr = addr
        self.stride = 0
        self.confidence = 0

    def observe(self, addr: int) -> None:
        """Update stride state with the next miss address."""
        stride = addr - self.last_addr
        if stride != 0 and stride == self.stride:
            self.confidence = min(self.confidence + 1, 3)
        else:
            self.stride = stride
            self.confidence = 0 if stride == 0 else 1
        self.last_addr = addr

    @property
    def confident(self) -> bool:
        return self.confidence >= 2 and self.stride != 0


class StridePrefetcher:
    """PC-indexed stride predictor over the L2 miss stream."""

    def __init__(
        self,
        block_bytes: int,
        stats: SimStats,
        table_entries: int = 64,
        degree: int = 4,
        queue_depth: int = 32,
        probe: "Optional[Probe]" = None,
    ) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.block_bytes = block_bytes
        self.stats = stats
        self.table_entries = table_entries
        self.degree = degree
        self._probe = probe
        self._table: "OrderedDict[int, StrideEntry]" = OrderedDict()
        self._queue: Deque[int] = deque(maxlen=queue_depth)

    # -- demand-side hooks ----------------------------------------------------

    def on_demand_miss(self, block_addr: int, pc: int = 0, now: float = 0.0) -> None:
        """Train on a miss and enqueue predicted future blocks.

        ``now`` is the miss time, used only to timestamp probe events.
        """
        # A block the demand stream has already reached is no longer
        # worth prefetching.
        block = block_addr & ~(self.block_bytes - 1)
        if block in self._queue:
            self._queue.remove(block)
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_entries:
                self._table.popitem(last=False)
            self._table[pc] = StrideEntry(block_addr)
            return
        self._table.move_to_end(pc)
        entry.observe(block_addr)
        if not entry.confident:
            return
        for i in range(1, self.degree + 1):
            predicted = block_addr + i * entry.stride
            if predicted >= 0:
                block = predicted & ~(self.block_bytes - 1)
                if block not in self._queue:
                    self._queue.append(block)
        self.stats.prefetch_regions_enqueued += 1
        if self._probe is not None:
            self._probe.stride_enqueue(now, pc, entry.stride, self._queue)

    @property
    def throttled(self) -> bool:
        return False

    def record_outcome(self, useful: bool) -> None:
        """Interface parity with the region engine (no throttle here)."""

    # -- issue-side hooks -------------------------------------------------------

    def has_work(self) -> bool:
        return bool(self._queue)

    def queue_depth(self) -> int:
        """Blocks currently queued (observability)."""
        return len(self._queue)

    def select(
        self,
        channel: LogicalChannel,
        mapping: AddressMapping,
        resident: ResidencyProbe,
        now: float = 0.0,
    ) -> Optional[int]:
        """Oldest queued prediction not already resident."""
        _ = channel, mapping, now  # stride queue is FIFO; no bank awareness
        while self._queue:
            block = self._queue.popleft()
            if not resident(block):
                return block
        return None
