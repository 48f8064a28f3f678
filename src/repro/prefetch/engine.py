"""Scheduled region prefetch engine (Section 4, Figure 4).

The engine owns the prefetch queue and implements the *prefetch
prioritizer*: it picks the next block to prefetch using region priority
(FIFO or LIFO order) refined by bank-aware scheduling — a region whose
next block maps to an already-open DRAM row is preferred, so prefetch
requests generate precharge/activate commands only when no pending
prefetch targets an open row (Section 4.2).

The *access prioritizer* (demand misses and writebacks bypass
prefetches; prefetches issue only into idle channel time) lives in
:class:`repro.dram.controller.MemoryController`, which drives this
engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.config import PrefetchConfig
from repro.core.stats import SimStats
from repro.dram.channel import LogicalChannel
from repro.dram.mapping import AddressMapping
from repro.prefetch.queue import PrefetchQueue
from repro.prefetch.region import RegionEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.probe import Probe

__all__ = ["RegionPrefetcher", "THROTTLE_PROBE_PERIOD"]

#: when throttled, one select in this many still issues (a probe).
THROTTLE_PROBE_PERIOD = 32

ResidencyProbe = Callable[[int], bool]


class RegionPrefetcher:
    """Region prefetcher with scheduling hooks for the memory controller."""

    def __init__(
        self,
        config: PrefetchConfig,
        block_bytes: int,
        stats: SimStats,
        probe: "Optional[Probe]" = None,
    ) -> None:
        if config.region_bytes < block_bytes:
            raise ValueError("region must be at least one block")
        self.config = config
        self.block_bytes = block_bytes
        self.stats = stats
        self.queue = PrefetchQueue(config.queue_entries, config.policy, probe=probe)
        self._region_mask = config.region_bytes - 1
        # throttle bookkeeping (Section 4.4: on-line accuracy counters).
        self._outcome_total = 0
        self._outcome_useful = 0
        self._throttle_skips = 0

    # -- demand-side hooks ----------------------------------------------------

    def on_demand_miss(self, block_addr: int, pc: int = 0, now: float = 0.0) -> None:
        """A demand L2 miss occurred; enqueue or update its region.

        ``pc`` is accepted for interface parity with PC-indexed engines
        (the region engine is address-based and ignores it); ``now`` is
        the miss time, used only to timestamp probe events.
        """
        _ = pc
        entry = self.queue.find(block_addr)
        if entry is not None:
            entry.mark_block(block_addr)
            if entry.exhausted:
                # Every block has now been processed (prefetched or
                # demand-fetched): retire the entry rather than letting
                # it squat in the queue, where it would force the
                # replacement of still-live regions (Section 4
                # retirement rule).
                self.queue.retire(entry, now)
                self.stats.prefetch_regions_completed += 1
                return
            if self.config.policy == "lifo" and self.config.promote_on_miss:
                self.queue.promote(entry, now)
                self.stats.prefetch_regions_promoted += 1
            return
        base = block_addr & ~self._region_mask
        entry = RegionEntry(base, self.config.region_bytes, self.block_bytes, block_addr)
        victim = self.queue.insert(entry, now)
        self.stats.prefetch_regions_enqueued += 1
        if victim is not None:
            self.stats.prefetch_regions_replaced += 1

    def record_outcome(self, useful: bool) -> None:
        """Feedback from the L2: a prefetched block was referenced (useful)
        or evicted untouched, feeding the optional accuracy throttle."""
        self._outcome_total += 1
        if useful:
            self._outcome_useful += 1
        if self._outcome_total >= 2 * self.config.throttle_window:
            # Exponential decay so the estimate tracks phase changes.
            self._outcome_total //= 2
            self._outcome_useful //= 2

    @property
    def estimated_accuracy(self) -> float:
        if not self._outcome_total:
            return 1.0
        return self._outcome_useful / self._outcome_total

    @property
    def throttled(self) -> bool:
        if not self.config.throttle:
            return False
        if self._outcome_total < self.config.throttle_window:
            return False
        return self.estimated_accuracy < self.config.throttle_min_accuracy

    # -- issue-side hooks -------------------------------------------------------

    def has_work(self) -> bool:
        return len(self.queue) > 0

    def queue_depth(self) -> int:
        """Regions currently queued (observability)."""
        return len(self.queue)

    def select(
        self,
        channel: LogicalChannel,
        mapping: AddressMapping,
        resident: ResidencyProbe,
        now: float = 0.0,
    ) -> Optional[int]:
        """Choose, mark, and return the next block address to prefetch.

        ``resident`` reports whether a block is already in (or on its
        way into) the L2; such blocks are marked in their region bitmap
        and skipped.  Exhausted regions are retired.  Returns None when
        no prefetch candidate exists (or the throttle is engaged).
        ``now`` only timestamps probe events.
        """
        if self.throttled:
            # Let an occasional probe through so the accuracy estimate
            # can recover when the program enters a prefetch-friendly
            # phase; without probes the throttle would starve its own
            # feedback and never release.
            self._throttle_skips += 1
            if self._throttle_skips % THROTTLE_PROBE_PERIOD:
                self.stats.prefetches_throttled += 1
                return None
        first: Optional[tuple] = None
        chosen: Optional[tuple] = None
        for entry in list(self.queue):
            addr = self._candidate(entry, resident)
            if addr is None:
                self.queue.retire(entry, now)
                self.stats.prefetch_regions_completed += 1
                continue
            if first is None:
                first = (entry, addr)
                if not self.config.bank_aware:
                    break
            if self.config.bank_aware and channel.row_is_open(mapping.translate(addr)):
                chosen = (entry, addr)
                break
        if chosen is None:
            chosen = first
        if chosen is None:
            return None
        entry, addr = chosen
        entry.mark_block(addr)
        entry.advance()
        if entry.exhausted:
            self.queue.retire(entry, now)
            self.stats.prefetch_regions_completed += 1
        return addr

    def _candidate(self, entry: RegionEntry, resident: ResidencyProbe) -> Optional[int]:
        """Next non-resident block of ``entry``, marking resident ones."""
        while True:
            index = entry.next_candidate()
            if index is None:
                return None
            addr = entry.block_addr(index)
            if resident(addr):
                entry.mark_block(addr)
                entry.advance()
                continue
            return addr
