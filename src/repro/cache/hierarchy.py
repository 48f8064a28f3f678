"""The on-chip memory hierarchy: split L1s, unified L2, memory controller.

``MemoryHierarchy.access`` is the single entry point the CPU timing
model calls for every memory reference.  It walks the access down the
hierarchy, mutating cache and DRAM state, and returns the time at which
the data is available to the core plus whether the reference missed in
the L1 (the core uses that to charge an L1 MSHR).

Idealizations used by the paper's Figure 1 / Figure 5 targets:

* ``perfect_memory`` — every reference completes at L1-hit latency.
* ``perfect_l2`` — L1 misses always hit in the L2 (12 cycles).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.core.config import SystemConfig
from repro.core.stats import SimStats
from repro.dram.controller import MemoryController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.probe import Probe

__all__ = ["AccessKind", "MemoryHierarchy"]


class AccessKind:
    """Memory reference types appearing in traces."""

    LOAD = 0
    STORE = 1
    IFETCH = 2
    #: compiler-inserted software prefetch (Section 4.7).
    SWPF = 3

    NAMES = {LOAD: "load", STORE: "store", IFETCH: "ifetch", SWPF: "swpf"}


class MemoryHierarchy:
    """Two-level cache hierarchy over the integrated memory controller."""

    __slots__ = (
        "config",
        "stats",
        "l1i",
        "l1d",
        "l2",
        "controller",
        "_l1_latency",
        "_prefetch_insertion",
        "_perfect_memory",
        "_perfect_l2",
        "_l2_hit_latency",
        "_probe",
    )

    def __init__(
        self,
        config: SystemConfig,
        stats: SimStats,
        probe: "Optional[Probe]" = None,
    ) -> None:
        self.config = config
        self.stats = stats
        self._probe = probe
        self.l1i = SetAssociativeCache(config.l1i, stats.l1i, probe=probe, level="l1i")
        self.l1d = SetAssociativeCache(config.l1d, stats.l1d, probe=probe, level="l1d")
        self.controller = MemoryController(
            config.dram,
            config.core,
            stats,
            prefetch=config.prefetch,
            block_bytes=config.l2.block_bytes,
            probe=probe,
        )
        self.l2 = SetAssociativeCache(
            config.l2,
            stats.l2,
            prefetch_outcome=self._prefetch_outcome,
            probe=probe,
            level="l2",
        )
        self.controller.connect_l2(self._prefetch_fill, self.l2.contains)
        self._l1_latency = {
            AccessKind.LOAD: config.l1d.hit_latency,
            AccessKind.STORE: config.l1d.hit_latency,
            AccessKind.SWPF: config.l1d.hit_latency,
            AccessKind.IFETCH: config.l1i.hit_latency,
        }
        self._prefetch_insertion = config.prefetch.insertion
        # Hoisted once: read on every single access.
        self._perfect_memory = config.perfect_memory
        self._perfect_l2 = config.perfect_l2
        self._l2_hit_latency = config.l2.hit_latency

    # -- prefetch plumbing ------------------------------------------------------

    def _prefetch_fill(self, block_addr: int, ready_time: float) -> None:
        """Install a prefetched block into the L2 at low priority."""
        victim = self.l2.fill(
            block_addr,
            ready_time=ready_time,
            dirty=False,
            insertion=self._prefetch_insertion,
            prefetched=True,
        )
        if victim is not None and victim.dirty:
            self.controller.writeback(ready_time, victim.addr)

    def _prefetch_outcome(self, useful: bool) -> None:
        """Final outcome of a prefetched L2 line (useful or polluting)."""
        if useful:
            self.stats.prefetches_useful += 1
        else:
            self.stats.prefetched_blocks_evicted_unused += 1
        if self.controller.prefetcher is not None:
            self.controller.prefetcher.record_outcome(useful)

    # -- the access path -----------------------------------------------------------

    def access(self, time: float, addr: int, kind: int, pc: int = 0) -> Tuple[float, bool]:
        """Process one reference; returns (data-ready time, l1_missed).

        ``pc`` identifies the static access site, used only by
        PC-indexed prefetch engines (e.g. the stride baseline).
        """
        l1_latency = self._l1_latency[kind]
        if self._perfect_memory:
            return time + l1_latency, False

        l1 = self.l1i if kind == AccessKind.IFETCH else self.l1d

        line = l1.access(addr, kind == AccessKind.STORE)
        if self._probe is not None:
            self._probe.l1_access(time, addr, kind, line)
        if line is not None:
            hit_done = time + l1_latency
            ready = line.ready_time
            if ready > time:
                l1.stats.delayed_hits += 1
                return (ready if ready > hit_done else hit_done), False
            return hit_done, False

        # L1 miss: the L2 sees the request after the L1 lookup.
        t2 = time + l1_latency
        data_ready = self._l2_access(t2, addr, pc)

        victim = l1.fill(addr, ready_time=data_ready, dirty=kind == AccessKind.STORE)
        if victim is not None and victim.dirty:
            self._l1_writeback(data_ready, victim.addr)
            l1.stats.writebacks += 1
        return data_ready, True

    def _l2_access(self, t2: float, addr: int, pc: int = 0) -> float:
        """L1-miss fetch from the L2 (and DRAM below it)."""
        l2_latency = self._l2_hit_latency
        if self._perfect_l2:
            self.stats.l2.accesses += 1
            self.stats.l2.hits += 1
            return t2 + l2_latency
        line = self.l2.access(addr, is_write=False)
        probe = self._probe
        if line is not None:
            # Hit: the access needs no channel time, so the prefetch
            # engine may use the idle interval up to now.  (On a miss
            # the demand is scheduled *first* — the access prioritizer
            # never starts a prefetch while a demand is pending.)
            self.controller.advance(t2)
            if probe is not None:
                probe.l2_hit(t2, addr, line, self.l2.last_was_prefetched)
            if line.ready_time > t2:
                self.stats.l2.delayed_hits += 1
                if self.l2.last_was_prefetched:
                    self.stats.prefetches_late += 1
                return max(t2 + l2_latency, line.ready_time)
            return t2 + l2_latency

        block = self.l2.block_address(addr)
        if probe is not None:
            probe.l2_miss(t2, addr)
        completion = self.controller.demand_fetch(t2, block, pc=pc)
        self.stats.l2_demand_fetches += 1
        self.stats.l2_miss_latency_sum += completion - t2
        victim = self.l2.fill(block, ready_time=completion, dirty=False, insertion="mru")
        if victim is not None and victim.dirty:
            self.controller.writeback(completion, victim.addr)
        return completion

    def _l1_writeback(self, time: float, victim_addr: int) -> None:
        """An L1 victim's dirty data moves into the L2 (or to memory)."""
        line = self.l2.peek(victim_addr)
        if line is not None:
            if self._probe is not None and not line.dirty:
                # In-place dirty transition outside the cache's own
                # mutation paths: keep the conservation count in step.
                self._probe.cache_dirtied("l2")
            line.dirty = True
            return
        if self._perfect_l2:
            return
        # Non-inclusive hierarchy: the L2 no longer holds the block, so
        # the dirty data goes straight to memory.
        self.controller.writeback(time, self.l2.block_address(victim_addr))

    def finish(self, time: float) -> None:
        """Propagate end-of-run to the controller (drains idle prefetches)."""
        self.controller.finish(time)
