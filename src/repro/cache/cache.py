"""Set-associative writeback cache with timestamped fills.

Lines are installed with a ``ready_time``: the moment their data
actually arrives from the next level.  A demand access that finds a
line whose ``ready_time`` lies in the future is a *delayed hit* — it
merges with the in-flight fill (MSHR-style) and completes when the
data does.  This single mechanism models both demand-fill merging and
demand hits on in-flight prefetches (the paper's prefetch bitmap marks
blocks "being prefetched or in the cache").

Prefetched lines carry a ``prefetched`` flag until their first demand
touch, which is when the prefetch counts as *useful* for the accuracy
statistics; evicting a still-flagged line counts as pollution.

Each set keeps two synchronized views of its contents: a list ordered
MRU→LRU (the recency chain replacement needs) and a dict mapping block
address to line (so lookups are O(1) instead of a Python-level linear
scan — at L2 associativities the scan dominated the simulator's
profile).  Every lookup path goes through :meth:`_find` so the two
views cannot drift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.cache.replacement import INSERTION_PRIORITIES, insertion_index
from repro.core.config import CacheConfig
from repro.core.stats import CacheStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.probe import Probe

__all__ = ["CacheLine", "SetAssociativeCache"]


class CacheLine:
    """One cache block; ``addr`` is the block-aligned physical address."""

    __slots__ = ("addr", "dirty", "prefetched", "ready_time")

    def __init__(self, addr: int, dirty: bool, prefetched: bool, ready_time: float) -> None:
        self.addr = addr
        self.dirty = dirty
        self.prefetched = prefetched
        self.ready_time = ready_time


class SetAssociativeCache:
    """LRU set-associative cache with configurable insertion priority."""

    __slots__ = (
        "config",
        "stats",
        "_prefetch_outcome",
        "_offset_bits",
        "_index_mask",
        "_block_mask",
        "_assoc",
        "_sets",
        "_tags",
        "_insert_index",
        "last_was_prefetched",
        "_probe",
        "_level",
    )

    def __init__(
        self,
        config: CacheConfig,
        stats: CacheStats,
        prefetch_outcome: Optional[Callable[[bool], None]] = None,
        probe: "Optional[Probe]" = None,
        level: str = "cache",
    ) -> None:
        self.config = config
        self.stats = stats
        #: optional event consumer (:mod:`repro.core.probe`).
        self._probe = probe
        self._level = level
        #: callback invoked with True (useful) / False (evicted unused)
        #: for each prefetched line's final outcome; feeds the engine's
        #: accuracy throttle and the global prefetch counters.
        self._prefetch_outcome = prefetch_outcome
        self._offset_bits = config.block_offset_bits
        self._index_mask = config.num_sets - 1
        self._block_mask = ~(config.block_bytes - 1)
        self._assoc = config.assoc
        # Each set is a list ordered MRU (index 0) -> LRU (index -1)...
        self._sets: List[List[CacheLine]] = [[] for _ in range(config.num_sets)]
        # ...mirrored by a block-address -> line index for O(1) lookup.
        self._tags: List[Dict[int, CacheLine]] = [{} for _ in range(config.num_sets)]
        self._insert_index = {
            priority: insertion_index(priority, config.assoc)
            for priority in INSERTION_PRIORITIES
        }
        #: set by :meth:`access`: the last hit consumed a prefetched line.
        self.last_was_prefetched = False
        if probe is not None:
            probe.register_cache(level, self)

    # -- lookups -----------------------------------------------------------------

    def block_address(self, addr: int) -> int:
        return addr & self._block_mask

    def _find(self, addr: int) -> Tuple[int, int, Optional[CacheLine]]:
        """(block address, set index, resident line or None) for ``addr``.

        The single tag-match path shared by every lookup: ``contains``,
        ``peek``, ``access``, ``fill``, and ``invalidate`` all resolve
        residency here, so the tag index cannot disagree between them.
        No side effects (no recency update, no stats).
        """
        block = addr & self._block_mask
        index = (block >> self._offset_bits) & self._index_mask
        return block, index, self._tags[index].get(block)

    def contains(self, addr: int) -> bool:
        """Presence probe with no side effects (no recency update)."""
        return self._find(addr)[2] is not None

    def peek(self, addr: int) -> Optional[CacheLine]:
        """Return the line holding ``addr`` without touching recency."""
        return self._find(addr)[2]

    # -- demand path ---------------------------------------------------------------

    def access(self, addr: int, is_write: bool) -> Optional[CacheLine]:
        """Demand access: on hit, promote to MRU and return the line.

        Updates hit/miss counters; the caller handles the miss path
        (fetch from the next level, then :meth:`fill`).  A hit on a
        still-in-flight line is returned as a hit; the caller compares
        ``ready_time`` with the access time to account the extra delay.
        """
        stats = self.stats
        stats.accesses += 1
        self.last_was_prefetched = False
        block, index, line = self._find(addr)
        probe = self._probe
        if line is None:
            stats.misses += 1
            if probe is not None:
                probe.cache_miss(self._level, index)
            return None
        lines = self._sets[index]
        if lines[0] is not line:
            lines.remove(line)
            lines.insert(0, line)
        if probe is not None:
            # Hook before the dirty mutation: the sanitizer needs to see
            # the clean→dirty transition to keep its conservation count.
            probe.cache_access(self._level, index, is_write and not line.dirty)
        if is_write:
            line.dirty = True
        if line.prefetched:
            line.prefetched = False
            self.last_was_prefetched = True
            if self._prefetch_outcome is not None:
                self._prefetch_outcome(True)
        stats.hits += 1
        return line

    # -- fill path ------------------------------------------------------------------

    def fill(
        self,
        addr: int,
        ready_time: float,
        dirty: bool = False,
        insertion: str = "mru",
        prefetched: bool = False,
    ) -> Optional[CacheLine]:
        """Install a block; returns the evicted victim line, if any.

        The victim (not yet written back) is returned so the caller can
        schedule the writeback; clean victims are returned too so the
        caller can count evictions uniformly.

        Filling a block that is already resident — reachable when a
        drained prefetch and the demand fetch target the same block in
        one call chain — merges into the existing line instead of
        installing a duplicate: the earliest ``ready_time`` wins (the
        data is there once the first fill lands) and dirty bits OR
        together.  A demand fill merging into a still-flagged prefetch
        clears the flag without reporting an outcome: the demand paid
        the full fetch latency, so the prefetch was neither useful nor
        evicted.
        """
        block, index, line = self._find(addr)
        probe = self._probe
        if line is not None:
            if probe is not None:
                probe.cache_fill_merge(
                    self._level, index, ready_time, dirty and not line.dirty
                )
            line.dirty = line.dirty or dirty
            line.ready_time = min(line.ready_time, ready_time)
            if not prefetched:
                line.prefetched = False
            return None
        lines = self._sets[index]
        tags = self._tags[index]
        victim = None
        if len(lines) >= self._assoc:
            victim = lines.pop()
            del tags[victim.addr]
            self.stats.evictions += 1
            if victim.prefetched and self._prefetch_outcome is not None:
                self._prefetch_outcome(False)
        slot = self._insert_index.get(insertion)
        if slot is None:
            slot = insertion_index(insertion, self._assoc)  # raises on unknown priority
        line = CacheLine(block, dirty, prefetched, ready_time)
        lines.insert(min(slot, len(lines)), line)
        tags[block] = line
        if probe is not None:
            probe.cache_fill(self._level, index, line, victim)
        return victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Drop the line holding ``addr``; returns it if present."""
        block, index, line = self._find(addr)
        if line is None:
            return None
        self._sets[index].remove(line)
        del self._tags[index][block]
        if self._probe is not None:
            self._probe.cache_invalidate(self._level, index, line)
        return line

    # -- diagnostics ----------------------------------------------------------------

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_blocks(self) -> List[int]:
        """All block addresses currently cached (test helper)."""
        return [line.addr for lines in self._sets for line in lines]
