"""The sanitizer probe: invariant checks on the simulator's event stream.

:class:`Sanitizer` is a probe (:mod:`repro.core.probe`), a sibling of
:class:`repro.obs.Observer` on the same seam: the components report
domain events — cache set mutations, MSHR grants, DRAM accesses,
prefetch-queue changes — and the sanitizer handles the ones its
checkers need, leaving the rest to the no-op defaults.  Handlers only
*read* simulator state — the statistics are byte-identical with
sanitizing on or off (the A/B tests assert it) — and raise a
structured :class:`~repro.sanitize.errors.SanitizerError` the moment an
invariant breaks, so the failure points at the exact cycle and
component rather than at a corrupted end-of-run table.

Checkers (see :mod:`repro.sanitize.cache` / :mod:`repro.sanitize.dram`):

* DRDRAM protocol legality per channel (shadow command-schedule model);
* the access prioritizer's demand-over-prefetch guarantee;
* cache set structure (tag index ↔ recency list) and fill/dirty
  conservation, per cache level;
* MSHR occupancy bounds and end-of-run drain;
* prefetch-queue bounds and region uniqueness.

``System(config, sanitize=True)`` builds and attaches one; a violation
is logged through :mod:`repro.obs.log` before it propagates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.probe import Probe
from repro.obs.log import get_logger
from repro.sanitize.cache import CacheChecker, MSHRChecker
from repro.sanitize.dram import ChannelChecker, PrioritizerChecker
from repro.sanitize.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.cache import CacheLine, SetAssociativeCache
    from repro.dram.backends import RowTimingPolicy
    from repro.dram.channel import LogicalChannel
    from repro.prefetch.queue import PrefetchQueue

__all__ = ["Sanitizer"]

_log = get_logger("repro.sanitize")


class Sanitizer(Probe):
    """Runtime invariant checker for one simulated system.

    Construct one per :class:`~repro.core.system.System`; registration
    happens as the components build themselves.  The sanitizer lives
    across warm-up and measurement runs (its conservation counters span
    both — the invariants hold at every run boundary).
    """

    __slots__ = ("caches", "channels", "mshrs", "prioritizer", "violations")

    def __init__(self) -> None:
        self.caches: Dict[str, CacheChecker] = {}
        #: keyed by channel object id — one system has one logical
        #: channel, but unit tests may share a Sanitizer across several.
        self.channels: Dict[int, ChannelChecker] = {}
        self.mshrs = MSHRChecker(self._violation)
        self.prioritizer = PrioritizerChecker(self._violation)
        self.violations = 0

    # -- violation funnel ------------------------------------------------------

    def _violation(
        self,
        message: str,
        *,
        cycle: Optional[float] = None,
        component: str = "",
        event: str = "",
        details: Optional[Dict[str, object]] = None,
    ) -> None:
        """Log and raise; every checker reports through here."""
        self.violations += 1
        error = SanitizerError(
            message, cycle=cycle, component=component, event=event, details=details
        )
        _log.error(f"[sanitize] {error.render()}")
        raise error

    # -- registration ----------------------------------------------------------

    def register_cache(self, level: str, cache: "SetAssociativeCache") -> None:
        self.caches[level] = CacheChecker(level, cache, self._violation)

    def register_channel(
        self,
        channel: "LogicalChannel",
        timings: dict,
        closed_page: bool,
        policy: "Optional[RowTimingPolicy]" = None,
    ) -> None:
        self.channels[id(channel)] = ChannelChecker(
            channel, timings, closed_page, self._violation, policy=policy
        )

    # -- cache hooks -----------------------------------------------------------

    def cache_access(self, level: str, index: int, dirtied: bool) -> None:
        self.caches[level].accessed(index, dirtied)

    def cache_miss(self, level: str, index: int) -> None:
        self.caches[level].missed(index)

    def cache_fill(
        self, level: str, index: int, line: "CacheLine", victim: "Optional[CacheLine]"
    ) -> None:
        self.caches[level].filled(index, line.ready_time, line.dirty, victim)

    def cache_fill_merge(
        self, level: str, index: int, ready_time: float, dirtied: bool
    ) -> None:
        self.caches[level].fill_merged(index, ready_time, dirtied)

    def cache_invalidate(self, level: str, index: int, line: "CacheLine") -> None:
        self.caches[level].invalidated(index, line)

    def cache_dirtied(self, level: str) -> None:
        self.caches[level].dirtied()

    # -- MSHR hooks ------------------------------------------------------------

    def mshr_acquire(
        self, level: str, now: float, granted: float, outstanding: int, capacity: int
    ) -> None:
        self.mshrs.acquired(level, now, granted, outstanding, capacity)

    def mshr_commit(
        self, level: str, granted: float, completion: float, addr: int,
        outstanding: int, capacity: int,
    ) -> None:
        self.mshrs.committed(level, completion, outstanding, capacity)

    def mshr_quiesce(self, level: str, completions: List[float], finish: float) -> None:
        self.mshrs.quiesced(level, completions, finish)

    # -- DRAM / controller hooks ------------------------------------------------

    def demand_arriving(self, time: float, kind: str = "demand") -> None:
        self.prioritizer.arriving(time, kind)

    def dram_access(
        self,
        channel: "LogicalChannel",
        time: float,
        bank: int,
        row: int,
        outcome: str,
        cls_name: str,
        prer_start: Optional[float],
        act_start: Optional[float],
        flushed: Optional[List[int]],
        packets: Sequence[Tuple[float, float]],
        completion: float,
    ) -> None:
        self.prioritizer.granted(time, cls_name)
        self.channels[id(channel)].access(
            time, bank, row, outcome, prer_start, act_start, packets, completion
        )

    # -- prefetch hooks ----------------------------------------------------------

    def region_promote(self, now: float, queue: "PrefetchQueue", entry) -> None:
        self._check_queue(len(queue), queue.capacity, [e.base for e in queue])

    def region_enqueue(self, now: float, queue: "PrefetchQueue", entry, victim) -> None:
        self.region_promote(now, queue, entry)

    region_retire = region_promote

    def stride_enqueue(self, now: float, pc: int, stride: int, queue) -> None:
        self._check_queue(len(queue), queue.maxlen, list(queue))

    def _check_queue(self, depth: int, capacity: int, bases: List[int]) -> None:
        """Bounds and region uniqueness, after every queue mutation."""
        if depth > capacity:
            self._violation(
                "prefetch queue holds more regions than its capacity",
                component="prefetch:queue",
                event="bound",
                details={"depth": depth, "capacity": capacity},
            )
        if len(set(bases)) != len(bases):
            self._violation(
                "duplicate region queued in the prefetch queue",
                component="prefetch:queue",
                event="duplicate",
                details={"bases": bases},
            )

    # -- end of run ---------------------------------------------------------------

    def quiesce(self, finish: float) -> None:
        """Verify every end-of-run invariant (called by ``System.run``)."""
        for checker in self.caches.values():
            checker.quiesce(finish)
        for channel_checker in self.channels.values():
            channel_checker.quiesce(finish)
        self.prioritizer.quiesce(finish)

    # -- reporting ----------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Checks performed per subsystem (diagnostics / tests)."""
        return {
            "violations": self.violations,
            "cache_checks": {
                level: checker.checks for level, checker in sorted(self.caches.items())
            },
            "dram_checks": sum(c.checks for c in self.channels.values()),
            "mshr_checks": self.mshrs.checks,
            "prioritizer_checks": self.prioritizer.checks,
        }
