"""Integrated memory controller (Figure 4).

The controller implements the paper's *access prioritizer*: demand
misses and writebacks always bypass prefetch requests, and prefetches
are issued only into otherwise-idle channel time.  In the
transaction-level simulation this is realized by *gap draining*: before
a demand arriving at time *t* is scheduled, the prefetch engine is
allowed to issue requests as long as the channel quiesces before *t*.
A prefetch transfer already in flight when the demand arrives delays it
— the only contention scheduled prefetching adds (Section 4).

With ``scheduled=False`` the controller reproduces the naive scheme of
Table 4 ("FIFO prefetch"): every region prefetch issues immediately
after its triggering demand miss, competing with later demands for the
channel and inflating miss latency dramatically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.config import CoreConfig, DRAMConfig, PrefetchConfig
from repro.core.stats import SimStats
from repro.dram.backends import get_backend
from repro.dram.channel import LogicalChannel
from repro.dram.mapping import make_mapping
from repro.prefetch.engine import RegionPrefetcher
from repro.prefetch.stride import StridePrefetcher

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.probe import Probe

__all__ = ["MemoryController"]

PrefetchFill = Callable[[int, float], None]
ResidencyProbe = Callable[[int], bool]


class MemoryController:
    """On-die memory controller driving the ganged Rambus channel."""

    __slots__ = (
        "config",
        "stats",
        "mapping",
        "channel",
        "block_bytes",
        "_block_packets",
        "_packet_time",
        "_idle_guard",
        "prefetcher",
        "_scheduled",
        "_prefetch_fill",
        "_resident",
        "_probe",
    )

    def __init__(
        self,
        dram: DRAMConfig,
        core: CoreConfig,
        stats: SimStats,
        prefetch: Optional[PrefetchConfig] = None,
        block_bytes: int = 64,
        probe: "Optional[Probe]" = None,
    ) -> None:
        self.config = dram
        self.stats = stats
        self._probe = probe
        # Address mapping and packet geometry follow the backend's
        # *effective* organization (the DDR-like backend, e.g., exposes
        # fewer banks); for the default DRDRAM backend this is ``dram``
        # itself.
        effective = get_backend(dram.backend).effective(dram)
        self.mapping = make_mapping(effective)
        self.channel = LogicalChannel(dram, core, stats, probe=probe)
        self.block_bytes = block_bytes
        self._block_packets = effective.transfer_packets(block_bytes)
        self._packet_time = core.ns_to_cycles(effective.part.t_packet_ns)
        #: minimum idle headroom before a prefetch may issue: exactly one
        #: command-packet time, so a prefetch granted the channel always
        #: finishes its column command before the deadline and a
        #: just-arriving demand's command slot stays clear.  The guard is
        #: applied in exactly one place — :meth:`_drain_prefetches` —
        #: and every caller passes the raw demand-arrival time as the
        #: deadline.
        self._idle_guard = self._packet_time
        self.prefetcher: Optional[RegionPrefetcher] = None
        self._scheduled = True
        if prefetch is not None and prefetch.enabled:
            if prefetch.engine == "stride":
                self.prefetcher = StridePrefetcher(block_bytes, stats, probe=probe)
            else:
                self.prefetcher = RegionPrefetcher(prefetch, block_bytes, stats, probe=probe)
            self._scheduled = prefetch.scheduled
        # Wired by the system once the L2 exists.
        self._prefetch_fill: Optional[PrefetchFill] = None
        self._resident: ResidencyProbe = lambda addr: False

    def connect_l2(self, prefetch_fill: PrefetchFill, resident: ResidencyProbe) -> None:
        """Attach the L2 callbacks the prefetch path needs."""
        self._prefetch_fill = prefetch_fill
        self._resident = resident

    # -- demand path ----------------------------------------------------------

    def advance(self, time: float) -> None:
        """The simulated clock reached ``time``: give the prefetch engine
        the idle channel time since the last access.

        Called on every L2 access (hits included) — the engine must keep
        running while demands are being absorbed by earlier prefetches,
        or it could never get ahead of a streaming demand pointer.
        """
        if self.prefetcher is not None and self._scheduled:
            self._drain_prefetches(deadline=time)

    def demand_fetch(
        self, time: float, addr: int, pc: int = 0, notify_prefetcher: bool = True
    ) -> float:
        """Fetch one L2 block on a demand miss; returns data arrival time.

        The idle interval leading up to the miss is made available to
        the prefetcher first, minus one command-packet time: the access
        prioritizer would not start a prefetch whose command slot the
        arriving demand needs, so the engine stops one packet short and
        the demand's column command lands unimpeded.  The one-packet
        guard is applied inside :meth:`_drain_prefetches` (and only
        there); ``deadline`` is the raw arrival time, exactly as in
        :meth:`advance` and :meth:`finish`.
        """
        probe = self._probe
        if probe is not None:
            # The demand is waiting from ``time`` until its channel
            # access lands; a prefetch granted at or after ``time``
            # violates the access prioritizer.  (Gap-drained prefetches
            # below start strictly earlier, so they pass.)
            probe.demand_arriving(time, "demand")
        if self.prefetcher is not None and self._scheduled:
            self._drain_prefetches(deadline=time)
        coords = self.mapping.translate(addr)
        _, completion = self.channel.access(
            time, coords, self._block_packets, is_write=False, cls=self.stats.dram_reads
        )
        if probe is not None:
            probe.dram_demand(time, completion, addr)
        if self.prefetcher is not None and notify_prefetcher:
            self.prefetcher.on_demand_miss(addr, pc=pc, now=time)
            if probe is not None:
                probe.prefetch_trained(time, self.prefetcher.queue_depth())
            if not self._scheduled:
                self._drain_all_prefetches(time)
        return completion

    def writeback(self, time: float, addr: int) -> float:
        """Write one L2 block back to memory; returns completion time."""
        probe = self._probe
        if probe is not None:
            probe.demand_arriving(time, "writeback")
        coords = self.mapping.translate(addr)
        _, completion = self.channel.access(
            time, coords, self._block_packets, is_write=True, cls=self.stats.dram_writebacks
        )
        self.stats.l2.writebacks += 1
        if probe is not None:
            probe.dram_writeback(time, completion, addr)
        return completion

    # -- prefetch issue --------------------------------------------------------

    def _issue_prefetch(self, time: float) -> Optional[float]:
        """Issue one prefetch block at ``time``; returns completion or None."""
        assert self.prefetcher is not None
        addr = self.prefetcher.select(self.channel, self.mapping, self._resident, now=time)
        if addr is None:
            return None
        coords = self.mapping.translate(addr)
        _, completion = self.channel.access(
            time, coords, self._block_packets, is_write=False, cls=self.stats.dram_prefetches
        )
        self.stats.prefetches_issued += 1
        if self._probe is not None:
            self._probe.dram_prefetch(time, completion, addr, self.prefetcher.queue_depth())
        if self._prefetch_fill is not None:
            self._prefetch_fill(addr, completion)
        return completion

    def _drain_prefetches(self, deadline: float) -> None:
        """Fill idle channel time before ``deadline`` with prefetches.

        A prefetch issues whenever the controller would otherwise sit
        idle — i.e. its command pipeline has drained — before the next
        demand arrives.  A prefetch whose transfer is still in flight
        when that demand arrives delays it; that is the only contention
        scheduled prefetching adds (Section 4.2).

        **Idle-guard policy.**  ``deadline`` is the raw arrival time of
        the next demand (or the current clock, for :meth:`advance` /
        :meth:`finish` drains).  The one-command-packet idle guard is
        subtracted *here and nowhere else*: a prefetch issues only while
        ``command_issue_time() <= deadline - t_packet``, so the engine
        stops exactly one packet time short of the deadline and the
        demand's own column command slot is never taken.  Callers must
        not pre-subtract the guard from ``deadline``.
        """
        while True:
            start = self.channel.command_issue_time()
            if start + self._idle_guard > deadline:
                return
            if self._issue_prefetch(start) is None:
                return

    #: unscheduled mode: how many region blocks issue between demands.
    #: The naive engine pushes prefetches into the same FCFS stream as
    #: the demands, so an arriving miss waits behind the burst in
    #: flight rather than behind the entire queue.
    UNSCHEDULED_BURST = 12

    def _drain_all_prefetches(self, time: float) -> None:
        """Unscheduled mode: issue a burst of queued prefetches now."""
        for _ in range(self.UNSCHEDULED_BURST):
            if self._issue_prefetch(max(time, self.channel.quiesce_time())) is None:
                return

    def finish(self, time: float) -> None:
        """End of simulation: let queued prefetches complete into idle time.

        The paper's engine keeps prefetching as long as the channel is
        idle; stopping the clock at the last demand access would
        under-count prefetch traffic, so the run's final idle window is
        drained here (bounded by ``time``).
        """
        if self.prefetcher is not None and self._scheduled:
            self._drain_prefetches(deadline=time)
