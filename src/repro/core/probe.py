"""The simulator's one instrumentation seam.

Components under ``cache/``, ``cpu/``, ``dram/`` and ``prefetch/`` take
an optional ``probe`` and report domain events to it, each site behind
one ``if probe is not None`` test, so a run without one makes no call.
Probes only *read* simulator state: statistics are byte-identical with
any probe attached.  :class:`repro.obs.Observer` presents the events and
:class:`repro.sanitize.Sanitizer` checks them; :class:`Probes` fans one
stream out to both.
"""

from __future__ import annotations

__all__ = ["Probe", "Probes"]


class Probe:
    """No-op handlers for every simulator event; consumers override the
    ones they need.  Times are in CPU cycles, ``level`` names a cache or
    MSHR file (``l1i``/``l1d``/``l2``) and ``index`` a cache set."""

    __slots__ = ()

    def register_cache(self, level, cache) -> None:
        """A cache level was built."""

    def register_channel(self, channel, timings, closed_page, policy) -> None:
        """A DRAM channel was built; ``policy`` is a fresh copy of its
        row-timing policy (None for uniform timings) for shadow replay."""

    def warmup_begin(self) -> None:
        """Warm-up starts; it is not part of the measured window."""

    def warmup_end(self) -> None:
        """Warm-up is over."""

    def quiesce(self, finish) -> None:
        """A run ended at ``finish``."""

    def cache_access(self, level, index, dirtied) -> None:
        """A demand hit; ``dirtied`` when a write turned a clean line dirty."""

    def cache_miss(self, level, index) -> None:
        """A demand miss."""

    def cache_fill(self, level, index, line, victim) -> None:
        """``line`` was installed, evicting ``victim`` (or None)."""

    def cache_fill_merge(self, level, index, ready_time, dirtied) -> None:
        """A fill merged into the resident copy of its block."""

    def cache_invalidate(self, level, index, line) -> None:
        """``line`` was dropped."""

    def cache_dirtied(self, level) -> None:
        """A resident line turned dirty in place (an L1 victim's data)."""

    def l1_access(self, time, addr, kind, line) -> None:
        """L1 lookup of an ``AccessKind``: the hit ``line`` (maybe in flight) or None."""

    def l2_hit(self, time, addr, line, prefetched) -> None:
        """L2 hit; ``prefetched`` on a prefetched line's first use."""

    def l2_miss(self, time, addr) -> None:
        """L2 miss, before its demand fetch is scheduled."""

    def mshr_acquire(self, level, now, granted, outstanding, capacity) -> None:
        """A miss asked for an MSHR at ``now``; it stalled if ``granted > now``."""

    def mshr_commit(self, level, granted, completion, addr, outstanding, capacity) -> None:
        """The fill of ``addr`` holds an MSHR from ``granted`` to ``completion``."""

    def mshr_quiesce(self, level, completions, finish) -> None:
        """End of run with ``completions`` still outstanding."""

    def demand_arriving(self, time, kind) -> None:
        """A demand miss or writeback (``kind``) reached the controller."""

    def dram_access(
        self, channel, time, bank, row, outcome, cls_name, prer_start, act_start,
        flushed, packets, completion,
    ) -> None:
        """The channel scheduled a ``demand``/``writeback``/``prefetch``
        request arriving at ``time``.  ``prer_start``/``act_start`` are
        None when no PRER/ACT issued; ``flushed`` lists the sense-amp
        neighbours the ACT closed; ``packets`` holds ``(command start,
        data end)`` per data packet."""

    def dram_demand(self, time, completion, addr) -> None:
        """A demand fetch of block ``addr`` was scheduled."""

    def dram_writeback(self, time, completion, addr) -> None:
        """A writeback of block ``addr`` was scheduled."""

    def dram_prefetch(self, time, completion, addr, depth) -> None:
        """A prefetch of block ``addr`` was scheduled, ``depth`` entries queued."""

    def prefetch_trained(self, time, depth) -> None:
        """The prefetch engine saw a demand miss, ``depth`` entries queued."""

    def region_enqueue(self, now, queue, entry, victim) -> None:
        """A region entered the queue, replacing ``victim`` (or None)."""

    def region_promote(self, now, queue, entry) -> None:
        """A queued region moved to the highest priority."""

    def region_retire(self, now, queue, entry) -> None:
        """A region left the queue with every block processed."""

    def stride_enqueue(self, now, pc, stride, queue) -> None:
        """The stride engine queued predictions for access site ``pc``."""


class Probes:
    """Fan-out: forwards each event to every probe, in order."""

    def __init__(self, *probes: Probe) -> None:
        self.probes = probes

    def __getattr__(self, event: str):
        handlers = [getattr(probe, event) for probe in self.probes]

        def fan_out(*args) -> None:
            for handler in handlers:
                handler(*args)

        setattr(self, event, fan_out)  # later lookups skip __getattr__
        return fan_out
