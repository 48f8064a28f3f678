"""Top-level simulated system: core + caches + controller + DRAM.

    >>> from repro import System, SystemConfig
    >>> from repro.workloads import build_trace
    >>> stats = System(SystemConfig()).run(build_trace("swim", memory_refs=10_000))
    >>> stats.ipc > 0
    True
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.config import SystemConfig
from repro.core.probe import Probes
from repro.core.stats import SimStats
from repro.cpu.core import OutOfOrderCore
from repro.cpu.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.observer import Observer
    from repro.sanitize.sanitizer import Sanitizer

__all__ = ["System", "simulate"]


class System:
    """One simulated machine instance.

    A ``System`` is single-use per run in the sense that caches and DRAM
    state persist across :meth:`run` calls (useful for warm-up phases);
    construct a fresh instance for an independent experiment.

    ``obs`` attaches an optional :class:`repro.obs.Observer` to every
    component; observability never changes the simulation — the
    statistics are byte-identical with it on or off.

    ``sanitize`` attaches an optional :class:`repro.sanitize.Sanitizer`
    the same way: pass ``True`` to build one, or an existing instance to
    share it.  Like observability it never changes the simulation; it
    only *checks* it, raising :class:`repro.sanitize.SanitizerError` on
    the first violated invariant.

    Both are probes (:mod:`repro.core.probe`): the components see one
    ``probe`` — None, whichever consumer is on, or a
    :class:`~repro.core.probe.Probes` fan-out when both are.
    """

    def __init__(
        self,
        config: SystemConfig,
        obs: "Optional[Observer]" = None,
        sanitize: "Union[bool, Sanitizer, None]" = None,
    ) -> None:
        self.config = config.validate()
        self.stats = SimStats()
        self.obs = obs
        if sanitize is True:
            from repro.sanitize.sanitizer import Sanitizer

            san: "Optional[Sanitizer]" = Sanitizer()
        else:
            san = sanitize or None
        self.san = san
        self.probe = Probes(obs, san) if obs and san else obs or san
        self.hierarchy = MemoryHierarchy(config, self.stats, probe=self.probe)
        self.core = OutOfOrderCore(config, self.hierarchy, self.stats, probe=self.probe)
        self._clock = 0.0

    def run(self, trace: Trace) -> SimStats:
        """Execute ``trace`` on this system; returns accumulated stats."""
        self._clock = self.core.run(trace, start_time=self._clock)
        if self.probe is not None:
            # The sanitizer's end-of-run sweep: tag/recency mirrors,
            # conservation counts, shadow-vs-real DRAM bank state.
            self.probe.quiesce(self._clock)
        return self.stats

    def warmup(self, trace: Trace) -> None:
        """Run ``trace`` to warm caches and DRAM state, then zero the
        statistics; the simulated clock keeps advancing so utilization
        accounting stays consistent.  The probe is told, so the observer
        mutes for the duration — like the statistics, recorded traces and
        histograms cover only the measured window."""
        probe = self.probe
        if probe is not None:
            probe.warmup_begin()
        try:
            self.run(trace)
        finally:
            if probe is not None:
                probe.warmup_end()
        self.stats.reset()


def simulate(
    trace: Trace,
    config: SystemConfig,
    warmup_trace: Optional[Trace] = None,
    obs: "Optional[Observer]" = None,
    sanitize: "Union[bool, Sanitizer, None]" = None,
    fast: bool = True,
) -> SimStats:
    """Run ``trace`` on a fresh system built from ``config``.

    ``warmup_trace``, when given, runs first and is excluded from the
    returned statistics (the paper similarly verified that cold-start
    misses did not perturb its measurements, Section 3.1).  ``obs``
    optionally records traces/histograms/timelines without perturbing
    the statistics; ``sanitize`` runs the same simulation under the
    runtime invariant checker.

    The point runs on the specialized kernel in :mod:`repro.kernel`,
    which produces byte-identical statistics.  The reference kernel
    remains authoritative: it runs when observability or sanitizing is
    requested (the fast kernel emits no probe events) and when ``fast``
    is False, the handle the A/B tests use to run it as an oracle
    (:func:`repro.kernel.fastcore.use_fast_kernel`).
    """
    # Imported lazily: repro.kernel imports this module.
    from repro.kernel.batch import simulate_fast
    from repro.kernel.fastcore import use_fast_kernel

    if use_fast_kernel(fast, obs, sanitize):
        return simulate_fast(trace, config, warmup_trace=warmup_trace)
    system = System(config, obs=obs, sanitize=sanitize)
    if warmup_trace is not None:
        system.warmup(warmup_trace)
    return system.run(trace)
