"""Opt-in runtime invariant checking for the simulated memory system.

``repro.sanitize`` is to the simulator what ASAN/TSAN are to a C
program: an execution mode that validates, on every event, the
protocol and structural properties the paper's results rest on —
DRDRAM command legality, the access prioritizer's demand-over-prefetch
guarantee, shared-sense-amp neighbour flushing, cache tag-index
coherence, and MSHR conservation.  It is a probe on the same seam as
:mod:`repro.obs` (:mod:`repro.core.probe`; one ``if probe is not None``
test per hook site, zero overhead when off) and never perturbs the
simulation: statistics are byte-identical with sanitizing on or off.

Enable it with ``System(config, sanitize=True)``,
``simulate(..., sanitize=True)``, or ``repro-experiment --sanitize``.
A violation raises :class:`SanitizerError` carrying the simulated
cycle, the component, the event, and the disagreeing values.
"""

from repro.sanitize.errors import SanitizerError
from repro.sanitize.sanitizer import Sanitizer

__all__ = ["Sanitizer", "SanitizerError"]
