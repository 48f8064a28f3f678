"""Pluggable DRAM backend registry.

The paper evaluated its integrated hierarchy against exactly one memory
technology — Direct Rambus DRAM.  This module makes the memory system a
*pluggable unit*: a :class:`DRAMBackend` bundles protocol timings, the
effective organization (bank geometry, sense-amp sharing, speed grade),
an optional per-access row-timing policy, and the legality rules the
sanitizer's shadow oracle enforces.  Selecting a backend is one config
field (``DRAMConfig.backend``) threaded through ``SystemConfig.digest``
(default backend hashes identically to the pre-registry config, so
caches and goldens stay warm), ``repro-experiment --backend``, the
service request schema, and CI's ``backends`` job.

Registered backends:

``drdram``
    The paper's Direct Rambus model, untouched: four ganged channels of
    800-40 devices, 32 banks/device with shared sense amps, open-page
    policy.  Byte-identical to the pre-registry simulator.
``tldram``
    Tiered-Latency DRAM (Lee et al., HPCA 2013): each bank's rows split
    into a small *near* segment close to the sense amps (reduced
    precharge/activate/access timings) and a large *far* segment at the
    DRDRAM baseline timings.  With ``tldram_near_cache`` the near
    segment additionally caches recently activated far rows (the
    paper's "use near segment as a cache" organization), so row-level
    temporal locality converts far activations into near ones.
``chargecache``
    ChargeCache (Hassan et al., HPCA 2016): a small address cache of
    highly-charged rows beside the row-buffer model.  A row accessed
    within the last ``chargecache_duration_ns`` still holds most of its
    cell charge, so re-activating it completes with a reduced tRCD
    (modelled as a scaled ACT-to-RD/WR latency).
``ddr``
    A simplified DDR-like contrast point: conventional tRP/tRCD/CAS
    timings, only 4 independent banks per device, and no shared
    sense-amp restriction.  Same ganged-channel data path, so the
    bandwidth is comparable and the contrast isolates bank-level
    parallelism and row-access latency.

**Determinism contract.**  A backend's :meth:`~DRAMBackend.make_policy`
must return a *freshly initialized* policy whose decisions are a pure
function of the observed access stream: the sanitizer builds a second,
independent instance and replays the reported accesses through it, so
any hidden nondeterminism (or a channel that mis-applies a grant) shows
up as a protocol-legality violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.config import CoreConfig, DRAMConfig, DRDRAMPart

__all__ = [
    "BackendError",
    "DRAMBackend",
    "RowTimingPolicy",
    "TLDRAMPolicy",
    "ChargeCachePolicy",
    "DRDRAMBackend",
    "TLDRAMBackend",
    "ChargeCacheBackend",
    "DDRBackend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "has_backend",
    "backend_names",
    "check_backend",
    "main",
]


class BackendError(ValueError):
    """Registry misuse: duplicate registration or unknown backend."""


# -- per-access timing policies ---------------------------------------------------


class RowTimingPolicy:
    """Stateful per-access (t_prer, t_act, t_rdwr) resolution, in cycles.

    :meth:`resolve` is consulted once per channel access, *before* any
    command is scheduled, and must be read-only; :meth:`observe` is
    called once per access after scheduling and is the only place state
    may change.  The split keeps the channel's policy instance and the
    sanitizer's shadow instance in lockstep: both see the same
    (bank, row, outcome) stream, so both resolve the same grants.
    """

    def resolve(
        self, bank: int, row: int, time: float, outcome: str
    ) -> Tuple[float, float, float]:
        raise NotImplementedError

    def observe(
        self,
        bank: int,
        row: int,
        outcome: str,
        act_start: Optional[float],
        completion: float,
    ) -> None:
        """One access finished: update row-tracking state."""


class TLDRAMPolicy(RowTimingPolicy):
    """Near/far segment timing selection, plus near-segment caching.

    Rows below ``near_rows`` live in the near segment and always get
    the reduced timings.  With caching enabled, each bank's near
    segment also holds the ``cache_slots`` most recently *activated*
    far rows (MRU replacement): re-activating one of them is served at
    near-segment latency, modelling TL-DRAM's cache-most-recent policy
    (inter-segment migration cost is folded into the triggering far
    activation, a deliberate simplification).
    """

    def __init__(
        self,
        near_rows: int,
        far: Tuple[float, float, float],
        near: Tuple[float, float, float],
        cache_far_rows: bool,
        cache_slots: int = 4,
    ) -> None:
        self.near_rows = near_rows
        self.far = far
        self.near = near
        self.cache_far_rows = cache_far_rows
        self.cache_slots = cache_slots
        #: bank -> MRU-ordered list of far rows cached in the near segment.
        self._cached: Dict[int, List[int]] = {}

    def resolve(
        self, bank: int, row: int, time: float, outcome: str
    ) -> Tuple[float, float, float]:
        if row < self.near_rows:
            return self.near
        if self.cache_far_rows and row in self._cached.get(bank, ()):
            return self.near
        return self.far

    def observe(
        self,
        bank: int,
        row: int,
        outcome: str,
        act_start: Optional[float],
        completion: float,
    ) -> None:
        # Only activations move rows into the near segment; row-buffer
        # hits never touch the cell array.
        if not self.cache_far_rows or outcome == "hit" or row < self.near_rows:
            return
        rows = self._cached.setdefault(bank, [])
        if row in rows:
            rows.remove(row)
        rows.insert(0, row)
        del rows[self.cache_slots:]


class ChargeCachePolicy(RowTimingPolicy):
    """Highly-Charged Row Address Cache beside the row-buffer model.

    Every completed access stamps its (bank, row); an activation of a
    stamped row within ``duration`` cycles is *highly charged* and is
    granted the reduced tRCD.  The table holds ``entries`` rows with
    least-recently-stamped eviction.  Expired entries are only
    invalidated by eviction or restamping — :meth:`resolve` stays pure
    so the shadow instance resolves identically.
    """

    def __init__(
        self,
        entries: int,
        duration: float,
        full: Tuple[float, float, float],
        charged_t_act: float,
    ) -> None:
        self.entries = entries
        self.duration = duration
        self.full = full
        self.charged = (full[0], charged_t_act, full[2])
        #: (bank, row) -> completion time of the stamping access,
        #: insertion-ordered oldest-stamp-first for eviction.
        self._stamps: Dict[Tuple[int, int], float] = {}

    def resolve(
        self, bank: int, row: int, time: float, outcome: str
    ) -> Tuple[float, float, float]:
        if outcome == "hit":
            # No activation happens; t_act is unused either way.
            return self.full
        stamp = self._stamps.get((bank, row))
        if stamp is not None and time - stamp <= self.duration:
            return self.charged
        return self.full

    def observe(
        self,
        bank: int,
        row: int,
        outcome: str,
        act_start: Optional[float],
        completion: float,
    ) -> None:
        key = (bank, row)
        if key in self._stamps:
            del self._stamps[key]
        self._stamps[key] = completion
        while len(self._stamps) > self.entries:
            del self._stamps[next(iter(self._stamps))]


# -- the backend protocol ---------------------------------------------------------


class DRAMBackend:
    """One pluggable memory technology.

    Subclasses override :meth:`effective` (organization/timing
    transform), :meth:`make_policy` (per-access dynamic timings), and
    :meth:`check` (timing-table legality, run by the self-check CLI and
    CI).  Everything the channel, controller, mapping, and sanitizer
    need is derived from these three hooks, so adding a backend never
    touches the scheduler itself.
    """

    name: str = ""
    description: str = ""

    def effective(self, dram: DRAMConfig) -> DRAMConfig:
        """The organization actually simulated for ``dram``.

        The default is the identity; backends may swap the speed grade,
        bank count, or sense-amp sharing.  Must be pure: the channel,
        the controller's address mapping, and the sanitizer each derive
        it independently and must agree.
        """
        return dram

    def timing_cycles(self, dram: DRAMConfig, core: CoreConfig) -> Dict[str, float]:
        """Base protocol timings in CPU cycles (the policy may refine)."""
        return self.effective(dram).timing_cycles(core)

    def make_policy(
        self, dram: DRAMConfig, core: CoreConfig
    ) -> Optional[RowTimingPolicy]:
        """A fresh per-access timing policy, or None for uniform timings."""
        return None

    def timing_table_ns(self, dram: DRAMConfig) -> Dict[str, float]:
        """Nanosecond timing table for the self-check CLI and docs."""
        part = self.effective(dram).part
        return {
            "t_prer_ns": part.t_prer_ns,
            "t_act_ns": part.t_act_ns,
            "t_rdwr_ns": part.t_rdwr_ns,
            "t_transfer_ns": part.t_transfer_ns,
            "t_packet_ns": part.t_packet_ns,
        }

    def check(self, dram: DRAMConfig, core: CoreConfig) -> List[str]:
        """Validate the backend's timing table; returns problems found.

        The base checks hold for every backend: all timings positive
        and finite, and the protocol latency ordering row hit <
        precharged access < row miss.  Subclasses extend with their own
        legality rules (near faster than far, charged faster than
        uncharged, ...).
        """
        problems: List[str] = []
        table = self.timing_table_ns(dram)
        for label, value in table.items():
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                problems.append(f"{label} is not a finite number: {value!r}")
            elif value <= 0:
                problems.append(f"{label} must be positive, got {value}")
        if not problems:
            eff = self.effective(dram)
            part = eff.part
            if not part.row_hit_ns < part.precharged_ns < part.row_miss_ns:
                problems.append(
                    "latency ordering violated: expected row hit < precharged "
                    f"< row miss, got {part.row_hit_ns} / {part.precharged_ns} "
                    f"/ {part.row_miss_ns} ns"
                )
        return problems


class DRDRAMBackend(DRAMBackend):
    """The paper's Direct Rambus model — the default registered backend.

    A pure pass-through: effective organization, timings, and bank
    behaviour are exactly ``DRAMConfig``'s, and no dynamic policy is
    installed, so the channel's scheduling arithmetic is untouched and
    the statistics stay byte-identical to the pre-registry simulator.
    """

    name = "drdram"
    description = "Direct Rambus 800-40 (paper baseline; shared sense amps)"


class TLDRAMBackend(DRAMBackend):
    """Tiered-Latency DRAM: near/far segments over the DRDRAM channel."""

    name = "tldram"
    description = "TL-DRAM tiered near/far segments with near-segment caching"

    #: near-segment timing scales relative to the configured part;
    #: roughly Lee et al.'s reported reductions (tRCD -45%, tRP -30%).
    NEAR_PRER_SCALE = 0.70
    NEAR_ACT_SCALE = 0.55
    NEAR_RDWR_SCALE = 0.80
    #: far rows each bank's near segment can cache (cache-most-recent).
    NEAR_CACHE_SLOTS = 4

    def near_timings_ns(self, dram: DRAMConfig) -> Tuple[float, float, float]:
        part = dram.part
        return (
            part.t_prer_ns * self.NEAR_PRER_SCALE,
            part.t_act_ns * self.NEAR_ACT_SCALE,
            part.t_rdwr_ns * self.NEAR_RDWR_SCALE,
        )

    def make_policy(self, dram: DRAMConfig, core: CoreConfig) -> TLDRAMPolicy:
        part = dram.part
        far = (
            core.ns_to_cycles(part.t_prer_ns),
            core.ns_to_cycles(part.t_act_ns),
            core.ns_to_cycles(part.t_rdwr_ns),
        )
        near = tuple(core.ns_to_cycles(ns) for ns in self.near_timings_ns(dram))
        return TLDRAMPolicy(
            near_rows=dram.tldram_near_rows,
            far=far,
            near=near,
            cache_far_rows=dram.tldram_near_cache,
            cache_slots=self.NEAR_CACHE_SLOTS,
        )

    def timing_table_ns(self, dram: DRAMConfig) -> Dict[str, float]:
        table = super().timing_table_ns(dram)
        near_prer, near_act, near_rdwr = self.near_timings_ns(dram)
        table.update(
            near_t_prer_ns=near_prer,
            near_t_act_ns=near_act,
            near_t_rdwr_ns=near_rdwr,
        )
        return table

    def check(self, dram: DRAMConfig, core: CoreConfig) -> List[str]:
        problems = super().check(dram, core)
        part = dram.part
        for label, near, far in zip(
            ("t_prer_ns", "t_act_ns", "t_rdwr_ns"),
            self.near_timings_ns(dram),
            (part.t_prer_ns, part.t_act_ns, part.t_rdwr_ns),
        ):
            if not 0 < near < far:
                problems.append(
                    f"near-segment {label} must be positive and faster than "
                    f"the far segment, got near {near} vs far {far}"
                )
        if not 1 <= dram.tldram_near_rows < dram.rows_per_bank:
            problems.append(
                f"tldram_near_rows out of range: {dram.tldram_near_rows} "
                f"of {dram.rows_per_bank} rows"
            )
        return problems


class ChargeCacheBackend(DRAMBackend):
    """ChargeCache: reduced tRCD for recently accessed (highly charged) rows."""

    name = "chargecache"
    description = "ChargeCache highly-charged-row tracking (reduced tRCD on hits)"

    #: activation latency scale for a highly-charged row.
    CHARGED_ACT_SCALE = 0.60

    def charged_t_act_ns(self, dram: DRAMConfig) -> float:
        return dram.part.t_act_ns * self.CHARGED_ACT_SCALE

    def make_policy(self, dram: DRAMConfig, core: CoreConfig) -> ChargeCachePolicy:
        part = dram.part
        full = (
            core.ns_to_cycles(part.t_prer_ns),
            core.ns_to_cycles(part.t_act_ns),
            core.ns_to_cycles(part.t_rdwr_ns),
        )
        return ChargeCachePolicy(
            entries=dram.chargecache_entries,
            duration=core.ns_to_cycles(dram.chargecache_duration_ns),
            full=full,
            charged_t_act=core.ns_to_cycles(self.charged_t_act_ns(dram)),
        )

    def timing_table_ns(self, dram: DRAMConfig) -> Dict[str, float]:
        table = super().timing_table_ns(dram)
        table["charged_t_act_ns"] = self.charged_t_act_ns(dram)
        return table

    def check(self, dram: DRAMConfig, core: CoreConfig) -> List[str]:
        problems = super().check(dram, core)
        charged = self.charged_t_act_ns(dram)
        if not 0 < charged < dram.part.t_act_ns:
            problems.append(
                f"charged t_act must be positive and faster than the full "
                f"activation, got {charged} vs {dram.part.t_act_ns}"
            )
        if dram.chargecache_entries < 1:
            problems.append("chargecache_entries must be >= 1")
        if dram.chargecache_duration_ns <= 0:
            problems.append("chargecache_duration_ns must be positive")
        return problems


#: conventional SDRAM-style timing set used by the DDR-like backend:
#: tRP / tRCD / CAS mapped onto the channel model's PRER / ACT / RD-WR
#: slots, with the same 10 ns data and command packet times so peak
#: bandwidth matches the DRDRAM system and the contrast isolates
#: row-access latency and bank-level parallelism.
DDR_PART = DRDRAMPart(
    name="ddr-like",
    t_prer_ns=20.0,
    t_act_ns=20.0,
    t_rdwr_ns=25.0,
    t_transfer_ns=10.0,
    t_packet_ns=10.0,
)

#: independent banks per device in the DDR-like organization (typical
#: DDR chips expose 4 banks, vs DRDRAM's 32 half-shared ones).
DDR_BANKS_PER_DEVICE = 4


class DDRBackend(DRAMBackend):
    """Simplified DDR-like baseline: few independent banks, no sharing."""

    name = "ddr"
    description = "DDR-like baseline (4 independent banks/device, tRP/tRCD/CAS)"

    def effective(self, dram: DRAMConfig) -> DRAMConfig:
        return replace(
            dram,
            part=DDR_PART,
            banks_per_device=min(dram.banks_per_device, DDR_BANKS_PER_DEVICE),
            shared_sense_amps=False,
        )

    def check(self, dram: DRAMConfig, core: CoreConfig) -> List[str]:
        problems = super().check(dram, core)
        eff = self.effective(dram)
        if eff.shared_sense_amps:
            problems.append("the DDR-like organization must not share sense amps")
        if eff.banks_per_device > DDR_BANKS_PER_DEVICE:
            problems.append(
                f"DDR-like banks_per_device must be <= {DDR_BANKS_PER_DEVICE}, "
                f"got {eff.banks_per_device}"
            )
        return problems


# -- the registry -----------------------------------------------------------------

_REGISTRY: Dict[str, DRAMBackend] = {}


def register_backend(backend: DRAMBackend, replace_existing: bool = False) -> None:
    """Add ``backend`` to the registry under ``backend.name``.

    Duplicate names are rejected (pass ``replace_existing=True`` to
    swap an entry deliberately, e.g. in tests): silently shadowing a
    backend would change what every cached digest *means*.
    """
    name = backend.name
    if not name or not isinstance(name, str):
        raise BackendError(f"backend must carry a non-empty name, got {name!r}")
    if name in _REGISTRY and not replace_existing:
        raise BackendError(
            f"a DRAM backend named {name!r} is already registered "
            f"({type(_REGISTRY[name]).__name__})"
        )
    _REGISTRY[name] = backend


def unregister_backend(name: str) -> None:
    """Remove a registered backend (test isolation)."""
    _REGISTRY.pop(name, None)


def has_backend(name: str) -> bool:
    return name in _REGISTRY


def get_backend(name: str) -> DRAMBackend:
    """The registered backend called ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown DRAM backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, sorted (registration-order independent)."""
    return tuple(sorted(_REGISTRY))


register_backend(DRDRAMBackend())
register_backend(TLDRAMBackend())
register_backend(ChargeCacheBackend())
register_backend(DDRBackend())


# -- self-check CLI ----------------------------------------------------------------


def check_backend(name: str, dram: Optional[DRAMConfig] = None) -> List[str]:
    """Validate one registered backend's timing table at ``dram``."""
    backend = get_backend(name)
    if dram is None:
        dram = replace(DRAMConfig(), backend=name)
    return backend.check(dram, CoreConfig())


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.dram.backends``: validate every timing table.

    Prints each registered backend's nanosecond timing table and runs
    its legality checks (positive, finite, internally consistent);
    exits non-zero on the first inconsistent backend — wired into CI so
    a backend can never land with a nonsensical timing table.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.dram.backends",
        description="Validate registered DRAM backend timing tables.",
    )
    parser.add_argument(
        "--backend",
        action="append",
        default=None,
        metavar="NAME",
        choices=sorted(_REGISTRY),
        help="check only this backend (repeatable; default: all registered)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print problems only, not the timing tables",
    )
    args = parser.parse_args(argv)
    names = args.backend if args.backend else list(backend_names())
    failures = 0
    for name in names:
        backend = get_backend(name)
        dram = replace(DRAMConfig(), backend=name)
        problems = backend.check(dram, CoreConfig())
        if not args.quiet:
            print(f"{name}: {backend.description}")
            for label, value in sorted(backend.timing_table_ns(dram).items()):
                print(f"  {label:<18} {value:8.2f}")
        if problems:
            failures += 1
            for problem in problems:
                print(f"{name}: PROBLEM: {problem}", file=sys.stderr)
        else:
            print(f"{name}: timing table ok")
    return 1 if failures else 0

