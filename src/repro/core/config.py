"""Configuration dataclasses for every simulated component.

The defaults reproduce the paper's baseline target system (Section 3.1):
a 1.6 GHz, 4-wide out-of-order core with a 64-entry instruction window,
64KB split 2-way L1 caches, a 1MB 4-way 12-cycle on-chip L2, and a
256MB Direct Rambus memory system with four channels of 800-40 devices,
treated as a single simply-interleaved logical channel.

All DRAM timings are expressed in nanoseconds in the configuration and
converted to CPU cycles by the simulator using ``CoreConfig.clock_ghz``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Dict

__all__ = [
    "CoreConfig",
    "CacheConfig",
    "DRDRAMPart",
    "PART_800_40",
    "PART_800_50",
    "PART_800_34",
    "DRAM_PARTS",
    "DRAMConfig",
    "PrefetchConfig",
    "SystemConfig",
    "ConfigError",
]


class ConfigError(ValueError):
    """Raised when a configuration is internally inconsistent."""


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _log2(value: int, name: str) -> int:
    if not _is_pow2(value):
        raise ConfigError(f"{name} must be a power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class CoreConfig:
    """Timing model of the out-of-order processor core.

    The model matches the paper's SimpleScalar/21364-like configuration:
    a Register-Update-Unit style window bounds how far ahead of the
    oldest in-flight memory operation new operations may issue, and the
    L1 data cache MSHR count bounds outstanding misses.
    """

    clock_ghz: float = 1.6
    issue_width: int = 4
    window_size: int = 64
    lsq_size: int = 64
    #: latency (cycles) of an L1 hit as seen by a dependent instruction.
    l1_hit_latency: int = 3

    def __post_init__(self) -> None:
        if self.clock_ghz <= 0:
            raise ConfigError("clock_ghz must be positive")
        if self.issue_width < 1:
            raise ConfigError("issue_width must be >= 1")
        if self.window_size < 1:
            raise ConfigError("window_size must be >= 1")
        if self.lsq_size < 1:
            raise ConfigError("lsq_size must be >= 1")

    @property
    def cycle_ns(self) -> float:
        """Duration of one CPU cycle in nanoseconds."""
        return 1.0 / self.clock_ghz

    def ns_to_cycles(self, ns: float) -> float:
        """Convert a duration in nanoseconds to CPU cycles."""
        return ns * self.clock_ghz


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    block_bytes: int
    hit_latency: int
    mshrs: int = 8
    writeback: bool = True

    def __post_init__(self) -> None:
        if self.assoc < 1:
            # checked before num_sets is derived: a zero associativity
            # used to surface as a bare ZeroDivisionError deep inside
            # the divisibility check below.
            raise ConfigError(f"assoc must be >= 1, got {self.assoc}")
        if self.size_bytes < 1:
            raise ConfigError(f"size_bytes must be >= 1, got {self.size_bytes}")
        if self.hit_latency < 0:
            raise ConfigError(f"hit_latency must be >= 0, got {self.hit_latency}")
        if not _is_pow2(self.block_bytes):
            raise ConfigError(f"block size must be a power of 2, got {self.block_bytes}")
        if self.size_bytes % (self.block_bytes * self.assoc) != 0:
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"block*assoc ({self.block_bytes}*{self.assoc})"
            )
        if not _is_pow2(self.num_sets):
            raise ConfigError(f"number of sets must be a power of 2, got {self.num_sets}")
        if self.mshrs < 1:
            raise ConfigError("mshrs must be >= 1")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.block_bytes * self.assoc)

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def block_offset_bits(self) -> int:
        return _log2(self.block_bytes, "block_bytes")

    @property
    def index_bits(self) -> int:
        return _log2(self.num_sets, "num_sets")

    def block_address(self, addr: int) -> int:
        """Block-aligned address containing ``addr``."""
        return addr & ~(self.block_bytes - 1)

    def set_index(self, addr: int) -> int:
        return (addr >> self.block_offset_bits) & (self.num_sets - 1)


@dataclass(frozen=True)
class DRDRAMPart:
    """Timing parameters of one Direct Rambus device speed grade.

    The paper's baseline is the 800-40 256-Mbit part (Section 2.2):
    PRER 20 ns, ACT 17.5 ns, RD/WR 30 ns, 10 ns per dualoct transfer,
    so a row-buffer hit costs 40 ns, an access to a precharged bank
    57.5 ns, and a full row miss 77.5 ns.  Command packets occupy their
    (row or column) control bus for one packet time (10 ns).
    """

    name: str
    t_prer_ns: float = 20.0
    t_act_ns: float = 17.5
    t_rdwr_ns: float = 30.0
    t_transfer_ns: float = 10.0
    t_packet_ns: float = 10.0
    data_rate_mhz: int = 800

    def __post_init__(self) -> None:
        for label, value in (
            ("t_prer_ns", self.t_prer_ns),
            ("t_act_ns", self.t_act_ns),
            ("t_rdwr_ns", self.t_rdwr_ns),
            ("t_transfer_ns", self.t_transfer_ns),
            ("t_packet_ns", self.t_packet_ns),
        ):
            if value <= 0:
                raise ConfigError(f"{label} must be positive")

    @property
    def row_hit_ns(self) -> float:
        """Contention-free latency of a row-buffer hit (one dualoct)."""
        return self.t_rdwr_ns + self.t_transfer_ns

    @property
    def precharged_ns(self) -> float:
        """Contention-free latency when the bank is already precharged."""
        return self.t_act_ns + self.row_hit_ns

    @property
    def row_miss_ns(self) -> float:
        """Contention-free latency of a full row-buffer miss."""
        return self.t_prer_ns + self.precharged_ns


#: Baseline 800-40 part used throughout the paper.
PART_800_40 = DRDRAMPart(name="800-40")
#: Published slower speed grade (50 ns row hit), Section 4.6.
PART_800_50 = DRDRAMPart(name="800-50", t_prer_ns=22.5, t_act_ns=22.5, t_rdwr_ns=40.0)
#: Hypothetical faster part derived from 45-600 latencies, Section 4.6.
PART_800_34 = DRDRAMPart(name="800-34", t_prer_ns=17.0, t_act_ns=15.0, t_rdwr_ns=24.0)

DRAM_PARTS = {part.name: part for part in (PART_800_40, PART_800_50, PART_800_34)}


def _default_backend() -> str:
    """DRAM backend selected by ``REPRO_BACKEND``, else the paper's DRDRAM.

    A ``default_factory`` rather than a plain default so ``--backend``
    (which exports ``REPRO_BACKEND``) threads through every preset and
    experiment without touching their construction sites; an explicit
    ``backend=`` argument always wins.
    """
    return os.environ.get("REPRO_BACKEND", "").strip() or "drdram"


#: Backend-selection fields introduced after the golden baselines were
#: pinned.  :meth:`SystemConfig.digest` prunes each of these from the
#: hashed payload when it still holds the value below, so every config
#: expressible before the backend registry existed keeps its exact
#: pre-registry digest — the on-disk result cache and the service
#: dedup store stay warm across the refactor — while
#: any non-default backend (or tuning knob) yields a distinct digest.
_DRAM_DIGEST_DEFAULTS: Dict[str, object] = {
    "backend": "drdram",
    "tldram_near_rows": 64,
    "tldram_near_cache": True,
    "chargecache_entries": 128,
    "chargecache_duration_ns": 8000.0,
}


@dataclass(frozen=True)
class DRAMConfig:
    """Memory-system organization (Direct Rambus by default).

    ``channels`` physical channels are ganged into one simply-interleaved
    logical channel ``channels`` dualocts wide (Section 3.1).  The total
    number of devices in the system is held constant when the channel
    count is swept, matching the methodology of Section 3.3.

    ``backend`` names an entry in the DRAM backend registry
    (:mod:`repro.dram.backends`): the protocol timings, row-buffer
    policy, effective geometry, and sanitizer legality rules applied to
    this organization.  The default ``"drdram"`` backend reproduces the
    paper's Direct Rambus model exactly.
    """

    channels: int = 4
    total_devices: int = 8
    banks_per_device: int = 32
    rows_per_bank: int = 512
    row_bytes: int = 2048
    dualoct_bytes: int = 16
    part: DRDRAMPart = PART_800_40
    #: "base" (Figure 3a) or "xor" (Figure 3b) physical address mapping.
    mapping: str = "xor"
    #: "open" keeps the most recent row latched; "closed" precharges after
    #: every access (Section 2.2).
    row_policy: str = "open"
    #: model the shared sense-amp restriction between adjacent banks.
    shared_sense_amps: bool = True
    #: registered DRAM backend: "drdram", "tldram", "chargecache", "ddr".
    backend: str = field(default_factory=_default_backend)
    #: TL-DRAM: rows per bank in the fast near segment (Lee et al.).
    tldram_near_rows: int = 64
    #: TL-DRAM: cache recently activated far rows in the near segment.
    tldram_near_cache: bool = True
    #: ChargeCache: capacity of the highly-charged-row address cache.
    chargecache_entries: int = 128
    #: ChargeCache: caching duration — how long a row stays highly
    #: charged (and activates with reduced tRCD) after an access.
    chargecache_duration_ns: float = 8000.0

    def __post_init__(self) -> None:
        _log2(self.channels, "channels")
        _log2(self.banks_per_device, "banks_per_device")
        _log2(self.rows_per_bank, "rows_per_bank")
        _log2(self.row_bytes, "row_bytes")
        _log2(self.dualoct_bytes, "dualoct_bytes")
        if self.devices_per_channel < 1:
            raise ConfigError("need at least one device per channel")
        if not _is_pow2(self.devices_per_channel):
            raise ConfigError("devices per channel must be a power of two")
        if self.mapping not in ("base", "xor"):
            raise ConfigError(f"unknown mapping {self.mapping!r}")
        if self.row_policy not in ("open", "closed"):
            raise ConfigError(f"unknown row policy {self.row_policy!r}")
        # Imported lazily: the registry module imports this one.
        from repro.dram.backends import backend_names, has_backend

        if not has_backend(self.backend):
            raise ConfigError(
                f"unknown DRAM backend {self.backend!r}; registered backends: "
                f"{', '.join(backend_names())}"
            )
        if not 1 <= self.tldram_near_rows < self.rows_per_bank:
            raise ConfigError(
                f"tldram_near_rows must be in [1, rows_per_bank), got "
                f"{self.tldram_near_rows} of {self.rows_per_bank}"
            )
        if self.chargecache_entries < 1:
            raise ConfigError("chargecache_entries must be >= 1")
        if self.chargecache_duration_ns <= 0:
            raise ConfigError("chargecache_duration_ns must be positive")

    @property
    def devices_per_channel(self) -> int:
        return max(1, self.total_devices // self.channels)

    @property
    def logical_row_bytes(self) -> int:
        """Bytes per row of the ganged logical channel."""
        return self.row_bytes * self.channels

    @property
    def logical_dualoct_bytes(self) -> int:
        """Bytes transferred per 10 ns data packet on the logical channel."""
        return self.dualoct_bytes * self.channels

    @property
    def num_logical_banks(self) -> int:
        return self.banks_per_device * self.devices_per_channel

    @property
    def capacity_bytes(self) -> int:
        return (
            self.channels
            * self.devices_per_channel
            * self.banks_per_device
            * self.rows_per_bank
            * self.row_bytes
        )

    @property
    def peak_bandwidth_gbs(self) -> float:
        """Peak data bandwidth of the ganged logical channel in GB/s.

        One dualoct (16 bytes) per 10 ns per physical channel = 1.6 GB/s
        per channel, matching the Direct Rambus specification.
        """
        return self.channels * self.dualoct_bytes / self.part.t_transfer_ns

    def transfer_packets(self, nbytes: int) -> int:
        """Number of data packets needed to move ``nbytes``."""
        return max(1, math.ceil(nbytes / self.logical_dualoct_bytes))

    def timing_cycles(self, core: CoreConfig) -> Dict[str, float]:
        """The part's five timings converted to CPU cycles.

        The channel model and the sanitizer's shadow model both read
        their timings from here, so the two always compare the exact
        same float values (the shadow needs no epsilon).
        """
        part = self.part
        return {
            "t_prer": core.ns_to_cycles(part.t_prer_ns),
            "t_act": core.ns_to_cycles(part.t_act_ns),
            "t_rdwr": core.ns_to_cycles(part.t_rdwr_ns),
            "t_transfer": core.ns_to_cycles(part.t_transfer_ns),
            "t_packet": core.ns_to_cycles(part.t_packet_ns),
        }


@dataclass(frozen=True)
class PrefetchConfig:
    """Scheduled region prefetch engine (Section 4).

    On an L2 demand miss, the aligned ``region_bytes`` region around the
    miss is inserted into a ``queue_entries``-deep queue of region
    bitmaps.  Blocks of queued regions are prefetched one at a time,
    only when the memory channel is otherwise idle (unless ``scheduled``
    is False, reproducing the naive scheme of Table 4), and are inserted
    into the L2 at ``insertion`` recency priority.
    """

    enabled: bool = False
    #: "region" (the paper's engine) or "stride" (the related-work
    #: reference-prediction-table baseline, Section 5).
    engine: str = "region"
    region_bytes: int = 4096
    queue_entries: int = 16
    #: "fifo" or "lifo" region prioritization/replacement (Section 4.2).
    policy: str = "lifo"
    #: issue prefetches only into idle channel time.
    scheduled: bool = True
    #: prefer regions whose next block maps to an open DRAM row.
    bank_aware: bool = True
    #: L2 recency-chain insertion point: "mru", "smru", "slru", or "lru".
    insertion: str = "lru"
    #: re-promote a queued region to top priority when a demand miss
    #: lands inside it (LIFO prioritization algorithm, Section 4.2).
    promote_on_miss: bool = True
    #: optional accuracy throttle (Section 4.4 future work): disable
    #: prefetching while measured accuracy over the last
    #: ``throttle_window`` useful-or-evicted prefetches falls below
    #: ``throttle_min_accuracy``.  Disabled by default, as in the paper.
    throttle: bool = False
    throttle_min_accuracy: float = 0.05
    throttle_window: int = 512

    def __post_init__(self) -> None:
        if self.engine not in ("region", "stride"):
            raise ConfigError(f"unknown prefetch engine {self.engine!r}")
        _log2(self.region_bytes, "region_bytes")
        if self.queue_entries < 1:
            raise ConfigError("queue_entries must be >= 1")
        if self.policy not in ("fifo", "lifo"):
            raise ConfigError(f"unknown prefetch policy {self.policy!r}")
        if self.insertion not in ("mru", "smru", "slru", "lru"):
            raise ConfigError(f"unknown insertion priority {self.insertion!r}")
        if not 0.0 <= self.throttle_min_accuracy <= 1.0:
            raise ConfigError("throttle_min_accuracy must be in [0, 1]")
        if self.throttle_window < 1:
            raise ConfigError("throttle_window must be >= 1")


def _default_l1i() -> CacheConfig:
    return CacheConfig(size_bytes=64 * 1024, assoc=2, block_bytes=64, hit_latency=1, mshrs=4)


def _default_l1d() -> CacheConfig:
    return CacheConfig(size_bytes=64 * 1024, assoc=2, block_bytes=64, hit_latency=3, mshrs=8)


def _default_l2() -> CacheConfig:
    return CacheConfig(size_bytes=1024 * 1024, assoc=4, block_bytes=64, hit_latency=12, mshrs=16)


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated system."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheConfig = field(default_factory=_default_l1i)
    l1d: CacheConfig = field(default_factory=_default_l1d)
    l2: CacheConfig = field(default_factory=_default_l2)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    #: idealizations used by Figure 1 and Figure 5.
    perfect_l2: bool = False
    perfect_memory: bool = False
    #: honour software-prefetch trace records (Section 4.7); when False
    #: they are discarded at fetch, as in the paper's main experiments.
    software_prefetch: bool = False

    def __post_init__(self) -> None:
        if self.l2.block_bytes < self.l1d.block_bytes:
            raise ConfigError("L2 block size must be >= L1 block size")
        if self.l2.block_bytes % self.l1d.block_bytes != 0:
            raise ConfigError("L2 block size must be a multiple of the L1 block size")
        if self.prefetch.enabled and self.prefetch.region_bytes < self.l2.block_bytes:
            raise ConfigError("prefetch region must be >= one L2 block")

    def validate(self) -> "SystemConfig":
        """Fail fast, with actionable messages, on unusable systems.

        The component ``__post_init__`` hooks reject locally malformed
        fields at construction; ``validate()`` re-checks the properties
        the whole simulator relies on — so a config assembled through
        ``dataclasses.replace`` chains, deserialization, or any path
        that sidesteps a constructor still cannot reach the simulator
        and die later as a deep ``ZeroDivisionError`` or, worse,
        produce silently garbage statistics.  :class:`System` calls
        this from its constructor; returns ``self`` so call sites can
        chain it.
        """
        for name, cache in (("l1i", self.l1i), ("l1d", self.l1d), ("l2", self.l2)):
            if cache.assoc < 1:
                raise ConfigError(f"{name}: assoc must be >= 1, got {cache.assoc}")
            if not _is_pow2(cache.size_bytes):
                raise ConfigError(
                    f"{name}: cache size must be a power of two, got "
                    f"{cache.size_bytes} bytes"
                )
            if not _is_pow2(cache.block_bytes):
                raise ConfigError(
                    f"{name}: block size must be a power of two, got "
                    f"{cache.block_bytes} bytes"
                )
            if cache.block_bytes > cache.size_bytes:
                raise ConfigError(
                    f"{name}: block size {cache.block_bytes} exceeds the cache "
                    f"size {cache.size_bytes}"
                )
            if not _is_pow2(cache.num_sets):
                raise ConfigError(
                    f"{name}: size/assoc/block give {cache.num_sets} sets, "
                    "which is not a power of two"
                )
            if cache.mshrs < 1:
                raise ConfigError(f"{name}: mshrs must be >= 1, got {cache.mshrs}")
            if cache.hit_latency < 0:
                raise ConfigError(
                    f"{name}: hit_latency must be >= 0, got {cache.hit_latency}"
                )
        if self.dram.channels < 1 or not _is_pow2(self.dram.channels):
            raise ConfigError(
                f"dram: channels must be a positive power of two, got "
                f"{self.dram.channels}"
            )
        if self.dram.banks_per_device < 1 or not _is_pow2(self.dram.banks_per_device):
            raise ConfigError(
                f"dram: banks_per_device must be a positive power of two, got "
                f"{self.dram.banks_per_device}"
            )
        if self.dram.rows_per_bank < 1 or not _is_pow2(self.dram.rows_per_bank):
            raise ConfigError(
                f"dram: rows_per_bank must be a positive power of two, got "
                f"{self.dram.rows_per_bank}"
            )
        from repro.dram.backends import backend_names, has_backend

        if not has_backend(self.dram.backend):
            raise ConfigError(
                f"dram: unknown backend {self.dram.backend!r}; registered "
                f"backends: {', '.join(backend_names())}"
            )
        if self.l2.block_bytes < self.l1d.block_bytes:
            raise ConfigError(
                f"L2 block size ({self.l2.block_bytes}) must be >= the L1 "
                f"block size ({self.l1d.block_bytes})"
            )
        if self.prefetch.enabled:
            if not _is_pow2(self.prefetch.region_bytes):
                raise ConfigError(
                    f"prefetch: region_bytes must be a power of two, got "
                    f"{self.prefetch.region_bytes}"
                )
            if self.prefetch.region_bytes < self.l2.block_bytes:
                raise ConfigError(
                    f"prefetch: region ({self.prefetch.region_bytes} bytes) is "
                    f"smaller than one L2 block ({self.l2.block_bytes} bytes); "
                    "grow the region or shrink the block"
                )
        return self

    def digest(self) -> str:
        """Stable content hash of this configuration.

        Equal field values produce equal digests across processes and
        interpreter sessions (canonical JSON over the dataclass tree,
        SHA-256); the experiment runner keys its on-disk result cache
        on it.

        Backend-selection fields added after the golden baselines were
        pinned are pruned from the payload while they hold their
        original defaults (see :data:`_DRAM_DIGEST_DEFAULTS`), so the
        default DRDRAM system hashes exactly as it did before the
        backend registry existed and every non-default backend hashes
        distinctly.

        The instance is frozen, so the digest is computed once and kept
        on it (outside the dataclass fields: equality, ``asdict`` and
        ``replace`` never see it).
        """
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        tree = asdict(self)
        dram = tree.get("dram")
        if isinstance(dram, dict):
            for key, default in _DRAM_DIGEST_DEFAULTS.items():
                if dram.get(key) == default:
                    dram.pop(key, None)
        payload = json.dumps(tree, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
        object.__setattr__(self, "_digest", digest)
        return digest

    # -- convenience builders -------------------------------------------------

    def with_block_size(self, block_bytes: int) -> "SystemConfig":
        """Copy of this config with a different L2 block size."""
        return replace(self, l2=replace(self.l2, block_bytes=block_bytes))

    def with_channels(self, channels: int) -> "SystemConfig":
        """Copy of this config with a different physical channel count."""
        return replace(self, dram=replace(self.dram, channels=channels))

    def with_mapping(self, mapping: str) -> "SystemConfig":
        """Copy of this config with a different address mapping."""
        return replace(self, dram=replace(self.dram, mapping=mapping))

    def with_l2_size(self, size_bytes: int) -> "SystemConfig":
        """Copy of this config with a different L2 capacity."""
        return replace(self, l2=replace(self.l2, size_bytes=size_bytes))

    def with_prefetch(self, **kwargs) -> "SystemConfig":
        """Copy of this config with prefetch fields overridden."""
        kwargs.setdefault("enabled", True)
        return replace(self, prefetch=replace(self.prefetch, **kwargs))

    def with_part(self, part: DRDRAMPart) -> "SystemConfig":
        """Copy of this config with a different DRDRAM speed grade."""
        return replace(self, dram=replace(self.dram, part=part))

    def with_backend(self, backend: str) -> "SystemConfig":
        """Copy of this config running on a different DRAM backend."""
        return replace(self, dram=replace(self.dram, backend=backend))

    def with_clock(self, clock_ghz: float) -> "SystemConfig":
        """Copy of this config with a different core clock."""
        return replace(self, core=replace(self.core, clock_ghz=clock_ghz))
