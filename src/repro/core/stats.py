"""Simulation statistics.

``SimStats`` is the single mutable counter bundle threaded through the
simulator; every component increments its own fields.  Derived metrics
(miss rates, channel utilizations, prefetch accuracy, IPC) are exposed
as properties so they are always consistent with the raw counters.

The metric definitions follow the paper:

* **L2 miss rate** — fraction of L2 demand accesses that required a
  DRAM demand fetch (a demand that merges with an in-flight prefetch
  counts as a hit, since it does not issue a new DRAM access).
* **L2 miss latency** — mean cycles from an L2 demand miss issuing to
  the block's arrival, averaged over demand fetches.
* **Command-channel utilization** — the time occupied by command
  packets (PRER/ACT on the row bus, RD/WR on the column bus) as a
  fraction of elapsed time (Section 4.4).
* **Data-channel utilization** — fraction of cycles during which data
  packets are transmitted.
* **Prefetch accuracy** — fraction of prefetched blocks that are
  referenced by a demand access before eviction.

Why did a number change?  ``python -m repro.core.stats diff A.json
B.json`` compares two golden files (``tests/golden/*.json``) or two
``SimStats.to_dict()`` files point by point: every changed counter, old
and new, with its relative change, then the headline metrics derived
from them that changed.  It exits 1 when anything differs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CacheStats",
    "DRAMClassStats",
    "SimStats",
    "diff_points",
    "harmonic_mean",
    "load_points",
    "main",
    "merge_stats",
]


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean, the paper's aggregate for IPC across benchmarks."""
    values = list(values)
    if not values:
        raise ValueError("harmonic_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("harmonic_mean requires positive values")
    return len(values) / sum(1.0 / v for v in values)


@dataclass
class CacheStats:
    """Counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    #: demand accesses that merged with an in-flight fill (MSHR hit).
    delayed_hits: int = 0
    misses: int = 0
    writebacks: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "CacheStats":
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


@dataclass
class DRAMClassStats:
    """Row-buffer outcome counters for one access class.

    The paper reports row-buffer hit rates separately for demand reads,
    writebacks, and prefetches (Sections 3.4 and 4.2).
    """

    accesses: int = 0
    row_hits: int = 0
    #: bank was precharged (empty row buffer): ACT+RD/WR only.
    row_empty: int = 0
    #: open-row conflict: full PRER+ACT+RD/WR sequence.
    row_misses: int = 0
    #: row misses caused purely by the shared sense-amp restriction
    #: (the previous access to this bank used the same row, but a
    #: neighbouring bank's activation flushed it).
    adjacency_flushes: int = 0

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "DRAMClassStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "DRAMClassStats":
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


@dataclass
class SimStats:
    """All counters produced by one simulation run."""

    # -- core ---------------------------------------------------------------
    instructions: int = 0
    cycles: float = 0.0
    loads: int = 0
    stores: int = 0
    ifetches: int = 0
    software_prefetches: int = 0

    # -- caches ---------------------------------------------------------------
    l1i: CacheStats = field(default_factory=CacheStats)
    l1d: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)

    #: misses that had to wait for a free L1 MSHR (structural stalls).
    l1d_mshr_stalls: int = 0
    l1i_mshr_stalls: int = 0

    #: cycles spent by demand L2 misses waiting for DRAM (sum / count).
    l2_demand_fetches: int = 0
    l2_miss_latency_sum: float = 0.0

    # -- DRAM -----------------------------------------------------------------
    dram_reads: DRAMClassStats = field(default_factory=DRAMClassStats)
    dram_writebacks: DRAMClassStats = field(default_factory=DRAMClassStats)
    dram_prefetches: DRAMClassStats = field(default_factory=DRAMClassStats)
    #: busy time (CPU cycles) accumulated on each bus of the logical channel.
    row_bus_busy: float = 0.0
    col_bus_busy: float = 0.0
    data_bus_busy: float = 0.0
    data_packets: int = 0

    # -- prefetch engine -------------------------------------------------------
    prefetches_issued: int = 0
    prefetches_useful: int = 0
    #: demand accesses that merged with an in-flight prefetch.
    prefetches_late: int = 0
    prefetched_blocks_evicted_unused: int = 0
    prefetch_regions_enqueued: int = 0
    prefetch_regions_replaced: int = 0
    prefetch_regions_completed: int = 0
    prefetch_regions_promoted: int = 0
    prefetches_throttled: int = 0

    # -- derived ---------------------------------------------------------------
    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l2_miss_rate(self) -> float:
        """Fraction of L2 demand accesses that required a DRAM fetch."""
        return self.l2_demand_fetches / self.l2.accesses if self.l2.accesses else 0.0

    @property
    def avg_l2_miss_latency(self) -> float:
        if not self.l2_demand_fetches:
            return 0.0
        return self.l2_miss_latency_sum / self.l2_demand_fetches

    @property
    def dram_accesses(self) -> int:
        return (
            self.dram_reads.accesses
            + self.dram_writebacks.accesses
            + self.dram_prefetches.accesses
        )

    @property
    def command_channel_utilization(self) -> float:
        if not self.cycles:
            return 0.0
        return min(1.0, (self.row_bus_busy + self.col_bus_busy) / self.cycles)

    @property
    def data_channel_utilization(self) -> float:
        if not self.cycles:
            return 0.0
        return min(1.0, self.data_bus_busy / self.cycles)

    @property
    def prefetch_accuracy(self) -> float:
        """Useful fraction of issued prefetches."""
        if not self.prefetches_issued:
            return 0.0
        return self.prefetches_useful / self.prefetches_issued

    @property
    def overall_row_hit_rate(self) -> float:
        # Summed directly: this is read per report row, and building a
        # throwaway DRAMClassStats just to divide two sums is waste.
        classes = (self.dram_reads, self.dram_writebacks, self.dram_prefetches)
        accesses = sum(cls.accesses for cls in classes)
        if not accesses:
            return 0.0
        return sum(cls.row_hits for cls in classes) / accesses

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of headline metrics, for reports and tests."""
        return {
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "l1d_miss_rate": self.l1d.miss_rate,
            "l1i_miss_rate": self.l1i.miss_rate,
            "l1d_mshr_stalls": self.l1d_mshr_stalls,
            "l1i_mshr_stalls": self.l1i_mshr_stalls,
            "l2_accesses": self.l2.accesses,
            "l2_miss_rate": self.l2_miss_rate,
            "avg_l2_miss_latency": self.avg_l2_miss_latency,
            "dram_accesses": self.dram_accesses,
            "read_row_hit_rate": self.dram_reads.row_hit_rate,
            "writeback_row_hit_rate": self.dram_writebacks.row_hit_rate,
            "prefetch_row_hit_rate": self.dram_prefetches.row_hit_rate,
            "command_utilization": self.command_channel_utilization,
            "data_utilization": self.data_channel_utilization,
            "prefetches_issued": self.prefetches_issued,
            "prefetch_accuracy": self.prefetch_accuracy,
        }

    def reset(self) -> None:
        """Zero every counter in place (the object identity is shared by
        all simulator components, so warm-up resets must mutate)."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (CacheStats, DRAMClassStats)):
                for inner in fields(value):
                    setattr(value, inner.name, 0)
            elif isinstance(value, float):
                setattr(self, f.name, 0.0)
            else:
                setattr(self, f.name, 0)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form of every counter (JSON-serializable).

        The round trip through :meth:`from_dict` is exact — ints stay
        ints and floats are preserved bit for bit — so results restored
        from the experiment runner's on-disk cache are indistinguishable
        from freshly simulated ones.
        """
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (CacheStats, DRAMClassStats)):
                out[f.name] = value.to_dict()
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimStats":
        """Inverse of :meth:`to_dict`; unknown keys are ignored and
        missing ones keep their defaults (a version bump invalidates
        cached results, so this only has to absorb additive drift)."""
        stats = cls()
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            current = getattr(stats, f.name)
            if isinstance(current, (CacheStats, DRAMClassStats)):
                setattr(stats, f.name, type(current).from_dict(value))
            else:
                setattr(stats, f.name, value)
        return stats

    def merge(self, other: "SimStats") -> None:
        """Accumulate another run's counters into this one.

        Cycle counts add, which makes the merged ``ipc`` a weighted
        (by cycles) aggregate; the experiment layer uses per-run IPCs
        and harmonic means instead, as the paper does.
        """
        for f in fields(self):
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if isinstance(mine, (CacheStats, DRAMClassStats)):
                mine.merge(theirs)
            else:
                setattr(self, f.name, mine + theirs)


def merge_stats(runs: List[SimStats]) -> SimStats:
    """Sum a list of runs into one ``SimStats``."""
    total = SimStats()
    for run in runs:
        total.merge(run)
    return total


# -- diff ---------------------------------------------------------------------

#: derived metrics shown before -> after wherever they changed.
DIFF_DERIVED = ("ipc", "avg_l2_miss_latency", "overall_row_hit_rate", "prefetch_accuracy")


def load_points(path) -> Dict[str, Dict[str, object]]:
    """The statistics in a JSON file, by point label.

    A golden file maps sections to benchmarks to ``SimStats.to_dict()``
    beside plain metadata; its points are labelled ``section/benchmark``.
    A single ``SimStats.to_dict()`` file is one point labelled ``stats``.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    points: Dict[str, Dict[str, object]] = {}
    if isinstance(data, dict):
        if "cycles" in data:
            return {"stats": data}
        for section, entries in data.items():
            if isinstance(entries, dict):
                points.update(
                    (f"{section}/{benchmark}", stats)
                    for benchmark, stats in entries.items()
                    if isinstance(stats, dict) and "cycles" in stats
                )
    if not points:
        raise ValueError(f"{path}: neither a golden file nor a SimStats file")
    return points


def _flat(stats: Dict[str, object], prefix: str = "") -> Dict[str, object]:
    out: Dict[str, object] = {}
    for key, value in stats.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _change(name: str, old, new) -> str:
    relative = f"{(new - old) / abs(old) * 100:+.3g}%" if old else "from 0"
    return f"  {name}: {old!r} -> {new!r} ({relative})"


def diff_points(
    before: Dict[str, Dict[str, object]], after: Dict[str, Dict[str, object]]
) -> Tuple[List[str], int, int]:
    """Report lines for every changed point, and the identical and
    changed point counts; a point on one side only counts as changed."""
    lines: List[str] = []
    identical = changed = 0
    for label in sorted(before.keys() | after.keys()):
        old, new = before.get(label), after.get(label)
        if old == new:
            identical += 1
            continue
        changed += 1
        if old is None or new is None:
            lines.append(f"{label}: only in {'B' if old is None else 'A'}")
            continue
        flat_old, flat_new = _flat(old), _flat(new)
        fields_changed = [
            key
            for key in sorted(flat_old.keys() | flat_new.keys())
            if flat_old.get(key) != flat_new.get(key)
        ]
        lines.append(f"{label}: {len(fields_changed)} field(s) changed")
        for key in fields_changed:
            lines.append(_change(key, flat_old.get(key, 0), flat_new.get(key, 0)))
        stats_old, stats_new = SimStats.from_dict(old), SimStats.from_dict(new)
        for name in DIFF_DERIVED:
            derived_old, derived_new = getattr(stats_old, name), getattr(stats_new, name)
            if derived_old != derived_new:
                lines.append(_change(f"{name} (derived)", derived_old, derived_new))
    return lines, identical, changed


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.core.stats",
        description="Compare simulation statistics point by point.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    diff = commands.add_parser(
        "diff",
        help="report every changed point and field of B against A; "
        "exit 1 if anything differs",
    )
    diff.add_argument("a", metavar="A.json", help="golden or SimStats file (before)")
    diff.add_argument("b", metavar="B.json", help="golden or SimStats file (after)")
    args = parser.parse_args(argv)
    try:
        before, after = load_points(args.a), load_points(args.b)
    except (OSError, ValueError) as error:
        parser.error(str(error))
    lines, identical, changed = diff_points(before, after)
    for line in lines:
        print(line)
    print(f"{identical} identical, {changed} changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
