"""The fast kernel's one process-wide memo: the machine after a prefix.

Every warm-up trace opens with the same records at one L2 size (the
cache filler, :func:`repro.workloads.registry.build_warmup_trace`), and
its :attr:`~repro.cpu.trace.Trace.shared_prefix` says how many.  A
:class:`~repro.kernel.fastcore.FastSystem` that has not run yet looks
its warm-up's prefix up in :data:`SNAPSHOTS`: on a hit it restores the
machine as it stands after the prefix and simulates only the rest; on a
miss it simulates the prefix, stores a :class:`Snapshot` and carries on.
The key is the configuration's digest plus a digest of the prefix's
five columns, so two points share a snapshot exactly when their
machines went through the same records.

A snapshot is compact and shares nothing with a live system: the three
caches are flat ``array``/``bytes`` columns, everything else is one
pickled blob, and every restore builds fresh lines from them.  The memo
is an LRU bounded in bytes (:data:`SNAPSHOT_BYTES`), so it cannot grow
with the number of configurations a process runs.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from collections import OrderedDict
from itertools import chain, islice
from operator import itemgetter
from typing import Optional, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.cpu.trace import Trace

__all__ = [
    "SNAPSHOTS",
    "SNAPSHOT_BYTES",
    "Snapshot",
    "SnapshotMemo",
    "flatten",
    "prefix_key",
    "unflatten",
]

#: bytes of snapshots one process keeps: a snapshot of the default
#: machine (1 MB L2) takes ~0.3 MB, one with a 4 MB L2 ~1.2 MB.
SNAPSHOT_BYTES = 32 << 20

_COLUMNS = ("kinds", "gaps", "addrs", "deps", "pcs")


class Snapshot:
    """One machine right after a shared prefix.

    ``caches`` holds each cache (L1I, L1D, L2) as :func:`flatten`'s
    columns.  ``state`` pickles everything else a later record can
    read: DRAM bank and bus state, the coordinate memo, the region
    queue and its throttle counters, the row-timing policy, the stride
    engine (without its stats) and the core loop's mid-run state.
    """

    __slots__ = ("caches", "state", "nbytes")

    def __init__(self, caches: tuple, state: bytes) -> None:
        self.caches = caches
        self.state = state
        self.nbytes = len(state) + sum(
            memoryview(column).nbytes for columns in caches for column in columns
        )


class SnapshotMemo:
    """LRU of snapshots holding at most ``limit`` bytes of them.

    A snapshot larger than the whole bound is not kept.  ``hits`` and
    ``misses`` count lookups.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.nbytes = 0
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, Snapshot]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[Snapshot]:
        with self._lock:
            snapshot = self._entries.get(key)
            if snapshot is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return snapshot

    def put(self, key: tuple, snapshot: Snapshot) -> None:
        with self._lock:
            if key in self._entries or snapshot.nbytes > self.limit:
                return
            self._entries[key] = snapshot
            self.nbytes += snapshot.nbytes
            while self.nbytes > self.limit:
                _, evicted = self._entries.popitem(last=False)
                self.nbytes -= evicted.nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = self.hits = self.misses = 0


#: the memo every ``FastSystem`` warm-up consults.
SNAPSHOTS = SnapshotMemo(SNAPSHOT_BYTES)


def prefix_key(config: SystemConfig, trace: Trace) -> Tuple[str, str]:
    """``(config digest, digest of the trace's shared prefix)``."""
    prefix = trace.shared_prefix
    digest = hashlib.blake2b(str(prefix).encode("ascii"), digest_size=20)
    for name in _COLUMNS:
        column = np.ascontiguousarray(getattr(trace, name)[:prefix])
        digest.update(column.dtype.str.encode("ascii"))
        digest.update(column)
    return config.digest(), digest.hexdigest()


def flatten(sets: list) -> tuple:
    """A cache's sets of ``[block, dirty, prefetched, ready_time]``
    lines as flat columns: the line count of every set, then every
    line's block, flags (dirty | prefetched << 1) and ready time, sets
    in order and MRU first."""
    lines = chain.from_iterable
    return (
        array("I", map(len, sets)),
        array("q", map(itemgetter(0), lines(sets))),
        bytes(line[1] | line[2] << 1 for line in lines(sets)),
        array("d", map(itemgetter(3), lines(sets))),
    )


_DIRTY = (False, True, False, True)
_PREFETCHED = (False, False, True, True)


def unflatten(columns: tuple) -> Tuple[list, list]:
    """Fresh ``(sets, tags)`` from :func:`flatten`'s columns."""
    counts, blocks, flags, ready = columns
    lines = (
        [block, _DIRTY[flag], _PREFETCHED[flag], ready_time]
        for block, flag, ready_time in zip(blocks, flags, ready)
    )
    sets = [list(islice(lines, count)) for count in counts]
    return sets, [{line[0]: line for line in lines_of_set} for lines_of_set in sets]
