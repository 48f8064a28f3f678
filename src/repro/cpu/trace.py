"""Memory-reference traces.

A trace is a compact columnar record of a program's dynamic memory
behaviour, the input to the trace-driven core model:

* ``kinds``  — :class:`repro.cache.hierarchy.AccessKind` per record.
* ``gaps``   — non-memory instructions executed since the previous
  record (models computation density / memory-op fraction).
* ``addrs``  — physical byte addresses.
* ``deps``   — 1 if the record's address depends on the value returned
  by the *previous load* (pointer chasing); such records cannot issue
  until that load completes, which is what makes a workload
  latency-bound rather than bandwidth-bound.
* ``pcs``    — synthetic "instruction address" (stream id) of the
  access, used by PC-indexed prefetchers such as the stride baseline.

``shared_prefix`` counts the leading records that other traces share
byte for byte (the warm-up's cache filler, the same for every benchmark
at one L2 size); the fast kernel memoizes the machine state after them.

IFETCH records model instruction-cache pressure; they carry no
instruction count of their own (``gaps`` accounts for all computation).
Software-prefetch (SWPF) records are discarded at fetch unless the
system enables ``software_prefetch`` (Section 4.7), in which case each
costs one issue slot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator, Tuple, Union

import numpy as np

from repro.cache.hierarchy import AccessKind

__all__ = ["Trace", "TraceBuilder"]


@dataclass(frozen=True)
class Trace:
    """Immutable columnar memory trace."""

    name: str
    kinds: np.ndarray
    gaps: np.ndarray
    addrs: np.ndarray
    deps: np.ndarray
    pcs: np.ndarray
    description: str = ""
    shared_prefix: int = 0

    def __post_init__(self) -> None:
        lengths = {len(self.kinds), len(self.gaps), len(self.addrs), len(self.deps), len(self.pcs)}
        if len(lengths) != 1:
            raise ValueError(f"trace columns disagree on length: {sorted(lengths)}")
        if not 0 <= self.shared_prefix <= len(self.kinds):
            raise ValueError(f"shared prefix {self.shared_prefix} outside the trace")

    def __len__(self) -> int:
        return len(self.kinds)

    def prefix_digest(self) -> str:
        """Digest of the ``shared_prefix`` records' five columns.

        The instance is frozen, so the digest is computed once and kept
        on it (outside the dataclass fields, as ``SystemConfig.digest``
        keeps its own).
        """
        cached = self.__dict__.get("_prefix_digest")
        if cached is not None:
            return cached
        prefix = self.shared_prefix
        digest = hashlib.blake2b(str(prefix).encode("ascii"), digest_size=20)
        for column in (self.kinds, self.gaps, self.addrs, self.deps, self.pcs):
            column = np.ascontiguousarray(column[:prefix])
            digest.update(column.dtype.str.encode("ascii"))
            digest.update(column)
        cached = digest.hexdigest()
        object.__setattr__(self, "_prefix_digest", cached)
        return cached

    @property
    def instruction_count(self) -> int:
        """Instructions represented, counting loads/stores but not
        ifetch records (software prefetches are counted only when the
        simulated system executes them)."""
        mem_ops = int(np.sum((self.kinds == AccessKind.LOAD) | (self.kinds == AccessKind.STORE)))
        return int(self.gaps.sum()) + mem_ops

    @property
    def memory_references(self) -> int:
        return int(np.sum(self.kinds != AccessKind.IFETCH))

    def records(self) -> Iterator[Tuple[int, int, int, int, int]]:
        """Iterate (kind, gap, addr, dep, pc) tuples (test/debug helper)."""
        for i in range(len(self)):
            yield (
                int(self.kinds[i]),
                int(self.gaps[i]),
                int(self.addrs[i]),
                int(self.deps[i]),
                int(self.pcs[i]),
            )

    def save(self, file: Union[str, Path, BinaryIO]) -> None:
        """Persist the trace as a compressed ``.npz`` archive, to a path
        (numpy appends ``.npz`` if it lacks one) or an open binary file."""
        np.savez_compressed(
            file,
            kinds=self.kinds,
            gaps=self.gaps,
            addrs=self.addrs,
            deps=self.deps,
            pcs=self.pcs,
            name=np.array(self.name),
            description=np.array(self.description),
            shared_prefix=np.array(self.shared_prefix),
        )

    @classmethod
    def load(cls, file: Union[str, Path, BinaryIO]) -> "Trace":
        """Load a trace written by :meth:`save` from a path or an open
        binary file (a file saved before ``shared_prefix`` existed loads
        with none).  A file this opens is closed, whatever it holds;
        one that is no ``.npz`` archive raises :class:`ValueError`."""
        if isinstance(file, (str, Path)):
            # np.load leaves a file it opened itself open when the zip
            # parse raises; one handed to it is closed here either way.
            with open(file, "rb") as handle:
                return cls.load(handle)
        data = np.load(file, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not a trace archive")
        with data:
            return cls(
                name=str(data["name"]),
                kinds=data["kinds"],
                gaps=data["gaps"],
                addrs=data["addrs"],
                deps=data["deps"],
                pcs=data["pcs"],
                description=str(data["description"]),
                shared_prefix=int(data["shared_prefix"]) if "shared_prefix" in data else 0,
            )

    def concat(self, other: "Trace", name: str = "") -> "Trace":
        """Concatenate two traces (phase composition)."""
        return Trace(
            name=name or f"{self.name}+{other.name}",
            kinds=np.concatenate([self.kinds, other.kinds]),
            gaps=np.concatenate([self.gaps, other.gaps]),
            addrs=np.concatenate([self.addrs, other.addrs]),
            deps=np.concatenate([self.deps, other.deps]),
            pcs=np.concatenate([self.pcs, other.pcs]),
            description=self.description,
        )


@dataclass
class TraceBuilder:
    """Append-only builder that freezes into a :class:`Trace`."""

    name: str
    description: str = ""
    _kinds: list = field(default_factory=list)
    _gaps: list = field(default_factory=list)
    _addrs: list = field(default_factory=list)
    _deps: list = field(default_factory=list)
    _pcs: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self._kinds)

    def append(self, kind: int, gap: int, addr: int, dep: int = 0, pc: int = 0) -> None:
        if gap < 0:
            raise ValueError("gap must be non-negative")
        if addr < 0:
            raise ValueError("addresses must be non-negative")
        self._kinds.append(kind)
        self._gaps.append(min(gap, 0xFFFF))
        self._addrs.append(addr)
        self._deps.append(dep)
        self._pcs.append(pc)

    def load(self, gap: int, addr: int, dep: int = 0, pc: int = 0) -> None:
        self.append(AccessKind.LOAD, gap, addr, dep, pc)

    def store(self, gap: int, addr: int, dep: int = 0, pc: int = 0) -> None:
        self.append(AccessKind.STORE, gap, addr, dep, pc)

    def ifetch(self, addr: int, pc: int = 0) -> None:
        self.append(AccessKind.IFETCH, 0, addr, 0, pc)

    def software_prefetch(self, gap: int, addr: int, pc: int = 0) -> None:
        self.append(AccessKind.SWPF, gap, addr, 0, pc)

    def build(self) -> Trace:
        return Trace(
            name=self.name,
            kinds=np.asarray(self._kinds, dtype=np.uint8),
            gaps=np.asarray(self._gaps, dtype=np.uint16),
            addrs=np.asarray(self._addrs, dtype=np.int64),
            deps=np.asarray(self._deps, dtype=np.uint8),
            pcs=np.asarray(self._pcs, dtype=np.uint32),
            description=self.description,
        )
