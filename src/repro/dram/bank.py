"""Per-bank row-buffer state, including shared sense-amp adjacency.

Each 256-Mbit DRDRAM device has 32 banks whose row buffers are split in
half and shared with the neighbouring banks (Figure 2): the upper half
of bank *n*'s row buffer is the lower half of bank *n+1*'s.  Activating
a row in bank *n* therefore flushes any open rows in banks *n-1* and
*n+1* of the same device, and only one of each adjacent pair can be
active at a time.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["Bank", "BankArray"]


class Bank:
    """Row-buffer state of one bank."""

    __slots__ = ("open_row", "busy_until", "flushed_row")

    def __init__(self) -> None:
        #: row currently latched in the sense amps, or None if precharged.
        self.open_row: Optional[int] = None
        #: earliest time a new PRER/ACT may target this bank (the prior
        #: access's data must have been read out of the sense amps).
        self.busy_until: float = 0.0
        #: row that was lost to a neighbouring bank's activation, used
        #: to attribute later misses to sense-amp sharing in the stats.
        self.flushed_row: Optional[int] = None

    def activate(self, row: int) -> None:
        self.open_row = row
        self.flushed_row = None

    def precharge(self) -> None:
        self.open_row = None
        self.flushed_row = None

    def flush_for_neighbour(self) -> None:
        """A neighbouring bank activated; drop our open row."""
        if self.open_row is not None:
            self.flushed_row = self.open_row
            self.open_row = None


class BankArray:
    """All logical banks of the ganged channel.

    Logical bank indices are ``(physical_bank << device_bits) | device``
    as produced by :mod:`repro.dram.mapping`, so two logical banks are
    sense-amp neighbours iff they belong to the same device and their
    physical bank numbers differ by one.
    """

    __slots__ = ("_banks_per_device", "_devices", "_device_bits", "_shared", "banks", "_neighbours")

    def __init__(self, banks_per_device: int, devices: int, shared_sense_amps: bool = True) -> None:
        self._banks_per_device = banks_per_device
        self._devices = devices
        self._device_bits = devices.bit_length() - 1
        self._shared = shared_sense_amps
        self.banks: List[Bank] = [Bank() for _ in range(banks_per_device * devices)]
        # Neighbour indices never change: precompute them once instead
        # of rebuilding a list on every activation (the activate path
        # runs on every DRAM row miss/empty access).
        self._neighbours: List[List[int]] = [
            self._compute_neighbours(i) for i in range(len(self.banks))
        ]

    def __len__(self) -> int:
        return len(self.banks)

    def __getitem__(self, index: int) -> Bank:
        return self.banks[index]

    def open_row(self, index: int) -> Optional[int]:
        return self.banks[index].open_row

    def _compute_neighbours(self, index: int) -> List[int]:
        if not self._shared:
            return []
        device = index & ((1 << self._device_bits) - 1)
        bank = index >> self._device_bits
        result = []
        if bank > 0:
            result.append(((bank - 1) << self._device_bits) | device)
        if bank < self._banks_per_device - 1:
            result.append(((bank + 1) << self._device_bits) | device)
        return result

    def neighbours(self, index: int) -> List[int]:
        """Logical indices of the sense-amp neighbours of ``index``."""
        return self._neighbours[index]

    def activate(
        self, index: int, row: int, collect_flushed: bool = False
    ) -> Optional[List[int]]:
        """Latch ``row`` in bank ``index``, flushing sense-amp neighbours.

        With ``collect_flushed`` (set when a probe is attached) the
        indices of neighbouring banks whose open rows were lost are
        gathered and returned; the default path builds nothing.
        """
        banks = self.banks
        banks[index].activate(row)
        neighbours = self._neighbours[index]
        flushed = None
        if collect_flushed:
            flushed = [n for n in neighbours if banks[n].open_row is not None]
        for n in neighbours:
            banks[n].flush_for_neighbour()
        return flushed

    def open_banks(self) -> int:
        """Number of banks with a latched row (diagnostics)."""
        return sum(1 for b in self.banks if b.open_row is not None)
