"""Timing model of the ganged (simply interleaved) DRDRAM channel.

The model tracks three shared resources — the 3-bit row command bus,
the 5-bit column command bus, and the 16-bit-per-physical-channel data
bus — as "next free" timestamps, plus per-bank row-buffer state.  An
access is scheduled by walking the DRDRAM command sequence:

* row miss:   PRER (row bus) → ACT (row bus) → RD/WR per dualoct
* bank empty: ACT (row bus) → RD/WR per dualoct
* row hit:    RD/WR per dualoct

Each command packet occupies its control bus for one packet time
(10 ns); each data packet occupies the data bus for 10 ns, starting
``t_rdwr`` after its RD/WR issues.  With the 800-40 part this yields
the paper's contention-free latencies: 40 ns row hit, 57.5 ns
precharged, 77.5 ns row miss (Section 2.2), and back-to-back column
reads stream the data bus at 100% utilization.

Commands of a single request issue in order and requests are not
interleaved (the paper's controller "pipelines requests, but does not
reorder or interleave commands from multiple requests", Section 4.4);
pipelining arises because a request may begin using the command buses
while the previous request's data packets still occupy the data bus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.config import CoreConfig, DRAMConfig
from repro.core.stats import DRAMClassStats, SimStats
from repro.dram.backends import get_backend
from repro.dram.bank import BankArray
from repro.dram.mapping import DRAMCoordinates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.probe import Probe

__all__ = ["AccessOutcome", "LogicalChannel"]


class AccessOutcome:
    """Row-buffer outcome labels."""

    ROW_HIT = "hit"
    ROW_EMPTY = "empty"
    ROW_MISS = "miss"


class LogicalChannel:
    """Scheduler for the ganged Rambus channel; all times in CPU cycles."""

    __slots__ = (
        "config",
        "stats",
        "_t_prer",
        "_t_act",
        "_t_rdwr",
        "t_transfer",
        "_t_packet",
        "_policy",
        "_closed_page",
        "banks",
        "row_bus_free",
        "col_bus_free",
        "data_bus_free",
        "_probe",
        "_cls_names",
    )

    def __init__(
        self,
        config: DRAMConfig,
        core: CoreConfig,
        stats: SimStats,
        probe: "Optional[Probe]" = None,
    ) -> None:
        self.config = config
        self.stats = stats
        self._probe = probe
        # Access-class labels for the probe, resolved by identity of the
        # per-class stats bucket the caller passes to :meth:`access`
        # (buckets outside this SimStats — unit tests — read "other").
        self._cls_names = {
            id(stats.dram_reads): "demand",
            id(stats.dram_writebacks): "writeback",
            id(stats.dram_prefetches): "prefetch",
        }
        # The backend supplies the effective organization (speed grade,
        # bank geometry, sense-amp sharing) and an optional per-access
        # timing policy; for the default DRDRAM backend both reduce to
        # the raw config, keeping the scheduling arithmetic untouched.
        backend = get_backend(config.backend)
        effective = backend.effective(config)
        timings = backend.timing_cycles(config, core)
        self._t_prer = timings["t_prer"]
        self._t_act = timings["t_act"]
        self._t_rdwr = timings["t_rdwr"]
        self.t_transfer = timings["t_transfer"]
        self._t_packet = timings["t_packet"]
        self._policy = backend.make_policy(config, core)
        self._closed_page = config.row_policy == "closed"
        self.banks = BankArray(
            effective.banks_per_device,
            effective.devices_per_channel,
            shared_sense_amps=effective.shared_sense_amps,
        )
        self.row_bus_free = 0.0
        self.col_bus_free = 0.0
        self.data_bus_free = 0.0
        if probe is not None:
            # A fresh policy instance lets the sanitizer replay the
            # access stream as an independent shadow oracle.
            probe.register_channel(
                self, timings, self._closed_page, backend.make_policy(config, core)
            )

    # -- queries used by the controller and prefetch prioritizer ------------

    def open_row(self, bank: int) -> Optional[int]:
        """Row currently latched in ``bank``, or None."""
        return self.banks.open_row(bank)

    def row_is_open(self, coords: DRAMCoordinates) -> bool:
        return self.banks.open_row(coords.bank) == coords.row

    def quiesce_time(self) -> float:
        """Time at which every channel resource is free."""
        return max(self.row_bus_free, self.col_bus_free, self.data_bus_free)

    def command_issue_time(self) -> float:
        """Earliest time the controller can issue another request.

        The controller pipelines requests, so it is "ready for another
        access" (Section 4.2) once the column command bus drains — data
        packets of the previous access may still be in flight, and the
        row bus may still be working through earlier precharge/activate
        pairs (bank-aware prefetches target open rows and rarely need
        it; when one does, the access path makes it wait there).
        """
        return self.col_bus_free

    def classify(self, coords: DRAMCoordinates) -> str:
        """Row-buffer outcome an access to ``coords`` would see now."""
        open_row = self.banks.open_row(coords.bank)
        if open_row == coords.row:
            return AccessOutcome.ROW_HIT
        if open_row is None:
            return AccessOutcome.ROW_EMPTY
        return AccessOutcome.ROW_MISS

    # -- the access path -------------------------------------------------------

    def access(
        self,
        time: float,
        coords: DRAMCoordinates,
        packets: int,
        is_write: bool,
        cls: DRAMClassStats,
    ) -> Tuple[float, float]:
        """Schedule one request; returns (first_data_time, completion_time).

        ``packets`` logical dualocts are transferred starting at
        ``coords`` (a cache-block fetch or writeback).  ``cls`` selects
        the per-class stats bucket (demand read / writeback / prefetch).
        """
        bank = self.banks[coords.bank]
        outcome = self.classify(coords)
        # Per-access protocol timings: uniform for static backends, or
        # resolved by the backend's row-timing policy (TL-DRAM near/far
        # segments, ChargeCache highly-charged grants).  The sanitizer's
        # shadow policy resolves the same stream, so a mis-applied grant
        # is a protocol violation.
        policy = self._policy
        if policy is None:
            t_prer = self._t_prer
            t_act = self._t_act
            t_rdwr = self._t_rdwr
        else:
            t_prer, t_act, t_rdwr = policy.resolve(
                coords.bank, coords.row, time, outcome
            )
        cls.accesses += 1
        stats = self.stats
        probe = self._probe  # probes are read-only: timings are untouched
        #: (cmd_start, data_end) of each packet, gathered for the probe.
        packets_sched = None if probe is None else []

        if outcome == AccessOutcome.ROW_HIT:
            # Consecutive column reads of an open row pipeline freely;
            # bank.busy_until only gates precharge/activate.
            cls.row_hits += 1
            row_ready = time
        else:
            if outcome == AccessOutcome.ROW_EMPTY:
                cls.row_empty += 1
                if bank.flushed_row == coords.row:
                    cls.adjacency_flushes += 1
                act_start = max(time, self.row_bus_free, bank.busy_until)
            else:
                cls.row_misses += 1
                prer_start = max(time, self.row_bus_free, bank.busy_until)
                self.row_bus_free = prer_start + self._t_packet
                stats.row_bus_busy += self._t_packet
                act_start = max(prer_start + t_prer, self.row_bus_free)
            self.row_bus_free = act_start + self._t_packet
            stats.row_bus_busy += self._t_packet
            row_ready = act_start + t_act
            flushed = self.banks.activate(coords.bank, coords.row, probe is not None)

        first_data = 0.0
        for i in range(packets):
            # RD/WR commands stream on the column bus at one packet per
            # packet time; their data packets follow in command order,
            # queueing on the data bus when transfers back up.  (The
            # controller pipelines requests without reordering —
            # Section 4.4 — so data order equals command order.)
            cmd_start = max(row_ready, self.col_bus_free)
            self.col_bus_free = cmd_start + self._t_packet
            stats.col_bus_busy += self._t_packet
            data_end = max(cmd_start + t_rdwr, self.data_bus_free) + self.t_transfer
            self.data_bus_free = data_end
            stats.data_bus_busy += self.t_transfer
            stats.data_packets += 1
            if i == 0:
                first_data = data_end
            if packets_sched is not None:
                packets_sched.append((cmd_start, data_end))
        completion = self.data_bus_free
        bank.busy_until = completion

        if self._closed_page:
            # Automatic precharge after the access: one PRER packet on
            # the row bus, after which the bank is empty.
            auto_prer = max(completion, self.row_bus_free)
            self.row_bus_free = auto_prer + self._t_packet
            stats.row_bus_busy += self._t_packet
            bank.precharge()
            bank.busy_until = auto_prer + t_prer

        if policy is not None:
            policy.observe(
                coords.bank,
                coords.row,
                outcome,
                act_start if outcome != AccessOutcome.ROW_HIT else None,
                completion,
            )

        if probe is not None:
            hit = outcome == AccessOutcome.ROW_HIT
            probe.dram_access(
                self,
                time,
                coords.bank,
                coords.row,
                outcome,
                self._cls_names.get(id(cls), "other"),
                prer_start if outcome == AccessOutcome.ROW_MISS else None,
                None if hit else act_start,
                None if hit else flushed,
                packets_sched,
                completion,
            )

        return first_data, completion
