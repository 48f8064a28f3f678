"""Specialized flat interpreter for the full simulated system.

``FastSystem`` replays the exact event sequence of the reference stack
(``OutOfOrderCore`` + ``MemoryHierarchy`` + ``MemoryController`` +
``LogicalChannel`` + ``RegionPrefetcher``) with every per-record Python
call inlined into one function: cache sets are lists of 4-slot list
"lines" mirrored by tag dicts, DRAM bank state is three parallel
lists, the channel buses are plain floats, the L1 MSHR files are bare
heaps, and prefetch region entries are 4-slot lists ``[base, origin,
bitmap, scan]`` in a plain priority-ordered list.  Only the stride
prefetch engine is still driven as a reference object (it is not on
any measured hot path).

**DRAM backends.**  Every registered backend runs here, through the
backend's own hooks rather than copies of their logic: the bank
geometry, address mapping, packets per block and idle guard come from
``backend.effective(dram)``, the base timings from
``backend.timing_cycles``, and the per-access row-timing policy from
``backend.make_policy``.  The inlined channel walk calls the policy's
``resolve`` before scheduling and its ``observe`` after, at the same two
points ``LogicalChannel.access`` does.

**The row-hit path.**  Warm-up sweeps stride through open rows, so
nearly every DRAM access they make is a row hit.  When the channel has
no row-timing policy, keeps pages open and moves a block in one data
packet (the default DRDRAM geometry), a row hit schedules only the
column and data buses and returns; every other access, and every access
of a policy backend (whose ``resolve`` and ``observe`` must see it),
takes the whole walk.  Counters that others determine — each DRAM
class's accesses, the data packets, the cache accesses and the L2
demand fetches — are derived when a run folds its accumulators into the
stats instead of being counted per event.

**Bit-exactness contract.**  The reference kernel is authoritative;
this one must produce byte-identical ``SimStats`` (enforced by the A/B
fuzzer in ``tests/test_kernel_ab.py`` and the fast-on/off golden gate).
Three rules keep the float results exact rather than merely close:

* every floating-point accumulator (bus busy times, the L2 miss-latency
  sum) is folded through a run-local *carry-in*: the local starts at
  the current stats value and every ``+=`` happens in the reference
  order, so the binary operation sequence — and therefore every
  intermediate rounding — is unchanged;
* ``gap / issue_width`` stays a true division and the per-instruction
  ``issue_slot`` is the same single ``1.0 / issue_width`` the reference
  computes;
* ``max(a, b)`` is replaced by comparisons only where both operands are
  non-negative simulation times, so the selected value is equal even
  when the argument order differs.

**Only the post-prefix snapshot outlives a point.**  A ``FastSystem``
holds the machine state of one point (warm-up, then the measured run):
each run reads only the trace's base columns and derives every record's
L1 block and set and its L2 block inline (from the raw address, as
``MemoryHierarchy._l2_access`` does, so every L1 geometry is exact),
with the same arithmetic as the reference components.  DRAM coordinates
are memoized per point: a block's ``(bank, row)`` depends only on
``block >> coord_shift``, so each such key is translated on its first
access, by the controller's own ``AddressMapping.translate``, and kept
in a dict on the instance, which dies with the point like the cache and
bank state.  A cold sweep never repeats a ``(config, warm-up)`` pair,
but it does repeat the warm-up's first records: every benchmark's
warm-up opens with the same cache filler at one L2 size
(``Trace.shared_prefix`` counts it).  So the first warm-up of a fresh
system walks its records in two segments and snapshots the machine in
between, and a later point of the same configuration restores that
snapshot and walks only the second (:mod:`repro.kernel.memo`).

State layout notes: a cache line is ``[block, dirty, prefetched,
ready_time]``; L1 fills skip the reference's merge check because
nothing can install an L1 line between the lookup miss and its fill
(only L2 fills happen in between), while the L2 demand fill keeps the
merge check whenever a prefetcher exists — a gap-drained prefetch
*can* land in the demand's block within one call chain.
"""

from __future__ import annotations

import copy
import pickle
from heapq import heappop, heappush
from itertools import islice
from typing import Optional

from repro.cache.replacement import insertion_index
from repro.core.config import SystemConfig
from repro.core.stats import SimStats
from repro.dram.backends import get_backend
from repro.dram.channel import AccessOutcome
from repro.dram.mapping import make_mapping
from repro.kernel import memo
from repro.kernel.compiled import CompiledTrace
from repro.prefetch.engine import THROTTLE_PROBE_PERIOD
from repro.prefetch.stride import StridePrefetcher

__all__ = ["FastSystem", "use_fast_kernel"]


def use_fast_kernel(fast: bool = True, obs=None, sanitize=None) -> bool:
    """The kernel rule: does a point with these options run on the fast
    kernel?

    Yes unless an observer or sanitizer is attached (the fast kernel
    emits no probe events) or the caller passes ``fast=False``, the
    handle the A/B tests use to run the reference kernel as an oracle.
    ``simulate`` decides through here.
    """
    return fast and obs is None and not sanitize


class FastSystem:
    """Drop-in for :class:`repro.core.system.System` running the
    specialized kernel over a :class:`CompiledTrace`.

    Cache, DRAM-bank, row-timing-policy and prefetcher state persist
    across runs (warm-up then measurement), exactly like the reference
    ``System``, and die with the instance; only a snapshot of the state
    after a warm-up trace's shared prefix outlives it (:mod:`repro.kernel.memo`).
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config.validate()
        self.stats = SimStats()
        self._clock = 0.0
        self._fresh = True  # no run yet: a warm-up may use the memo

        core = config.core
        self._issue_width = float(core.issue_width)
        self._issue_slot = 1.0 / self._issue_width
        self._window_size = core.window_size
        self._lsq_size = core.lsq_size
        self._use_swpf = config.software_prefetch
        self._perfect_memory = config.perfect_memory
        self._perfect_l2 = config.perfect_l2

        self._l1i_lat = config.l1i.hit_latency
        self._l1d_lat = config.l1d.hit_latency
        self._l2_lat = config.l2.hit_latency
        self._l1i_assoc = config.l1i.assoc
        self._l1d_assoc = config.l1d.assoc
        self._l2_assoc = config.l2.assoc
        self._l1i_entries = config.l1i.mshrs
        self._l1d_entries = config.l1d.mshrs
        self._l1i_block_mask = ~(config.l1i.block_bytes - 1)
        self._l1i_offset_bits = config.l1i.block_offset_bits
        self._l1i_index_mask = config.l1i.num_sets - 1
        self._l1d_block_mask = ~(config.l1d.block_bytes - 1)
        self._l1d_offset_bits = config.l1d.block_offset_bits
        self._l1d_index_mask = config.l1d.num_sets - 1
        self._l2_block_mask = ~(config.l2.block_bytes - 1)
        self._l2_offset_bits = config.l2.block_offset_bits
        self._l2_index_mask = config.l2.num_sets - 1

        self._l1i_sets: list = [[] for _ in range(config.l1i.num_sets)]
        self._l1i_tags: list = [{} for _ in range(config.l1i.num_sets)]
        self._l1d_sets: list = [[] for _ in range(config.l1d.num_sets)]
        self._l1d_tags: list = [{} for _ in range(config.l1d.num_sets)]
        self._l2_sets: list = [[] for _ in range(config.l2.num_sets)]
        self._l2_tags: list = [{} for _ in range(config.l2.num_sets)]

        # The DRAM backend's own hooks, consulted exactly where
        # MemoryController and LogicalChannel consult them: the effective
        # organization (geometry, mapping, packets, idle guard), the base
        # timings, and a fresh per-access row-timing policy.
        backend = get_backend(config.dram.backend)
        dram = backend.effective(config.dram)
        timings = backend.timing_cycles(config.dram, core)
        self._t_prer = timings["t_prer"]
        self._t_act = timings["t_act"]
        self._t_rdwr = timings["t_rdwr"]
        self._t_transfer = timings["t_transfer"]
        self._t_packet = timings["t_packet"]
        self._policy = backend.make_policy(config.dram, core)
        self._closed_page = config.dram.row_policy == "closed"
        self._block_packets = dram.transfer_packets(config.l2.block_bytes)
        self._idle_guard = core.ns_to_cycles(dram.part.t_packet_ns)

        num_banks = dram.banks_per_device * dram.devices_per_channel
        self._open_rows: list = [None] * num_banks
        self._busy_until: list = [0.0] * num_banks
        self._flushed_rows: list = [None] * num_banks
        device_bits = dram.devices_per_channel.bit_length() - 1
        neighbours = []
        for index in range(num_banks):
            if not dram.shared_sense_amps:
                neighbours.append(())
                continue
            device = index & ((1 << device_bits) - 1)
            bank = index >> device_bits
            row = []
            if bank > 0:
                row.append(((bank - 1) << device_bits) | device)
            if bank < dram.banks_per_device - 1:
                row.append(((bank + 1) << device_bits) | device)
            neighbours.append(tuple(row))
        self._neighbours = tuple(neighbours)
        self._row_free = 0.0
        self._col_free = 0.0
        self._data_free = 0.0

        # The controller's own address mapping.  A block's bank and row
        # depend only on the bits above its column (``block >>
        # coord_shift``), so each such key is translated once per point
        # and memoized in ``_coords`` (which dies with the instance).
        self._mapping = make_mapping(dram)
        m = self._mapping
        self._coord_shift = m._offset_bits + m._channel_bits + m._column_bits
        self._coords: dict = {}

        prefetch = config.prefetch
        self._prefetcher = None  # object engine (stride only)
        self._region_on = False
        self._scheduled = True
        if prefetch.enabled:
            self._scheduled = prefetch.scheduled
            if prefetch.engine == "stride":
                self._prefetcher = StridePrefetcher(config.l2.block_bytes, self.stats)
            else:
                if prefetch.region_bytes < config.l2.block_bytes:
                    # Same construction-time check RegionPrefetcher makes.
                    raise ValueError("region must be at least one block")
                self._region_on = True
        # Region-engine state: entries are [base, origin, bitmap, scan]
        # lists in priority order (index 0 = highest), mirroring
        # PrefetchQueue; throttle counters persist across runs.
        self._pf_entries: list = []
        self._pf_outcome_total = 0
        self._pf_outcome_useful = 0
        self._pf_throttle_skips = 0
        self._pf_region_bytes = prefetch.region_bytes
        self._pf_num_blocks = prefetch.region_bytes // config.l2.block_bytes
        self._pf_all_set = (1 << self._pf_num_blocks) - 1
        self._pf_region_mask = prefetch.region_bytes - 1
        self._pf_capacity = prefetch.queue_entries
        self._pf_fifo = prefetch.policy == "fifo"
        self._pf_promote = prefetch.policy == "lifo" and prefetch.promote_on_miss
        self._pf_bank_aware = prefetch.bank_aware
        self._pf_throttle = prefetch.throttle
        self._pf_window = prefetch.throttle_window
        self._pf_decay = 2 * prefetch.throttle_window
        self._pf_min_acc = prefetch.throttle_min_accuracy
        self._pf_slot = insertion_index(prefetch.insertion, config.l2.assoc)

    # -- public run API -------------------------------------------------------

    def run(self, compiled: CompiledTrace) -> SimStats:
        """Execute ``compiled`` on this system; returns accumulated stats."""
        self._clock = self._run(compiled, self._clock)
        return self.stats

    def warmup(self, compiled: CompiledTrace) -> None:
        """Warm caches/DRAM/prefetcher state, then zero the statistics;
        the clock keeps advancing, as in the reference ``System``.

        On a system that has not run yet, the trace's shared prefix goes
        through :data:`repro.kernel.memo.SNAPSHOTS`: a hit restores the
        machine as it stands after the prefix and simulates only the
        rest; a miss simulates the prefix, memoizes that state and
        carries on."""
        self._clock = self._run(compiled, self._clock, memoize=self._fresh)
        self.stats.reset()

    # -- the post-prefix snapshot ----------------------------------------------

    def _snapshot(self, buses: tuple, throttle: tuple, core: tuple) -> Optional[memo.Snapshot]:
        """This machine mid-run; ``buses``, ``throttle`` and ``core`` are
        the run's locals.  None when the row-timing policy or the stride
        engine cannot be pickled (a plug-in backend's, say)."""
        stride = self._prefetcher
        if stride is not None:
            stride = copy.copy(stride)
            stride.stats = None  # rebound to the restoring system's stats
        state = (
            self._open_rows, self._busy_until, self._flushed_rows, buses,
            self._coords, self._pf_entries, throttle, self._policy, stride, core,
        )
        try:
            blob = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError):
            return None
        caches = tuple(
            memo.flatten(sets) for sets in (self._l1i_sets, self._l1d_sets, self._l2_sets)
        )
        return memo.Snapshot(caches, blob)

    def _restore(self, snapshot: memo.Snapshot) -> tuple:
        """Take on ``snapshot``'s machine state; returns the core loop's."""
        self._l1i_sets, self._l1i_tags = memo.unflatten(snapshot.caches[0])
        self._l1d_sets, self._l1d_tags = memo.unflatten(snapshot.caches[1])
        self._l2_sets, self._l2_tags = memo.unflatten(snapshot.caches[2])
        (
            self._open_rows, self._busy_until, self._flushed_rows, buses,
            self._coords, self._pf_entries, throttle, self._policy, stride, core,
        ) = pickle.loads(snapshot.state)
        self._row_free, self._col_free, self._data_free = buses
        self._pf_outcome_total, self._pf_outcome_useful, self._pf_throttle_skips = throttle
        if stride is not None:
            stride.stats = self.stats
            self._prefetcher = stride
        return core

    # -- the kernel -----------------------------------------------------------

    def _run(self, compiled: CompiledTrace, start_time: float, memoize: bool = False) -> float:
        self._fresh = False
        # The shared prefix: restore the state after it, or memoize that
        # state on the way past (``memo_key`` stays set for the miss).
        prefix = compiled.trace.shared_prefix if memoize else 0
        memo_key = core = None
        if prefix:
            memo_key = memo.prefix_key(self.config, compiled.trace)
            snapshot = memo.SNAPSHOTS.get(memo_key)
            if snapshot is not None:
                core = self._restore(snapshot)
                memo_key = None

        stats = self.stats

        columns = compiled.base_columns()

        # Hoisted configuration scalars.
        issue_width = self._issue_width
        issue_slot = self._issue_slot
        window_size = self._window_size
        lsq_size = self._lsq_size
        use_swpf = self._use_swpf
        perfect_memory = self._perfect_memory
        perfect_l2 = self._perfect_l2
        l1i_lat = self._l1i_lat
        l1d_lat = self._l1d_lat
        l2_lat = self._l2_lat
        l1i_assoc = self._l1i_assoc
        l1d_assoc = self._l1d_assoc
        l2_assoc = self._l2_assoc
        i_entries = self._l1i_entries
        d_entries = self._l1d_entries
        l1i_block_mask = self._l1i_block_mask
        l1i_offset_bits = self._l1i_offset_bits
        l1i_index_mask = self._l1i_index_mask
        l1d_block_mask = self._l1d_block_mask
        l1d_offset_bits = self._l1d_offset_bits
        l1d_index_mask = self._l1d_index_mask
        l2_block_mask = self._l2_block_mask
        l2_offset_bits = self._l2_offset_bits
        l2_index_mask = self._l2_index_mask
        pf_slot = self._pf_slot
        block_packets = self._block_packets
        single_packet = block_packets == 1
        t_prer = self._t_prer
        t_act = self._t_act
        t_rdwr = self._t_rdwr
        t_transfer = self._t_transfer
        t_packet = self._t_packet
        idle_guard = self._idle_guard
        closed_page = self._closed_page
        policy = self._policy
        if policy is not None:
            resolve = policy.resolve
            observe = policy.observe
            row_hit = AccessOutcome.ROW_HIT
            row_empty = AccessOutcome.ROW_EMPTY
            row_miss = AccessOutcome.ROW_MISS

        # Persistent structures.
        l1i_sets = self._l1i_sets
        l1i_tags = self._l1i_tags
        l1d_sets = self._l1d_sets
        l1d_tags = self._l1d_tags
        l2_sets = self._l2_sets
        l2_tags = self._l2_tags
        open_rows = self._open_rows
        busy_until = self._busy_until
        flushed_rows = self._flushed_rows
        neighbours = self._neighbours
        prefetcher = self._prefetcher
        region_on = self._region_on
        have_pf = region_on or prefetcher is not None
        scheduled = self._scheduled
        drain_on = have_pf and scheduled
        burst_on = have_pf and not scheduled
        if prefetcher is not None:
            pf_select = prefetcher.select
            pf_demand_miss = prefetcher.on_demand_miss
            pf_outcome = prefetcher.record_outcome
            shim = _StrideShim(open_rows)
            mapping = self._mapping

            def resident(addr: int) -> bool:
                block = addr & l2_block_mask
                return block in l2_tags[(block >> l2_offset_bits) & l2_index_mask]

        # Region-engine state and scalars (RegionPrefetcher, inlined).
        pf_entries = self._pf_entries
        pf_region_bytes = self._pf_region_bytes
        pf_num = self._pf_num_blocks
        pf_last = pf_num - 1
        pf_all_set = self._pf_all_set
        pf_region_mask = self._pf_region_mask
        pf_capacity = self._pf_capacity
        pf_fifo = self._pf_fifo
        pf_promote = self._pf_promote
        pf_bank_aware = self._pf_bank_aware
        pf_throttle = self._pf_throttle
        pf_window = self._pf_window
        pf_decay = self._pf_decay
        pf_min_acc = self._pf_min_acc
        ot_total = self._pf_outcome_total
        ot_useful = self._pf_outcome_useful
        t_skips = self._pf_throttle_skips
        regions_enq = regions_rep = regions_comp = regions_prom = 0
        throttled_n = 0

        coord_shift = self._coord_shift
        coords = self._coords
        translate = self._mapping.translate
        # A row hit with no row-timing policy to observe, no automatic
        # precharge and one data packet moves only the column and data
        # buses: chan_access returns from a short path for it.
        short_hit = policy is None and not closed_page and single_packet

        # Channel bus state: carry-in floats shared with the closures.
        row_free = self._row_free
        col_free = self._col_free
        data_free = self._data_free

        # Statistic accumulators.  Ints fold as deltas at the end; every
        # float carries the current stats value in so the += sequence is
        # binary-identical to the reference kernel's.
        row_busy = stats.row_bus_busy
        col_busy = stats.col_bus_busy
        data_busy = stats.data_bus_busy
        l2_lat_sum = stats.l2_miss_latency_sum
        # Counters that others determine (accesses, data packets, demand
        # fetches) are derived at the fold instead of counted per event.
        rd_cls = [0, 0, 0, 0]  # row hits, empty, misses, adjacency flushes
        wb_cls = [0, 0, 0, 0]
        pf_cls = [0, 0, 0, 0]
        l1i_hits = l1i_del = l1i_miss = l1i_wb = l1i_evict = 0
        l1d_hits = l1d_del = l1d_miss = l1d_wb = l1d_evict = 0
        l2_hits = l2_del = l2_miss = l2_wb = l2_evict = 0
        pf_issued = pf_useful = pf_late = pf_evicted = 0
        i_stalls = d_stalls = 0

        def chan_access(time, block, cls):
            # LogicalChannel.access, flattened (obs/san are never
            # present under the fast kernel).
            nonlocal row_free, col_free, data_free
            nonlocal row_busy, col_busy, data_busy
            key = block >> coord_shift
            try:
                bnk, row = coords[key]
            except KeyError:
                at = translate(block)
                bnk, row = coords[key] = at.bank, at.row
            open_row = open_rows[bnk]
            if short_hit and open_row == row:
                cls[0] += 1
                cmd_start = time if time > col_free else col_free
                col_free = cmd_start + t_packet
                col_busy += t_packet
                data_end = cmd_start + t_rdwr
                if data_free > data_end:
                    data_end = data_free
                data_end += t_transfer
                data_free = data_end
                data_busy += t_transfer
                busy_until[bnk] = data_end
                return data_end
            if policy is None:
                a_prer = t_prer
                a_act = t_act
                a_rdwr = t_rdwr
            else:
                # The backend's policy resolves this access's timings
                # before any command is scheduled.
                if open_row == row:
                    outcome = row_hit
                elif open_row is None:
                    outcome = row_empty
                else:
                    outcome = row_miss
                a_prer, a_act, a_rdwr = resolve(bnk, row, time, outcome)
            if open_row == row:
                cls[0] += 1
                row_ready = time
            else:
                bank_busy = busy_until[bnk]
                if open_row is None:
                    cls[1] += 1
                    if flushed_rows[bnk] == row:
                        cls[3] += 1
                    act_start = time
                    if row_free > act_start:
                        act_start = row_free
                    if bank_busy > act_start:
                        act_start = bank_busy
                else:
                    cls[2] += 1
                    prer_start = time
                    if row_free > prer_start:
                        prer_start = row_free
                    if bank_busy > prer_start:
                        prer_start = bank_busy
                    row_free = prer_start + t_packet
                    row_busy += t_packet
                    act_start = prer_start + a_prer
                    if row_free > act_start:
                        act_start = row_free
                row_free = act_start + t_packet
                row_busy += t_packet
                row_ready = act_start + a_act
                open_rows[bnk] = row
                flushed_rows[bnk] = None
                for n in neighbours[bnk]:
                    n_row = open_rows[n]
                    if n_row is not None:
                        flushed_rows[n] = n_row
                        open_rows[n] = None
            if single_packet:
                cmd_start = row_ready if row_ready > col_free else col_free
                col_free = cmd_start + t_packet
                col_busy += t_packet
                data_end = cmd_start + a_rdwr
                if data_free > data_end:
                    data_end = data_free
                data_end += t_transfer
                data_free = data_end
                data_busy += t_transfer
            else:
                for _ in range(block_packets):
                    cmd_start = row_ready if row_ready > col_free else col_free
                    col_free = cmd_start + t_packet
                    col_busy += t_packet
                    data_end = cmd_start + a_rdwr
                    if data_free > data_end:
                        data_end = data_free
                    data_end += t_transfer
                    data_free = data_end
                    data_busy += t_transfer
            completion = data_free
            busy_until[bnk] = completion
            if closed_page:
                prer_start = completion if completion > row_free else row_free
                row_free = prer_start + t_packet
                row_busy += t_packet
                open_rows[bnk] = None
                flushed_rows[bnk] = None
                busy_until[bnk] = prer_start + a_prer
            if policy is not None:
                observe(
                    bnk,
                    row,
                    outcome,
                    None if outcome == row_hit else act_start,
                    completion,
                )
            return completion

        def pf_fill(addr, ready_time):
            # MemoryHierarchy._prefetch_fill + controller.writeback.
            nonlocal l2_evict, l2_wb, pf_evicted, ot_total, ot_useful
            block = addr & l2_block_mask
            index = (block >> l2_offset_bits) & l2_index_mask
            tags = l2_tags[index]
            line = tags.get(block)
            if line is not None:
                # Merge into the resident line: a prefetched fill never
                # clears the flag and carries no dirty data.
                if ready_time < line[3]:
                    line[3] = ready_time
                return
            lines = l2_sets[index]
            victim = None
            if len(lines) >= l2_assoc:
                victim = lines.pop()
                del tags[victim[0]]
                l2_evict += 1
                if victim[2]:
                    pf_evicted += 1
                    if region_on:  # record_outcome(False), inlined
                        ot_total += 1
                        if ot_total >= pf_decay:
                            ot_total //= 2
                            ot_useful //= 2
                    else:
                        pf_outcome(False)
            line = [block, False, True, ready_time]
            lines.insert(pf_slot if pf_slot < len(lines) else len(lines), line)
            tags[block] = line
            if victim is not None and victim[1]:
                chan_access(ready_time, victim[0], wb_cls)
                l2_wb += 1

        if region_on:

            def issue_prefetch(time):
                # MemoryController._issue_prefetch with the region
                # engine's select() inlined over the list entries.
                nonlocal pf_issued, t_skips, throttled_n
                nonlocal ot_total, ot_useful, regions_comp
                if pf_throttle and ot_total >= pf_window:
                    if ot_useful / ot_total < pf_min_acc:
                        t_skips += 1
                        if t_skips % THROTTLE_PROBE_PERIOD:
                            throttled_n += 1
                            return None
                first_entry = None
                first_addr = 0
                chosen_entry = None
                chosen_addr = 0
                for entry in pf_entries[:]:
                    base = entry[0]
                    origin = entry[1]
                    bitmap = entry[2]
                    scan = entry[3]
                    addr = -1
                    while scan < pf_last:
                        idx = origin + 1 + scan
                        if idx >= pf_num:
                            idx -= pf_num
                        if not (bitmap >> idx) & 1:
                            cand = base + (idx << l2_offset_bits)
                            # resident probe against the live L2 tags
                            if (
                                cand
                                in l2_tags[(cand >> l2_offset_bits) & l2_index_mask]
                            ):
                                bitmap |= 1 << idx
                                scan += 1
                                continue
                            addr = cand
                            break
                        scan += 1
                    entry[2] = bitmap
                    entry[3] = scan
                    if addr < 0:
                        pf_entries.remove(entry)
                        regions_comp += 1
                        continue
                    if first_entry is None:
                        first_entry = entry
                        first_addr = addr
                        if not pf_bank_aware:
                            break
                    if pf_bank_aware:
                        key = addr >> coord_shift
                        try:
                            bnk, row = coords[key]
                        except KeyError:
                            at = translate(addr)
                            bnk, row = coords[key] = at.bank, at.row
                        if open_rows[bnk] == row:
                            chosen_entry = entry
                            chosen_addr = addr
                            break
                if chosen_entry is None:
                    chosen_entry = first_entry
                    chosen_addr = first_addr
                    if chosen_entry is None:
                        return None
                bitmap = chosen_entry[2] | (
                    1 << ((chosen_addr - chosen_entry[0]) >> l2_offset_bits)
                )
                chosen_entry[2] = bitmap
                scan = chosen_entry[3] + 1
                chosen_entry[3] = scan
                if bitmap == pf_all_set or scan >= pf_last:
                    pf_entries.remove(chosen_entry)
                    regions_comp += 1
                completion = chan_access(time, chosen_addr, pf_cls)
                pf_issued += 1
                pf_fill(chosen_addr, completion)
                return completion

        else:

            def issue_prefetch(time):
                # MemoryController._issue_prefetch (object engine).
                nonlocal pf_issued
                addr = pf_select(shim, mapping, resident, now=time)
                if addr is None:
                    return None
                completion = chan_access(time, addr, pf_cls)
                pf_issued += 1
                pf_fill(addr, completion)
                return completion

        def drain(deadline):
            # MemoryController._drain_prefetches (idle-guard policy:
            # applied here and nowhere else, deadline is raw).
            while True:
                start = col_free
                if start + idle_guard > deadline:
                    return
                if issue_prefetch(start) is None:
                    return

        def drain_burst(time):
            # MemoryController._drain_all_prefetches (unscheduled mode).
            for _ in range(12):  # UNSCHEDULED_BURST
                quiesce = row_free
                if col_free > quiesce:
                    quiesce = col_free
                if data_free > quiesce:
                    quiesce = data_free
                if issue_prefetch(time if time > quiesce else quiesce) is None:
                    return

        def l2_access(t2, block, index, pc):
            # MemoryHierarchy._l2_access + controller demand path.
            nonlocal l2_hits, l2_del, l2_miss, l2_evict, l2_wb
            nonlocal l2_lat_sum, pf_useful, pf_late, pf_evicted
            nonlocal ot_total, ot_useful
            nonlocal regions_enq, regions_rep, regions_comp, regions_prom
            if perfect_l2:
                l2_hits += 1
                return t2 + l2_lat
            tags = l2_tags[index]
            line = tags.get(block)
            if line is not None:
                lines = l2_sets[index]
                if lines[0] is not line:
                    lines.remove(line)
                    lines.insert(0, line)
                was_prefetched = False
                if line[2]:
                    line[2] = False
                    was_prefetched = True
                    pf_useful += 1
                    if region_on:  # record_outcome(True), inlined
                        ot_total += 1
                        ot_useful += 1
                        if ot_total >= pf_decay:
                            ot_total //= 2
                            ot_useful //= 2
                    else:
                        pf_outcome(True)
                l2_hits += 1
                if drain_on and col_free + idle_guard <= t2:
                    drain(t2)
                ready = line[3]
                if ready > t2:
                    l2_del += 1
                    if was_prefetched:
                        pf_late += 1
                    hit_done = t2 + l2_lat
                    return hit_done if hit_done > ready else ready
                return t2 + l2_lat
            l2_miss += 1
            if drain_on and col_free + idle_guard <= t2:
                drain(t2)
            completion = chan_access(t2, block, rd_cls)
            if have_pf:
                if region_on:
                    # RegionPrefetcher.on_demand_miss, inlined.
                    entry = None
                    for e in pf_entries:
                        eb = e[0]
                        if eb <= block < eb + pf_region_bytes:
                            entry = e
                            break
                    if entry is not None:
                        bitmap = entry[2] | (
                            1 << ((block - entry[0]) >> l2_offset_bits)
                        )
                        entry[2] = bitmap
                        if bitmap == pf_all_set or entry[3] >= pf_last:
                            pf_entries.remove(entry)
                            regions_comp += 1
                        elif pf_promote:
                            if pf_entries[0] is not entry:
                                pf_entries.remove(entry)
                                pf_entries.insert(0, entry)
                            regions_prom += 1
                    else:
                        base = block & ~pf_region_mask
                        origin = (block - base) >> l2_offset_bits
                        if len(pf_entries) >= pf_capacity:
                            if pf_fifo:
                                pf_entries.pop(0)
                            else:
                                pf_entries.pop()
                            regions_rep += 1
                        if pf_fifo:
                            pf_entries.append([base, origin, 1 << origin, 0])
                        else:
                            pf_entries.insert(0, [base, origin, 1 << origin, 0])
                        regions_enq += 1
                else:
                    pf_demand_miss(block, pc=pc, now=t2)
                if burst_on:
                    drain_burst(t2)
            l2_lat_sum += completion - t2
            if have_pf:
                # Demand fill, insertion "mru": merge first — a
                # gap-drained prefetch may have landed in this very
                # block above.  Without a prefetcher nothing can have
                # installed the block since the lookup missed.
                line = tags.get(block)
                if line is not None:
                    if completion < line[3]:
                        line[3] = completion
                    line[2] = False
                    return completion
            lines = l2_sets[index]
            if len(lines) >= l2_assoc:
                victim = lines.pop()
                del tags[victim[0]]
                l2_evict += 1
                if victim[2]:
                    pf_evicted += 1
                    if region_on:  # record_outcome(False), inlined
                        ot_total += 1
                        if ot_total >= pf_decay:
                            ot_total //= 2
                            ot_useful //= 2
                    elif have_pf:
                        pf_outcome(False)
                if victim[1]:
                    # Written back before the fill lands, unlike the
                    # reference: the channel walk reads no cache state.
                    chan_access(completion, victim[0], wb_cls)
                    l2_wb += 1
            line = [block, False, False, completion]
            lines.insert(0, line)
            tags[block] = line
            return completion

        # Per-run core state (fresh each run, like the reference), or as
        # a restored snapshot left it after the prefix.
        if core is None:
            i_heap: list = []
            d_heap: list = []
            win_index: list = []
            win_done: list = []
            chain_completion: dict = {}
            dispatch = start_time
            commit_front = start_time
            end_time = start_time
            inst_count = 0
        else:
            (
                i_heap, d_heap, win_index, win_done, chain_completion,
                dispatch, commit_front, end_time, inst_count,
            ) = core
        win_head = 0  # popleft index into the parallel win_* lists
        win_live = len(win_index)  # len(win_index) - win_head
        chain_get = chain_completion.get
        loads = stores = ifetches = swprefetches = 0

        # The records, in one or two segments of one walk: after a
        # restore, those past the prefix; on a memo miss, the prefix
        # and then the rest, with the snapshot taken in between.
        if core is not None:
            columns = [islice(column, prefix, None) for column in columns]
        records = zip(*columns)
        segments = (records,) if memo_key is None else (islice(records, prefix), records)
        for segment in segments:
            for kind, gap, addr, dep, pc in segment:
                if kind == 3 and not use_swpf:  # discarded software prefetch
                    if gap:
                        inst_count += gap
                        dispatch += gap / issue_width
                    continue

                if gap:
                    inst_count += gap
                    dispatch += gap / issue_width

                if kind == 2:  # instruction fetch
                    ifetches += 1
                    # i_mshrs.acquire(dispatch)
                    while i_heap and i_heap[0] <= dispatch:
                        heappop(i_heap)
                    if len(i_heap) < i_entries:
                        ready = dispatch
                    else:
                        i_stalls += 1
                        ready = heappop(i_heap)
                        while i_heap and i_heap[0] <= ready:
                            heappop(i_heap)
                    # hierarchy.access(ready, addr, IFETCH)
                    if perfect_memory:
                        completion = ready + l1i_lat
                    else:
                        blk = addr & l1i_block_mask
                        sidx = (blk >> l1i_offset_bits) & l1i_index_mask
                        tags = l1i_tags[sidx]
                        line = tags.get(blk)
                        if line is not None:
                            lines = l1i_sets[sidx]
                            if lines[0] is not line:
                                lines.remove(line)
                                lines.insert(0, line)
                            l1i_hits += 1
                            hit_done = ready + l1i_lat
                            line_ready = line[3]
                            if line_ready > ready:
                                l1i_del += 1
                                completion = (
                                    line_ready if line_ready > hit_done else hit_done
                                )
                            else:
                                completion = hit_done
                        else:
                            l1i_miss += 1
                            t2 = ready + l1i_lat
                            block = addr & l2_block_mask
                            completion = l2_access(
                                t2, block, (block >> l2_offset_bits) & l2_index_mask, pc
                            )
                            lines = l1i_sets[sidx]
                            victim = None
                            if len(lines) >= l1i_assoc:
                                victim = lines.pop()
                                del tags[victim[0]]
                                l1i_evict += 1
                            line = [blk, False, False, completion]
                            lines.insert(0, line)
                            tags[blk] = line
                            if victim is not None and victim[1]:
                                # _l1_writeback (unreachable for the read-only
                                # L1I, kept for structural parity).
                                vblock = victim[0] & l2_block_mask
                                vline = l2_tags[
                                    (vblock >> l2_offset_bits) & l2_index_mask
                                ].get(vblock)
                                if vline is not None:
                                    vline[1] = True
                                elif not perfect_l2:
                                    chan_access(completion, vblock, wb_cls)
                                    l2_wb += 1
                                l1i_wb += 1
                            heappush(i_heap, completion)
                            if completion > dispatch:
                                dispatch = completion
                    if completion > end_time:
                        end_time = completion
                    continue

                inst_count += 1
                index = inst_count
                dispatch += issue_slot

                if win_live:
                    horizon = index - window_size
                    while win_live and (
                        win_index[win_head] <= horizon or win_live >= lsq_size
                    ):
                        done = win_done[win_head]
                        win_head += 1
                        win_live -= 1
                        if done > commit_front:
                            commit_front = done
                            if commit_front > dispatch:
                                dispatch = commit_front
                    if win_head > 4096:  # keep the parallel lists bounded
                        del win_index[:win_head]
                        del win_done[:win_head]
                        win_head = 0

                issue = dispatch
                if dep:
                    ready = chain_get(pc, start_time)
                    if ready > issue:
                        issue = ready

                # d_mshrs.acquire(issue)
                while d_heap and d_heap[0] <= issue:
                    heappop(d_heap)
                if len(d_heap) >= d_entries:
                    d_stalls += 1
                    issue = heappop(d_heap)
                    while d_heap and d_heap[0] <= issue:
                        heappop(d_heap)

                # hierarchy.access(issue, addr, kind)
                if perfect_memory:
                    completion = issue + l1d_lat
                    missed = False
                else:
                    blk = addr & l1d_block_mask
                    sidx = (blk >> l1d_offset_bits) & l1d_index_mask
                    tags = l1d_tags[sidx]
                    line = tags.get(blk)
                    if line is not None:
                        lines = l1d_sets[sidx]
                        if lines[0] is not line:
                            lines.remove(line)
                            lines.insert(0, line)
                        if kind == 1:
                            line[1] = True
                        l1d_hits += 1
                        hit_done = issue + l1d_lat
                        line_ready = line[3]
                        if line_ready > issue:
                            l1d_del += 1
                            completion = line_ready if line_ready > hit_done else hit_done
                        else:
                            completion = hit_done
                        missed = False
                    else:
                        l1d_miss += 1
                        t2 = issue + l1d_lat
                        block = addr & l2_block_mask
                        completion = l2_access(
                            t2, block, (block >> l2_offset_bits) & l2_index_mask, pc
                        )
                        lines = l1d_sets[sidx]
                        if len(lines) >= l1d_assoc:
                            victim = lines.pop()
                            del tags[victim[0]]
                            l1d_evict += 1
                            if victim[1]:
                                # _l1_writeback(completion, victim_addr), ahead
                                # of the L1 fill it reads nothing of.
                                vblock = victim[0] & l2_block_mask
                                vline = l2_tags[
                                    (vblock >> l2_offset_bits) & l2_index_mask
                                ].get(vblock)
                                if vline is not None:
                                    vline[1] = True
                                elif not perfect_l2:
                                    chan_access(completion, vblock, wb_cls)
                                    l2_wb += 1
                                l1d_wb += 1
                        line = [blk, kind == 1, False, completion]
                        lines.insert(0, line)
                        tags[blk] = line
                        missed = True

                if missed:
                    heappush(d_heap, completion)

                if kind == 0:  # load
                    loads += 1
                    win_live += 1
                    win_index.append(index)
                    win_done.append(completion)
                    chain_completion[pc] = completion
                elif kind == 1:  # store
                    stores += 1
                    win_live += 1
                    win_index.append(index)
                    win_done.append(issue + 1)  # STORE_COMMIT_LATENCY
                else:  # executed software prefetch
                    swprefetches += 1

                if completion > end_time:
                    end_time = completion

            if segment is not records:
                # The prefix is done: memoize the machine as it stands.
                snapshot = self._snapshot(
                    (row_free, col_free, data_free),
                    (ot_total, ot_useful, t_skips),
                    (
                        i_heap, d_heap, win_index[win_head:], win_done[win_head:],
                        chain_completion, dispatch, commit_front, end_time, inst_count,
                    ),
                )
                if snapshot is not None:
                    memo.SNAPSHOTS.put(memo_key, snapshot)

        for done in win_done[win_head:]:
            if done > commit_front:
                commit_front = done
        finish = max(dispatch, commit_front, end_time)
        if drain_on:
            drain(finish)

        # Fold the accumulators into the shared stats and persist the
        # channel bus state for the next run on this system.
        self._row_free = row_free
        self._col_free = col_free
        self._data_free = data_free
        self._pf_outcome_total = ot_total
        self._pf_outcome_useful = ot_useful
        self._pf_throttle_skips = t_skips
        stats.instructions += inst_count
        stats.cycles += finish - start_time
        stats.loads += loads
        stats.stores += stores
        stats.ifetches += ifetches
        stats.software_prefetches += swprefetches
        stats.l1d_mshr_stalls += d_stalls
        stats.l1i_mshr_stalls += i_stalls
        s = stats.l1i
        s.accesses += l1i_hits + l1i_miss
        s.hits += l1i_hits
        s.delayed_hits += l1i_del
        s.misses += l1i_miss
        s.writebacks += l1i_wb
        s.evictions += l1i_evict
        s = stats.l1d
        s.accesses += l1d_hits + l1d_miss
        s.hits += l1d_hits
        s.delayed_hits += l1d_del
        s.misses += l1d_miss
        s.writebacks += l1d_wb
        s.evictions += l1d_evict
        s = stats.l2
        s.accesses += l2_hits + l2_miss
        s.hits += l2_hits
        s.delayed_hits += l2_del
        s.misses += l2_miss
        s.writebacks += l2_wb
        s.evictions += l2_evict
        stats.l2_demand_fetches += l2_miss
        stats.l2_miss_latency_sum = l2_lat_sum
        dram_accesses = 0
        for cls, bucket in (
            (rd_cls, stats.dram_reads),
            (wb_cls, stats.dram_writebacks),
            (pf_cls, stats.dram_prefetches),
        ):
            hits, empty, misses, flushes = cls
            accesses = hits + empty + misses
            dram_accesses += accesses
            bucket.accesses += accesses
            bucket.row_hits += hits
            bucket.row_empty += empty
            bucket.row_misses += misses
            bucket.adjacency_flushes += flushes
        stats.row_bus_busy = row_busy
        stats.col_bus_busy = col_busy
        stats.data_bus_busy = data_busy
        stats.data_packets += dram_accesses * block_packets
        stats.prefetches_issued += pf_issued
        stats.prefetches_useful += pf_useful
        stats.prefetches_late += pf_late
        stats.prefetched_blocks_evicted_unused += pf_evicted
        stats.prefetch_regions_enqueued += regions_enq
        stats.prefetch_regions_replaced += regions_rep
        stats.prefetch_regions_completed += regions_comp
        stats.prefetch_regions_promoted += regions_prom
        stats.prefetches_throttled += throttled_n
        return finish


class _StrideShim:
    """Duck-typed stand-in for ``LogicalChannel`` handed to the stride
    engine's ``select``: only ``row_is_open`` is ever called there."""

    __slots__ = ("_open_rows",)

    def __init__(self, open_rows: list) -> None:
        self._open_rows = open_rows

    def row_is_open(self, coords) -> bool:
        return self._open_rows[coords.bank] == coords.row
