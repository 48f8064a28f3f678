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

**Warm-state memoization.**  Warm-up runs are deterministic functions
of ``(config, warm-trace digest)``, so the post-warm-up machine state
(cache contents, DRAM bank/bus state, prefetch queue, clock) is
snapshotted per process and restored on repeat — a sweep or benchmark
re-running the same warm-up pays the full simulation once.  Snapshots
deep-copy the line lists and the row-timing policy both ways, so a
restored system can never alias a cached one; the restored state is
byte-for-byte the state the warm-up run would have produced.

State layout notes: a cache line is ``[block, dirty, prefetched,
ready_time]``; L1 fills skip the reference's merge check because
nothing can install an L1 line between the lookup miss and its fill
(only L2 fills happen in between), while the L2 demand fill keeps the
merge check whenever a prefetcher exists — a gap-drained prefetch
*can* land in the demand's block within one call chain.
"""

from __future__ import annotations

import copy
import os
from heapq import heappop, heappush
from typing import Optional

from repro.cache.replacement import insertion_index
from repro.core.config import SystemConfig
from repro.core.stats import SimStats
from repro.dram.backends import get_backend
from repro.dram.channel import AccessOutcome
from repro.dram.mapping import make_mapping
from repro.kernel.compiled import CompiledTrace
from repro.prefetch.engine import THROTTLE_PROBE_PERIOD
from repro.prefetch.stride import StridePrefetcher

__all__ = [
    "FastSystem",
    "fast_enabled",
    "kernel_supports",
    "use_fast_kernel",
    "clear_warm_cache",
    "HAVE_NUMBA",
]

# Optional JIT hook: when numba is importable the columnar precompute
# helpers could be njit-compiled.  The container image does not ship
# numba, so the flag simply records availability; all code paths below
# are pure Python + numpy and do not require it.
try:  # pragma: no cover - exercised only where numba is installed
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

_TRUE_VALUES = ("1", "true", "yes", "on")


def fast_enabled(env: Optional[str] = None) -> bool:
    """Parse the ``REPRO_FAST`` opt-in (default: off)."""
    value = os.environ.get("REPRO_FAST", "") if env is None else env
    return value.strip().lower() in _TRUE_VALUES


def kernel_supports(config: SystemConfig) -> bool:
    """Geometries the fast kernel can specialize.

    The kernel derives each record's L2 block from its precompiled L1
    block (``l1_block & ~(l2_block-1)``), which requires both L1 block
    sizes to divide the L2 block size.  ``SystemConfig`` enforces this
    for the L1D only; unusual L1I geometries fall back to the reference
    kernel.  Every registered DRAM backend is supported: the kernel
    drives the backend's own geometry, timings and row-timing policy.
    """
    l2_block = config.l2.block_bytes
    for l1 in (config.l1i, config.l1d):
        if l1.block_bytes > l2_block or l2_block % l1.block_bytes:
            return False
    return True


def use_fast_kernel(
    config: SystemConfig, fast: Optional[bool] = None, obs=None, sanitize=None
) -> bool:
    """The kernel rule: does a point with these options run on the fast
    kernel?

    Only when the fast kernel is asked for (``fast``, or ``REPRO_FAST``
    when None), no observer or sanitizer is attached (the fast kernel
    emits no probe events), and :func:`kernel_supports` the geometry.
    ``simulate`` and ``simulate_batch`` both decide through here.
    """
    if obs is not None or sanitize:
        return False
    if not (fast_enabled() if fast is None else fast):
        return False
    return kernel_supports(config)


#: post-warm-up machine-state snapshots, keyed by (config, digest).
_WARM_MEMO: dict = {}
_WARM_MEMO_LIMIT = 16


def clear_warm_cache() -> None:
    """Drop all memoized warm-up state snapshots (test isolation)."""
    _WARM_MEMO.clear()


class FastSystem:
    """Drop-in for :class:`repro.core.system.System` running the
    specialized kernel over a :class:`CompiledTrace`.

    Cache, DRAM-bank, row-timing-policy and prefetcher state persist
    across runs (warm-up then measurement), exactly like the reference
    ``System``.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config.validate()
        if not kernel_supports(config):
            raise ValueError("configuration not supported by the fast kernel")
        self.stats = SimStats()
        self._clock = 0.0
        self._fresh = True

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
        self._dram = dram
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

        # The mapping's private field split drives the inline coordinate
        # fallback for blocks outside the precompiled map.
        self._mapping = make_mapping(dram)
        m = self._mapping
        self._coord_shift = m._offset_bits + m._channel_bits + m._column_bits
        self._devbank_mask = m._devbank_mask
        self._devbank_bits = m._devbank_bits
        self._row_mask = m._row_mask
        self._device_mask = m._device_mask
        self._device_bits = m._device_bits
        self._bank_mask = m._bank_mask
        self._bank_bits = m._bank_bits
        self._is_xor = dram.mapping == "xor"

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
        self._fresh = False
        self._clock = self._run(compiled, self._clock)
        return self.stats

    def warmup(self, compiled: CompiledTrace) -> None:
        """Warm caches/DRAM/prefetcher state, then zero the statistics.

        The post-warm-up state of a fresh system is a pure function of
        ``(config, compiled.digest)``, so it is memoized per process:
        repeat warm-ups restore a snapshot instead of re-simulating.
        (Not applied when a stride engine is attached — its state lives
        in a reference object that is cheap enough to just re-run.)
        """
        key = None
        if self._fresh and self._prefetcher is None:
            key = (self.config, compiled.digest)
            snapshot = _WARM_MEMO.get(key)
            if snapshot is not None:
                self._restore(snapshot)
                self._fresh = False
                return
        self._fresh = False
        self._clock = self._run(compiled, self._clock)
        self.stats.reset()
        if key is not None:
            if len(_WARM_MEMO) >= _WARM_MEMO_LIMIT:
                _WARM_MEMO.pop(next(iter(_WARM_MEMO)))
            _WARM_MEMO[key] = self._snapshot()

    # -- warm-state snapshots -------------------------------------------------

    def _snapshot(self) -> tuple:
        def copy_sets(sets: list) -> list:
            return [[line[:] for line in lines] for lines in sets]

        return (
            copy_sets(self._l1i_sets),
            copy_sets(self._l1d_sets),
            copy_sets(self._l2_sets),
            self._open_rows[:],
            self._busy_until[:],
            self._flushed_rows[:],
            self._row_free,
            self._col_free,
            self._data_free,
            [entry[:] for entry in self._pf_entries],
            self._pf_outcome_total,
            self._pf_outcome_useful,
            self._pf_throttle_skips,
            self._clock,
            copy.deepcopy(self._policy),
        )

    def _restore(self, snapshot: tuple) -> None:
        (
            l1i, l1d, l2c, orows, busy, frows, rf, cf, df, entries, ot, ou, ts,
            clock, policy,
        ) = snapshot
        for sets, tags, src in (
            (self._l1i_sets, self._l1i_tags, l1i),
            (self._l1d_sets, self._l1d_tags, l1d),
            (self._l2_sets, self._l2_tags, l2c),
        ):
            for i, lines in enumerate(src):
                copied = [line[:] for line in lines]
                sets[i] = copied
                # A tag dict maps a line's block to the line itself, so
                # it can be rebuilt exactly from the copied lines.
                tags[i] = {line[0]: line for line in copied}
        self._open_rows[:] = orows
        self._busy_until[:] = busy
        self._flushed_rows[:] = frows
        self._row_free = rf
        self._col_free = cf
        self._data_free = df
        self._pf_entries[:] = [entry[:] for entry in entries]
        self._pf_outcome_total = ot
        self._pf_outcome_useful = ou
        self._pf_throttle_skips = ts
        self._clock = clock
        self._policy = copy.deepcopy(policy)

    # -- the kernel -----------------------------------------------------------

    def _run(self, compiled: CompiledTrace, start_time: float) -> float:
        config = self.config
        stats = self.stats

        # Columns (shared, precompiled once per trace content).
        kinds_col, gaps_col, _, deps_col, pcs_col = compiled.base_columns()
        blocks_col, sets_col = compiled.l1_columns(config.l1i, config.l1d)
        cmap = compiled.coord_map(self._dram, config.l2.block_bytes)
        cmap_get = cmap.get

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
        devbank_mask = self._devbank_mask
        devbank_bits = self._devbank_bits
        row_mask = self._row_mask
        device_mask = self._device_mask
        device_bits = self._device_bits
        bank_mask = self._bank_mask
        bank_bits = self._bank_bits
        is_xor = self._is_xor

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
        data_pkts = 0
        l2_lat_sum = stats.l2_miss_latency_sum
        rd_cls = [0, 0, 0, 0, 0]  # accesses, hits, empty, misses, adjacency
        wb_cls = [0, 0, 0, 0, 0]
        pf_cls = [0, 0, 0, 0, 0]
        l1i_acc = l1i_hits = l1i_del = l1i_miss = l1i_wb = l1i_evict = 0
        l1d_acc = l1d_hits = l1d_del = l1d_miss = l1d_wb = l1d_evict = 0
        l2_acc = l2_hits = l2_del = l2_miss = l2_wb = l2_evict = 0
        l2_dem = 0
        pf_issued = pf_useful = pf_late = pf_evicted = 0
        i_stalls = d_stalls = 0

        def coord(block):
            # Slow path: block outside the precompiled map (victims and
            # prefetch targets beyond the trace footprint).
            shifted = block >> coord_shift
            devbank = shifted & devbank_mask
            row = (shifted >> devbank_bits) & row_mask
            if is_xor:
                swizzled = devbank ^ (row & devbank_mask)
                device = swizzled & device_mask
                bank = (swizzled >> device_bits) & bank_mask
                if bank_bits > 0:
                    bank = ((bank & 1) << (bank_bits - 1)) | (bank >> 1)
                c = ((bank << device_bits) | device, row)
            else:
                c = (devbank, row)
            cmap[block] = c
            return c

        def chan_access(time, bnk, row, cls):
            # LogicalChannel.access, flattened (obs/san are never
            # present under the fast kernel).
            nonlocal row_free, col_free, data_free
            nonlocal row_busy, col_busy, data_busy, data_pkts
            cls[0] += 1
            open_row = open_rows[bnk]
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
                cls[1] += 1
                row_ready = time
            else:
                bank_busy = busy_until[bnk]
                if open_row is None:
                    cls[2] += 1
                    if flushed_rows[bnk] == row:
                        cls[4] += 1
                    act_start = time
                    if row_free > act_start:
                        act_start = row_free
                    if bank_busy > act_start:
                        act_start = bank_busy
                else:
                    cls[3] += 1
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
                data_pkts += 1
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
                    data_pkts += 1
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
                c = cmap_get(victim[0])
                vbank, vrow = c if c is not None else coord(victim[0])
                chan_access(ready_time, vbank, vrow, wb_cls)
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
                        c = cmap_get(addr)
                        bnk, row = c if c is not None else coord(addr)
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
                c = cmap_get(chosen_addr)
                bnk, row = c if c is not None else coord(chosen_addr)
                completion = chan_access(time, bnk, row, pf_cls)
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
                c = cmap_get(addr)
                bnk, row = c if c is not None else coord(addr)
                completion = chan_access(time, bnk, row, pf_cls)
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
            nonlocal l2_acc, l2_hits, l2_del, l2_miss, l2_evict, l2_wb
            nonlocal l2_dem, l2_lat_sum, pf_useful, pf_late, pf_evicted
            nonlocal ot_total, ot_useful
            nonlocal regions_enq, regions_rep, regions_comp, regions_prom
            l2_acc += 1
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
            c = cmap_get(block)
            bnk, row = c if c is not None else coord(block)
            completion = chan_access(t2, bnk, row, rd_cls)
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
            l2_dem += 1
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
                    elif have_pf:
                        pf_outcome(False)
            line = [block, False, False, completion]
            lines.insert(0, line)
            tags[block] = line
            if victim is not None and victim[1]:
                c = cmap_get(victim[0])
                vbank, vrow = c if c is not None else coord(victim[0])
                chan_access(completion, vbank, vrow, wb_cls)
                l2_wb += 1
            return completion

        # Per-run core state (fresh each run, like the reference).
        i_heap: list = []
        d_heap: list = []
        win_index: list = []
        win_done: list = []
        win_head = 0  # popleft index into the parallel win_* lists
        chain_completion: dict = {}
        chain_get = chain_completion.get
        dispatch = start_time
        commit_front = start_time
        end_time = start_time
        inst_count = 0
        loads = stores = ifetches = swprefetches = 0

        for kind, gap, dep, pc, blk, sidx in zip(
            kinds_col, gaps_col, deps_col, pcs_col, blocks_col, sets_col
        ):
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
                    l1i_acc += 1
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
                        block = blk & l2_block_mask
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
                                c = cmap_get(vblock)
                                vbank, vrow = c if c is not None else coord(vblock)
                                chan_access(completion, vbank, vrow, wb_cls)
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

            if win_head < len(win_index):
                horizon = index - window_size
                while win_head < len(win_index) and (
                    win_index[win_head] <= horizon
                    or len(win_index) - win_head >= lsq_size
                ):
                    done = win_done[win_head]
                    win_head += 1
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
                l1d_acc += 1
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
                    block = blk & l2_block_mask
                    completion = l2_access(
                        t2, block, (block >> l2_offset_bits) & l2_index_mask, pc
                    )
                    lines = l1d_sets[sidx]
                    victim = None
                    if len(lines) >= l1d_assoc:
                        victim = lines.pop()
                        del tags[victim[0]]
                        l1d_evict += 1
                    line = [blk, kind == 1, False, completion]
                    lines.insert(0, line)
                    tags[blk] = line
                    if victim is not None and victim[1]:
                        # _l1_writeback(completion, victim_addr)
                        vblock = victim[0] & l2_block_mask
                        vline = l2_tags[
                            (vblock >> l2_offset_bits) & l2_index_mask
                        ].get(vblock)
                        if vline is not None:
                            vline[1] = True
                        elif not perfect_l2:
                            c = cmap_get(vblock)
                            vbank, vrow = c if c is not None else coord(vblock)
                            chan_access(completion, vbank, vrow, wb_cls)
                            l2_wb += 1
                        l1d_wb += 1
                    missed = True

            if missed:
                heappush(d_heap, completion)

            if kind == 0:  # load
                loads += 1
                win_index.append(index)
                win_done.append(completion)
                chain_completion[pc] = completion
            elif kind == 1:  # store
                stores += 1
                win_index.append(index)
                win_done.append(issue + 1)  # STORE_COMMIT_LATENCY
            else:  # executed software prefetch
                swprefetches += 1

            if completion > end_time:
                end_time = completion

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
        s.accesses += l1i_acc
        s.hits += l1i_hits
        s.delayed_hits += l1i_del
        s.misses += l1i_miss
        s.writebacks += l1i_wb
        s.evictions += l1i_evict
        s = stats.l1d
        s.accesses += l1d_acc
        s.hits += l1d_hits
        s.delayed_hits += l1d_del
        s.misses += l1d_miss
        s.writebacks += l1d_wb
        s.evictions += l1d_evict
        s = stats.l2
        s.accesses += l2_acc
        s.hits += l2_hits
        s.delayed_hits += l2_del
        s.misses += l2_miss
        s.writebacks += l2_wb
        s.evictions += l2_evict
        stats.l2_demand_fetches += l2_dem
        stats.l2_miss_latency_sum = l2_lat_sum
        for cls, bucket in (
            (rd_cls, stats.dram_reads),
            (wb_cls, stats.dram_writebacks),
            (pf_cls, stats.dram_prefetches),
        ):
            bucket.accesses += cls[0]
            bucket.row_hits += cls[1]
            bucket.row_empty += cls[2]
            bucket.row_misses += cls[3]
            bucket.adjacency_flushes += cls[4]
        stats.row_bus_busy = row_busy
        stats.col_bus_busy = col_busy
        stats.data_bus_busy = data_busy
        stats.data_packets += data_pkts
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
