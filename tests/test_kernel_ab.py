"""Property-based A/B equivalence of the fast kernel vs the reference.

The contract of :mod:`repro.kernel` is byte-identity: every statistic of
the specialized interpreter must equal the reference simulator's, for
every configuration, with and without warm-up.  Hypothesis drives
randomly drawn configurations spanning the paper's axes (DRAM mapping
and row policy, L1I and L2 geometry, both prefetch engines with their
policy/scheduling/throttle variants, idealized hierarchies, non-dyadic
clocks) and every registered DRAM backend with its tuning knobs (so the
TL-DRAM and ChargeCache row-timing policies ride through every
property) through both kernels and asserts exact ``to_dict`` equality.
A second property checks, on the reference kernel alone, each counter
identity the fast kernel relies on to derive counters at fold time.

A third group checks the post-prefix memo: a point whose warm-up
restores the state after the shared filler prefix equals the same
point simulated whole, on either kernel.

Under ``HYPOTHESIS_PROFILE=ci`` (see ``conftest.py``) the examples are
derandomized, so CI runs are reproducible; locally the defaults keep
exploring fresh configurations.
"""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    CacheConfig,
    CoreConfig,
    DRAMConfig,
    PrefetchConfig,
    SystemConfig,
)
from repro.core.system import simulate
from repro.cpu.trace import Trace
from repro.dram.backends import get_backend
from repro.kernel.fastcore import FastSystem
from repro.kernel.memo import SNAPSHOTS
from repro.workloads import build_trace
from repro.workloads.registry import build_warmup_trace

#: memory-intensive picks spanning the paper's workload behaviours
#: (streaming, pointer-chasing, mixed, cache-friendly).
BENCHMARK_POOL = ("swim", "mcf", "art", "equake", "gzip", "parser")


def _dump(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=True)


@st.composite
def system_configs(draw):
    """A valid SystemConfig spanning the axes the fast kernel specializes.

    The L1I block is drawn up to 256 B, past a 64 or 128 B L2 block, and
    the L1I down to 1 KB, so fetches re-enter evicted blocks mid-block:
    the fast kernel takes the L2 block from the raw address, so no L1I
    geometry needs the reference kernel.  A 64 B L2 block on four
    channels moves in one data packet, the default geometry's case,
    which the fast kernel's short row-hit path serves."""
    prefetch = PrefetchConfig(
        enabled=draw(st.booleans()),
        engine=draw(st.sampled_from(["region", "stride"])),
        policy=draw(st.sampled_from(["lifo", "fifo"])),
        region_bytes=draw(st.sampled_from([512, 1024, 4096])),
        queue_entries=draw(st.sampled_from([2, 4, 16])),
        scheduled=draw(st.booleans()),
        bank_aware=draw(st.booleans()),
        insertion=draw(st.sampled_from(["mru", "lru"])),
        promote_on_miss=draw(st.booleans()),
        throttle=draw(st.booleans()),
        throttle_window=draw(st.sampled_from([64, 512])),
    )
    backend = draw(st.sampled_from(["drdram", "tldram", "chargecache", "ddr"]))
    knobs = {}
    if backend == "tldram":
        knobs = dict(
            tldram_near_rows=draw(st.sampled_from([1, 16, 64, 256])),
            tldram_near_cache=draw(st.booleans()),
        )
    elif backend == "chargecache":
        knobs = dict(
            chargecache_entries=draw(st.sampled_from([1, 8, 128])),
            chargecache_duration_ns=draw(st.sampled_from([100.0, 1000.0, 8000.0])),
        )
    dram = DRAMConfig(
        mapping=draw(st.sampled_from(["base", "xor"])),
        row_policy=draw(st.sampled_from(["open", "closed"])),
        channels=draw(st.sampled_from([1, 4])),
        backend=backend,
        **knobs,
    )
    l1i = CacheConfig(
        size_bytes=draw(st.sampled_from([1024, 64 * 1024])),
        assoc=2,
        block_bytes=draw(st.sampled_from([64, 128, 256])),
        hit_latency=1,
        mshrs=4,
    )
    l2 = CacheConfig(
        size_bytes=draw(st.sampled_from([64 * 1024, 256 * 1024])),
        assoc=draw(st.sampled_from([1, 2, 4])),
        block_bytes=draw(st.sampled_from([64, 128, 256])),
        hit_latency=12,
        mshrs=draw(st.sampled_from([4, 8])),
    )
    core = CoreConfig(
        clock_ghz=draw(st.sampled_from([1.0, 1.3, 1.6])),
        issue_width=draw(st.sampled_from([2, 4])),
    )
    return SystemConfig(
        core=core,
        l1i=l1i,
        l2=l2,
        dram=dram,
        prefetch=prefetch,
        perfect_l2=draw(st.booleans()),
        perfect_memory=draw(st.booleans()),
        software_prefetch=draw(st.booleans()),
    )


class TestFuzzFastVsReference:
    @settings(max_examples=28, deadline=None)
    @given(
        config=system_configs(),
        benchmark=st.sampled_from(BENCHMARK_POOL),
        refs=st.integers(min_value=300, max_value=1_200),
        seed=st.integers(min_value=0, max_value=3),
        warm=st.booleans(),
    )
    def test_fast_point_matches_reference(self, config, benchmark, refs, seed, warm):
        """One point, cold fast kernel vs reference, warm-up optional."""
        trace = build_trace(benchmark, refs, seed=seed)
        warmup = (
            build_warmup_trace(benchmark, seed=seed, l2_bytes=config.l2.size_bytes)
            if warm
            else None
        )
        reference = simulate(trace, config, warmup_trace=warmup, fast=False)
        fast = simulate(trace, config, warmup_trace=warmup, fast=True)
        assert _dump(fast) == _dump(reference)


def _block_packets(config) -> int:
    effective = get_backend(config.dram.backend).effective(config.dram)
    return effective.transfer_packets(config.l2.block_bytes)


#: The counters the fast kernel derives at fold time instead of counting
#: per event, each as ``(counted, derived)`` pairs over reference stats.
COUNTER_IDENTITIES = {
    "dram-class-accesses": lambda stats, config: [
        (cls.accesses, cls.row_hits + cls.row_empty + cls.row_misses)
        for cls in (stats.dram_reads, stats.dram_writebacks, stats.dram_prefetches)
    ],
    "data-packets": lambda stats, config: [
        (stats.data_packets, stats.dram_accesses * _block_packets(config))
    ],
    "cache-accesses": lambda stats, config: [
        (cache.accesses, cache.hits + cache.misses)
        for cache in (stats.l1i, stats.l1d, stats.l2)
    ],
    "l2-demand-fetches": lambda stats, config: [
        (stats.l2_demand_fetches, stats.l2.misses)
    ],
}


class TestReferenceCounterIdentities:
    """Each identity the fast kernel derives a counter from holds on the
    reference kernel, so a reference change that breaks one fails here
    under the identity's name instead of as an opaque A/B diff."""

    @pytest.mark.parametrize("identity", sorted(COUNTER_IDENTITIES))
    @settings(max_examples=6, deadline=None)
    @given(
        config=system_configs(),
        benchmark=st.sampled_from(BENCHMARK_POOL),
        refs=st.integers(min_value=300, max_value=1_200),
        seed=st.integers(min_value=0, max_value=3),
        warm=st.booleans(),
    )
    def test_identity_holds(self, identity, config, benchmark, refs, seed, warm):
        trace = build_trace(benchmark, refs, seed=seed)
        warmup = (
            build_warmup_trace(benchmark, seed=seed, l2_bytes=config.l2.size_bytes)
            if warm
            else None
        )
        stats = simulate(trace, config, warmup_trace=warmup, fast=False)
        for counted, derived in COUNTER_IDENTITIES[identity](stats, config):
            assert counted == derived


class TestDeterministicEdgeCases:
    """Non-random regression anchors for the trickiest specializations."""

    @pytest.mark.parametrize(
        "config",
        [
            SystemConfig().with_prefetch(enabled=True, scheduled=False),
            SystemConfig().with_prefetch(
                enabled=True, throttle=True, throttle_window=64,
                throttle_min_accuracy=0.6,
            ),
            SystemConfig().with_prefetch(
                enabled=True, region_bytes=512, queue_entries=2
            ),
            SystemConfig().with_prefetch(enabled=True, insertion="mru"),
            SystemConfig(perfect_l2=True),
            SystemConfig(perfect_memory=True),
            SystemConfig(software_prefetch=True),
            SystemConfig().with_backend("tldram").with_prefetch(enabled=True),
            SystemConfig().with_backend("chargecache").with_prefetch(enabled=True),
            SystemConfig().with_backend("ddr").with_prefetch(enabled=True),
            replace(
                SystemConfig(), l2=replace(SystemConfig().l2, assoc=1)
            ).with_prefetch(enabled=True),
        ],
        ids=[
            "unscheduled-prefetch",
            "throttled-prefetch",
            "tiny-regions",
            "mru-insert",
            "perfect-l2",
            "perfect-memory",
            "software-prefetch",
            "tldram-prefetch",
            "chargecache-prefetch",
            "ddr-prefetch",
            "direct-mapped-l2-prefetch",
        ],
    )
    def test_named_variant_matches_reference(self, config):
        """``direct-mapped-l2-prefetch`` is the one geometry where a
        drained prefetch can evict the block a demand just hit (the next
        test makes that happen while the block's data is in flight)."""
        trace = build_trace("swim", 1_500, seed=0)
        warmup = build_warmup_trace("swim", seed=0, l2_bytes=config.l2.size_bytes)
        reference = simulate(trace, config, warmup_trace=warmup, fast=False)
        fast = simulate(trace, config, warmup_trace=warmup, fast=True)
        assert _dump(fast) == _dump(reference)

    def test_drain_evicting_a_delayed_hit_block(self):
        """Four arrays one L2 size apart, walked in lockstep through a
        64 KB direct-mapped L2 with region prefetching: a prefetch the
        gap drain issues during an L2 hit evicts the hit block while its
        data is still in flight, and the hit must still wait for that
        data (the reference reads the evicted line's ready time).  No
        benchmark trace at these sizes reaches that case."""
        size, n = 64 << 10, 800
        rng = np.random.default_rng(1)
        addrs = 0x1000000 + rng.integers(0, 4, n) * size + (np.arange(n) // 8) * 64
        trace = Trace(
            name="lockstep",
            kinds=rng.choice(np.array([0, 1], dtype=np.uint8), n, p=[0.8, 0.2]),
            gaps=rng.integers(0, 20, n).astype(np.uint16),
            addrs=addrs,
            deps=np.zeros(n, dtype=np.uint8),
            pcs=np.ones(n, dtype=np.uint32),
        )
        config = replace(
            SystemConfig(), l2=replace(SystemConfig().l2, assoc=1, size_bytes=size)
        ).with_prefetch(enabled=True)
        reference = simulate(trace, config, fast=False)
        assert reference.prefetches_late > 0
        assert _dump(simulate(trace, config)) == _dump(reference)

    @pytest.mark.parametrize(
        "first,second",
        [(0, 1), (1, 2), (2, 0)],
        ids=["chargecache-tldram", "tldram-prefetch", "prefetch-chargecache"],
    )
    def test_no_state_leaks_between_points(self, first, second):
        """ChargeCache, TL-DRAM and prefetching DRDRAM points run as A, B,
        A in one process, each cold with its warm-up: every run equals the
        reference.  Any state a point left behind (row stamps, near-segment
        rows, prefetch queue, cache lines) would change a later point."""
        configs = [
            SystemConfig().with_backend("chargecache"),
            SystemConfig().with_backend("tldram"),
            SystemConfig().with_prefetch(enabled=True),
        ]
        main = build_trace("mcf", 1_500, seed=0)
        warmup = build_warmup_trace(
            "mcf", seed=0, l2_bytes=configs[0].l2.size_bytes
        )
        references = {
            i: _dump(simulate(main, configs[i], warmup_trace=warmup, fast=False))
            for i in (first, second)
        }
        for i in (first, second, first):
            fast = simulate(main, configs[i], warmup_trace=warmup)
            assert _dump(fast) == references[i], i


#: one configuration per kind of state a post-prefix snapshot carries.
MEMO_CONFIGS = {
    "drdram": SystemConfig(),
    "region-prefetch": SystemConfig().with_prefetch(enabled=True),
    "stride-prefetch": SystemConfig().with_prefetch(enabled=True, engine="stride"),
    "closed-page": replace(
        SystemConfig(), dram=replace(SystemConfig().dram, row_policy="closed")
    ),
    "multi-packet": SystemConfig().with_block_size(256),
    "tldram": SystemConfig().with_backend("tldram"),
    "chargecache": SystemConfig().with_backend("chargecache"),
    "ddr": SystemConfig().with_backend("ddr"),
}


class TestPrefixMemo:
    """Every warm-up opens with the same filler at one L2 size, so the
    fast kernel simulates it once per configuration and process and
    restores the state after it for the next benchmark.  A restored
    point must equal the same point simulated whole, on both kernels."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        SNAPSHOTS.clear()
        yield
        SNAPSHOTS.clear()

    @staticmethod
    def _run(benchmark, config, **options):
        main = build_trace(benchmark, 1_500, seed=0)
        warmup = build_warmup_trace(benchmark, seed=0, l2_bytes=config.l2.size_bytes)
        return _dump(simulate(main, config, warmup_trace=warmup, **options))

    @pytest.mark.parametrize("name", sorted(MEMO_CONFIGS))
    def test_restored_point_matches_whole_runs(self, name):
        """A (mcf) then B (swim): B restores A's prefix snapshot, and
        equals B with the memo cleared and B on the reference kernel."""
        config = MEMO_CONFIGS[name]
        self._run("mcf", config)
        assert (SNAPSHOTS.hits, SNAPSHOTS.misses, len(SNAPSHOTS)) == (0, 1, 1)
        restored = self._run("swim", config)
        assert SNAPSHOTS.hits == 1
        SNAPSHOTS.clear()
        assert restored == self._run("swim", config)
        assert SNAPSHOTS.misses == 1
        assert restored == self._run("swim", config, fast=False)

    @pytest.mark.parametrize("name", sorted(MEMO_CONFIGS))
    def test_restored_caches_equal_the_simulated_prefix(self, name, monkeypatch):
        """The caches a restore builds equal those of the system that
        simulated the prefix, as they stood when it took the snapshot:
        each set's block order, every ready time, the dirty and the
        prefetched sets.  A 1 MB-L2 machine's snapshot stays under 0.4 MB."""
        config = MEMO_CONFIGS[name]
        caches = []
        snapshot, restore = FastSystem._snapshot, FastSystem._restore

        def record(system):
            caches.append(copy.deepcopy((system._l1i, system._l1d, system._l2)))

        def spy_snapshot(system, *state):
            record(system)
            return snapshot(system, *state)

        def spy_restore(system, taken):
            core = restore(system, taken)
            record(system)
            return core

        monkeypatch.setattr(FastSystem, "_snapshot", spy_snapshot)
        monkeypatch.setattr(FastSystem, "_restore", spy_restore)
        self._run("mcf", config)
        self._run("swim", config)
        assert (SNAPSHOTS.hits, SNAPSHOTS.misses) == (1, 1)
        simulated, restored = caches
        assert restored == simulated
        if config.l2.size_bytes == 1 << 20:
            assert SNAPSHOTS.nbytes < 400_000

    @pytest.mark.parametrize("name", sorted(MEMO_CONFIGS))
    def test_a_snapshot_shares_nothing_with_a_live_system(self, name):
        """A, B, A: B runs on state restored from A's snapshot, and the
        second A still equals the first, so B changed nothing in it."""
        config = MEMO_CONFIGS[name]
        first = self._run("mcf", config)
        self._run("swim", config)
        assert self._run("mcf", config) == first
        assert SNAPSHOTS.hits == 2
