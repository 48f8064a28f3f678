"""Unit tests for the synthetic workload layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import AccessKind
from repro.core.config import SystemConfig
from repro.cpu.trace import Trace
from repro.kernel import FastSystem, compile_trace
from repro.workloads import (
    BENCHMARKS,
    FIGURE5_WINNERS,
    HIGH_ACCURACY,
    LOW_ACCURACY,
    PROFILES,
    HotColdComponent,
    PointerChaseComponent,
    RandomComponent,
    StreamComponent,
    StridedComponent,
    build_components,
    build_trace,
    profile,
)
from repro.workloads.registry import (
    CODE_BASE,
    FILLER_FACTOR,
    FILLER_MAX,
    build_warmup_trace,
)


class TestProfileRegistry:
    def test_all_26_spec2000_benchmarks_present(self):
        assert len(BENCHMARKS) == 26
        for name in ("swim", "mcf", "gcc", "eon", "wupwise"):
            assert name in BENCHMARKS

    def test_figure5_winners_match_paper(self):
        assert set(FIGURE5_WINNERS) == {
            "applu", "equake", "facerec", "fma3d", "gap",
            "mesa", "mgrid", "parser", "swim", "wupwise",
        }

    def test_accuracy_classes_cover_suite(self):
        """Table 3's split covers all 26 (mesa appears in both lists in
        the paper; here it is in the low-accuracy list)."""
        assert set(HIGH_ACCURACY) | set(LOW_ACCURACY) == set(BENCHMARKS)

    def test_profile_lookup(self):
        assert profile("swim").name == "swim"
        with pytest.raises(KeyError):
            profile("doom")

    def test_component_weights_positive(self):
        for prof in PROFILES.values():
            assert all(c.weight > 0 for c in prof.components)

    def test_winner_profiles_are_stream_heavy(self):
        for name in FIGURE5_WINNERS:
            kinds = {c.kind for c in profile(name).components}
            assert "stream" in kinds


class TestComponents:
    def test_layout_is_disjoint(self):
        for name in BENCHMARKS:
            comps = build_components(profile(name))
            spans = sorted((c.base, c.base + c.footprint) for c in comps)
            for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
                assert hi1 <= lo2

    def test_layout_below_code_segment(self):
        for name in BENCHMARKS:
            for comp in build_components(profile(name)):
                assert comp.base + comp.footprint <= CODE_BASE

    def test_stream_component_sequential(self):
        rng = np.random.default_rng(0)
        comp = StreamComponent(0, 0, footprint=4096, streams=1, stride=8)
        addrs = [comp.next_ref(rng)[0] for _ in range(10)]
        deltas = {b - a for a, b in zip(addrs, addrs[1:])}
        assert deltas == {8}

    def test_stream_wraps_within_footprint(self):
        rng = np.random.default_rng(0)
        comp = StreamComponent(0, 0, footprint=256, streams=1, stride=8)
        addrs = [comp.next_ref(rng)[0] for _ in range(100)]
        assert max(addrs) < 256

    def test_streams_do_not_alias_cache_ways(self):
        """Concurrent streams must differ modulo the 32KB L1 way size."""
        rng = np.random.default_rng(0)
        comp = StreamComponent(0, 0, footprint=8 << 20, streams=4, stride=8)
        offsets = {comp.next_ref(rng)[0] % (32 * 1024) for _ in range(4)}
        assert len(offsets) == 4

    def test_swpf_emitted_once_per_block(self):
        rng = np.random.default_rng(0)
        comp = StreamComponent(0, 0, footprint=1 << 16, streams=1, stride=8, swpf_distance=512)
        swpfs = sum(1 for _ in range(64) if comp.next_ref(rng)[2] is not None)
        assert swpfs == 64 // 8  # one per 64B block at stride 8

    def test_pointer_chase_marks_deps(self):
        rng = np.random.default_rng(0)
        comp = PointerChaseComponent(0, 0, footprint=1 << 20, parallel_chains=2)
        refs = [comp.next_ref(rng) for _ in range(8)]
        assert all(dep == 1 for _, dep, _, _ in refs)
        assert {sub for _, _, _, sub in refs} == {0, 1}

    def test_random_component_within_footprint(self):
        rng = np.random.default_rng(0)
        comp = RandomComponent(0, 0x1000, footprint=4096)
        for _ in range(100):
            addr, dep, swpf, _ = comp.next_ref(rng)
            assert 0x1000 <= addr < 0x2000
            assert dep == 0

    def test_hotcold_tier_fractions(self):
        rng = np.random.default_rng(0)
        comp = HotColdComponent(
            0, 0, footprint=1 << 20,
            hot_bytes=1024, hot_fraction=0.8, warm_bytes=4096, warm_fraction=0.15,
        )
        hot = sum(1 for _ in range(2000) if comp.next_ref(rng)[0] < 1024)
        assert 0.7 < hot / 2000 < 0.9

    def test_hotcold_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            HotColdComponent(0, 0, 4096, hot_fraction=0.8, warm_fraction=0.5)

    def test_strided_component_stride(self):
        rng = np.random.default_rng(0)
        comp = StridedComponent(0, 0, footprint=1 << 20, stride=520, streams=1)
        a1 = comp.next_ref(rng)[0]
        a2 = comp.next_ref(rng)[0]
        assert a2 - a1 == 520


class TestTraceGeneration:
    def test_deterministic(self):
        a = build_trace("swim", 2000, seed=3)
        b = build_trace("swim", 2000, seed=3)
        assert np.array_equal(a.addrs, b.addrs)
        assert np.array_equal(a.kinds, b.kinds)

    def test_seed_changes_trace(self):
        a = build_trace("twolf", 2000, seed=0)
        b = build_trace("twolf", 2000, seed=1)
        assert not np.array_equal(a.addrs, b.addrs)

    def test_record_count_at_least_requested(self):
        trace = build_trace("gcc", 3000)
        assert len(trace) >= 3000  # plus ifetch/swpf records

    def test_write_fraction_roughly_respected(self):
        trace = build_trace("swim", 5000)
        loads = int(np.sum(trace.kinds == AccessKind.LOAD))
        stores = int(np.sum(trace.kinds == AccessKind.STORE))
        frac = stores / (loads + stores)
        assert abs(frac - profile("swim").write_fraction) < 0.1

    def test_ifetch_records_present(self):
        trace = build_trace("gcc", 2000)
        assert int(np.sum(trace.kinds == AccessKind.IFETCH)) > 0

    def test_swpf_only_for_swpf_profiles(self):
        swim = build_trace("swim", 3000)
        twolf = build_trace("twolf", 3000)
        assert int(np.sum(swim.kinds == AccessKind.SWPF)) > 0
        assert int(np.sum(twolf.kinds == AccessKind.SWPF)) == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_trace("swim", 0)


class TestWarmupTrace:
    def test_covers_resident_sets(self):
        trace = build_warmup_trace("eon")
        addrs = set(trace.addrs.tolist())
        comps = build_components(profile("eon"))
        for comp in comps:
            assert comp.base in addrs

    def test_filler_scales_with_l2(self):
        small = build_warmup_trace("eon", l2_bytes=1 << 20)
        large = build_warmup_trace("eon", l2_bytes=4 << 20)
        assert len(large) > len(small)

    def test_shared_prefix_is_the_filler_every_benchmark_opens_with(self):
        """At one L2 size every warm-up opens with the same filler
        records, and ``shared_prefix`` ends exactly where the filler
        does: the fast kernel memoizes the machine state there."""
        for l2_bytes in (1 << 20, 4 << 20):
            warms = [build_warmup_trace(name, l2_bytes=l2_bytes) for name in BENCHMARKS]
            prefix = warms[0].shared_prefix
            assert prefix == min(int(l2_bytes * FILLER_FACTOR), FILLER_MAX) // 64
            for warm in warms:
                assert warm.shared_prefix == prefix < len(warm)
                for column in ("kinds", "gaps", "addrs", "deps", "pcs"):
                    assert np.array_equal(
                        getattr(warm, column)[:prefix], getattr(warms[0], column)[:prefix]
                    )
                assert set(warm.pcs[:prefix].tolist()) == {0xFFFE}
                assert warm.pcs[prefix] != 0xFFFE

    def test_huge_components_skipped(self):
        """The warm-up walks no component's whole footprint, so mcf's
        24MB chase pool costs it nothing."""
        trace = build_warmup_trace("mcf")
        assert len(trace) < 200_000


def _with_store_sweep(warm: Trace, name: str) -> Trace:
    """``warm`` after a store sweep over each component's footprint:
    capped at 3MB, skipping components above 4MB (the segment the
    warm-up once opened with)."""
    addrs, pcs = [], []
    for comp in build_components(profile(name)):
        if comp.footprint > 4 << 20:
            continue
        offsets = np.arange(0, min(comp.footprint, 3 << 20), 64, dtype=np.int64)
        addrs.append(comp.base + offsets)
        pcs.append(np.full(len(offsets), comp.cid << 8, dtype=np.uint32))
    sweep = np.concatenate(addrs)
    return Trace(
        name=warm.name,
        kinds=np.concatenate(
            [np.full(len(sweep), AccessKind.STORE, dtype=np.uint8), warm.kinds]
        ),
        gaps=np.concatenate([np.zeros(len(sweep), dtype=np.uint16), warm.gaps]),
        addrs=np.concatenate([sweep, warm.addrs]),
        deps=np.concatenate([np.zeros(len(sweep), dtype=np.uint8), warm.deps]),
        pcs=np.concatenate(pcs + [warm.pcs]),
    )


def _cache_lines(system: FastSystem):
    """Every cache's sets as (block, dirty, prefetched), MRU first."""
    return [
        [[(line[0], line[1], line[2]) for line in lines] for lines in sets]
        for sets in (system._l1i_sets, system._l1d_sets, system._l2_sets)
    ]


@pytest.mark.parametrize(
    "config",
    [
        SystemConfig(),
        SystemConfig().with_channels(4).with_mapping("base"),
        SystemConfig().with_l2_size(4 << 20),
        SystemConfig().with_block_size(256),
        SystemConfig().with_prefetch(enabled=True),
    ],
    ids=["default", "4ch-base", "l2-4mb", "block-256", "prefetch"],
)
def test_store_sweep_before_the_filler_leaves_no_cache_state(config):
    """The filler covers 1.25x the L2 contiguously, so every L1D and L2
    set takes at least as many new blocks as it has ways: a store sweep
    over the data before it changes no line, dirty bit, prefetched bit
    or LRU position of any cache once the warm-up ends."""
    for name in BENCHMARKS:
        warm = build_warmup_trace(name, l2_bytes=config.l2.size_bytes)
        systems = []
        for trace in (warm, _with_store_sweep(warm, name)):
            system = FastSystem(config)
            system.warmup(compile_trace(trace))
            systems.append(system)
        assert _cache_lines(systems[0]) == _cache_lines(systems[1]), name


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(BENCHMARKS),
    refs=st.integers(min_value=1, max_value=500),
)
def test_any_profile_generates_valid_traces(name, refs):
    trace = build_trace(name, refs, seed=1)
    assert len(trace) >= refs
    assert trace.instruction_count > 0
    assert int(trace.addrs.min()) >= 0
    assert int(trace.addrs.max()) < 256 << 20
