"""Property-based A/B equivalence of the fast kernel vs the reference.

The contract of :mod:`repro.kernel` is byte-identity: every statistic of
the specialized interpreter must equal the reference simulator's, for
every supported configuration, with and without warm-up, cold and
through the warm-state memo, one point at a time and batched.  Hypothesis
drives randomly drawn configurations spanning the paper's axes (DRAM
mapping and row policy, L2 geometry, both prefetch engines with their
policy/scheduling/throttle variants, idealized hierarchies, non-dyadic
clocks) and every registered DRAM backend with its tuning knobs (so the
TL-DRAM and ChargeCache row-timing policies ride through every property)
through both kernels and asserts exact ``to_dict`` equality.

Under ``HYPOTHESIS_PROFILE=ci`` (see ``conftest.py``) the examples are
derandomized, so CI runs are reproducible; locally the defaults keep
exploring fresh configurations.
"""

import json

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
from repro.kernel import (
    clear_warm_cache,
    compile_trace,
    kernel_supports,
    simulate_batch,
)
from repro.kernel import fastcore
from repro.kernel.fastcore import FastSystem
from repro.workloads import build_trace
from repro.workloads.registry import build_warmup_trace

#: memory-intensive picks spanning the paper's workload behaviours
#: (streaming, pointer-chasing, mixed, cache-friendly).
BENCHMARK_POOL = ("swim", "mcf", "art", "equake", "gzip", "parser")


def _dump(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=True)


@st.composite
def system_configs(draw):
    """A valid SystemConfig spanning the axes the fast kernel specializes."""
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
    l2 = CacheConfig(
        size_bytes=draw(st.sampled_from([64 * 1024, 256 * 1024])),
        assoc=draw(st.sampled_from([1, 2, 4])),
        block_bytes=draw(st.sampled_from([128, 256])),
        hit_latency=12,
        mshrs=draw(st.sampled_from([4, 8])),
    )
    core = CoreConfig(
        clock_ghz=draw(st.sampled_from([1.0, 1.3, 1.6])),
        issue_width=draw(st.sampled_from([2, 4])),
    )
    return SystemConfig(
        core=core,
        l2=l2,
        dram=dram,
        prefetch=prefetch,
        perfect_l2=draw(st.booleans()),
        perfect_memory=draw(st.booleans()),
        software_prefetch=draw(st.booleans()),
    )


class TestFuzzFastVsReference:
    @settings(max_examples=14, deadline=None)
    @given(
        config=system_configs(),
        benchmark=st.sampled_from(BENCHMARK_POOL),
        refs=st.integers(min_value=300, max_value=1_200),
        seed=st.integers(min_value=0, max_value=3),
        warm=st.booleans(),
    )
    def test_fast_point_matches_reference(self, config, benchmark, refs, seed, warm):
        """One point, cold fast kernel vs reference, warm-up optional."""
        assert kernel_supports(config)
        clear_warm_cache()
        trace = build_trace(benchmark, refs, seed=seed)
        warmup = (
            build_warmup_trace(benchmark, seed=seed, l2_bytes=config.l2.size_bytes)
            if warm
            else None
        )
        reference = simulate(trace, config, warmup_trace=warmup, fast=False)
        fast = simulate(trace, config, warmup_trace=warmup, fast=True)
        assert _dump(fast) == _dump(reference)

    @settings(max_examples=8, deadline=None)
    @given(
        config=system_configs(),
        benchmark=st.sampled_from(BENCHMARK_POOL),
        refs=st.integers(min_value=300, max_value=800),
    )
    def test_warm_memo_restore_matches_cold_run(self, config, benchmark, refs):
        """The memoized warm-state restore path yields the same statistics
        as a freshly simulated warm-up — for arbitrary configurations."""
        clear_warm_cache()
        warmup = compile_trace(
            build_warmup_trace(benchmark, seed=0, l2_bytes=config.l2.size_bytes)
        )
        main = compile_trace(build_trace(benchmark, refs, seed=0))

        cold = FastSystem(config)
        cold.warmup(warmup)  # simulates, then snapshots into the memo
        restored = FastSystem(config)
        restored.warmup(warmup)  # restores the snapshot
        assert _dump(restored.run(main)) == _dump(cold.run(main))

    @settings(max_examples=8, deadline=None)
    @given(
        config=system_configs(),
        benchmark=st.sampled_from(BENCHMARK_POOL),
        refs=st.integers(min_value=300, max_value=800),
        warm=st.booleans(),
    )
    def test_singleton_batch_equals_simulate(self, config, benchmark, refs, warm):
        """``simulate_batch([c])`` is exactly ``[simulate(c)]``."""
        clear_warm_cache()
        trace = build_trace(benchmark, refs, seed=0)
        warmup = (
            build_warmup_trace(benchmark, seed=0, l2_bytes=config.l2.size_bytes)
            if warm
            else None
        )
        batched = simulate_batch(trace, [config], warmup_trace=warmup, fast=True)
        assert len(batched) == 1
        reference = simulate(trace, config, warmup_trace=warmup, fast=False)
        assert _dump(batched[0]) == _dump(reference)

    @settings(max_examples=6, deadline=None)
    @given(
        configs=st.lists(system_configs(), min_size=2, max_size=3),
        benchmark=st.sampled_from(BENCHMARK_POOL),
        refs=st.integers(min_value=300, max_value=800),
    )
    def test_batch_equals_independent_simulations(self, configs, benchmark, refs):
        """A multi-config batch over one shared trace equals N independent
        reference simulations, config for config."""
        clear_warm_cache()
        trace = build_trace(benchmark, refs, seed=0)
        batched = simulate_batch(trace, configs, fast=True)
        for config, stats in zip(configs, batched):
            assert _dump(stats) == _dump(simulate(trace, config, fast=False))


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
        ],
        ids=[
            "unscheduled-prefetch",
            "throttled-prefetch",
            "tiny-regions",
            "mru-insert",
            "perfect-l2",
            "perfect-memory",
            "software-prefetch",
        ],
    )
    def test_named_variant_matches_reference(self, config):
        clear_warm_cache()
        trace = build_trace("swim", 1_500, seed=0)
        warmup = build_warmup_trace("swim", seed=0, l2_bytes=config.l2.size_bytes)
        reference = simulate(trace, config, warmup_trace=warmup, fast=False)
        fast = simulate(trace, config, warmup_trace=warmup, fast=True)
        assert _dump(fast) == _dump(reference)

    def test_warm_memo_never_aliases_policy_state(self):
        """One memoized warm-up per policy backend, restored into fresh
        systems that each run a different main trace: every run equals
        the reference.  A snapshot sharing its row-timing policy with a
        restored system (either way) would carry one run's row stamps or
        near-segment rows into the next."""
        clear_warm_cache()
        mains = [build_trace("mcf", 1_500, seed=seed) for seed in (0, 1)]
        for backend in ("chargecache", "tldram"):
            config = SystemConfig().with_backend(backend)
            warmup = build_warmup_trace("mcf", seed=0, l2_bytes=config.l2.size_bytes)
            warm = compile_trace(warmup)
            references = [
                _dump(simulate(main, config, warmup_trace=warmup, fast=False))
                for main in mains
            ]
            for i in (0, 1, 0, 1):
                system = FastSystem(config)
                system.warmup(warm)
                assert (config, warm.digest) in fastcore._WARM_MEMO
                assert _dump(system.run(compile_trace(mains[i]))) == references[i]

    def test_batch_mixes_supported_and_fallback_geometries(self):
        """Unsupported geometries inside a batch silently take the
        reference kernel while the rest stay fast — results identical."""
        odd_l1i = SystemConfig(
            l1i=CacheConfig(
                size_bytes=16 * 1024, assoc=1, block_bytes=256, hit_latency=1
            )
        )
        configs = [SystemConfig(), odd_l1i]
        assert kernel_supports(configs[0]) and not kernel_supports(configs[1])
        trace = build_trace("mcf", 600, seed=0)
        batched = simulate_batch(trace, configs, fast=True)
        for config, stats in zip(configs, batched):
            assert _dump(stats) == _dump(simulate(trace, config, fast=False))
