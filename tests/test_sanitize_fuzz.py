"""Property-based fuzzing of the sanitized simulator.

Hypothesis drives randomly drawn configurations and workloads through a
fully sanitized :class:`System` and asserts the two properties the
sanitizer is built on:

* a correct simulator never trips a checker, whatever the config; and
* the statistics are byte-identical with the sanitizer on or off.

Under ``HYPOTHESIS_PROFILE=ci`` (see ``conftest.py``) the examples are
derandomized, so CI runs are reproducible; locally the defaults keep
exploring fresh configurations.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.mshr import MSHRFile
from repro.core.config import CacheConfig, DRAMConfig, PrefetchConfig, SystemConfig
from repro.core.stats import SimStats
from repro.core.system import System
from repro.sanitize import Sanitizer
from repro.workloads import build_trace

#: memory-intensive picks spanning the paper's workload behaviours
#: (streaming, pointer-chasing, mixed, cache-friendly).
BENCHMARK_POOL = ("swim", "mcf", "art", "equake", "gzip", "twolf")


@st.composite
def system_configs(draw):
    """A valid SystemConfig spanning the dimensions the paper varies."""
    prefetch = PrefetchConfig(
        enabled=draw(st.booleans()),
        engine=draw(st.sampled_from(["region", "stride"])),
        policy=draw(st.sampled_from(["lifo", "fifo"])),
        region_bytes=draw(st.sampled_from([1024, 4096])),
        queue_entries=draw(st.sampled_from([4, 16])),
        scheduled=draw(st.booleans()),
    )
    dram = DRAMConfig(
        mapping=draw(st.sampled_from(["base", "xor"])),
        row_policy=draw(st.sampled_from(["open", "closed"])),
        channels=draw(st.sampled_from([1, 4])),
    )
    assoc = draw(st.sampled_from([1, 2, 4]))
    l2 = CacheConfig(
        size_bytes=draw(st.sampled_from([64 * 1024, 256 * 1024])),
        assoc=assoc,
        block_bytes=draw(st.sampled_from([64, 128])),
        hit_latency=12,
        mshrs=draw(st.sampled_from([4, 8])),
    )
    return SystemConfig(prefetch=prefetch, dram=dram, l2=l2)


class TestFuzzSanitizedSystem:
    @settings(max_examples=12, deadline=None)
    @given(
        config=system_configs(),
        benchmark=st.sampled_from(BENCHMARK_POOL),
        refs=st.integers(min_value=300, max_value=1_500),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_random_configs_run_clean_and_identical(
        self, config, benchmark, refs, seed
    ):
        trace = build_trace(benchmark, refs, seed=seed)
        plain = System(config).run(trace)
        sanitized_system = System(config, sanitize=True)
        sanitized = sanitized_system.run(trace)
        assert sanitized_system.san.violations == 0
        assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
            sanitized.to_dict(), sort_keys=True
        )


class TestFuzzCacheOperations:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["access", "write", "fill", "fill-dirty", "inval"]),
                st.integers(min_value=0, max_value=255),
            ),
            max_size=60,
        )
    )
    def test_honest_operation_sequences_never_violate(self, ops):
        """Arbitrary use of the cache's public API keeps every invariant."""
        san = Sanitizer()
        config = CacheConfig(size_bytes=4096, assoc=2, block_bytes=64, hit_latency=1)
        cache = SetAssociativeCache(config, SimStats().l2, probe=san, level="l2")
        clock = 0.0
        for op, block_index in ops:
            clock += 1.0
            addr = block_index * 64
            if op == "access":
                cache.access(addr, is_write=False)
            elif op == "write":
                cache.access(addr, is_write=True)
            elif op == "fill":
                cache.fill(addr, ready_time=clock)
            elif op == "fill-dirty":
                cache.fill(addr, ready_time=clock, dirty=True)
            else:
                cache.invalidate(addr)
        san.quiesce(clock)
        assert san.violations == 0


class TestFuzzMSHROperations:
    @settings(max_examples=40, deadline=None)
    @given(
        latencies=st.lists(
            st.floats(min_value=0.5, max_value=200.0, allow_nan=False),
            max_size=40,
        ),
        entries=st.integers(min_value=1, max_value=8),
    )
    def test_honest_acquire_commit_sequences_never_violate(self, latencies, entries):
        san = Sanitizer()
        mshrs = MSHRFile(entries, probe=san, level="l1d")
        clock = 0.0
        last = 0.0
        for latency in latencies:
            clock += 1.0
            issue = mshrs.acquire(clock)
            completion = issue + latency
            mshrs.commit(completion)
            last = max(last, completion)
        mshrs.quiesce(last)
        assert san.violations == 0
