"""Unit tests for the ``repro.kernel`` performance layer.

Covers the compiled-trace columns (against the reference per-record
computations), the memory contract (no compilation outlives its point;
the post-prefix snapshot memo stays within its byte bound), the
content-addressed on-disk trace store and where it lives, the kernel
rule (fast unless observed, sanitized or ``fast=False``, whatever
``REPRO_FAST`` says), and every L1 geometry on the fast kernel.
"""

import gc
import json
import warnings
import weakref

import numpy as np
import pytest

from repro.core.config import CacheConfig, DRAMConfig, SystemConfig
from repro.core.system import simulate
from repro.dram.mapping import make_mapping
from repro.kernel import (
    FastSystem,
    TraceStore,
    batch,
    compile_trace,
    memo,
    simulate_fast,
    store as store_module,
    trace_store,
)
from repro.runner.runner import Runner, SimPoint
from repro.runner.worker import execute_point
from repro.workloads import build_trace
from repro.workloads.registry import build_warmup_trace


def _trace(benchmark="mcf", refs=800, seed=0):
    return build_trace(benchmark, refs, seed=seed)


def _same_trace(a, b):
    return a.name == b.name and a.shared_prefix == b.shared_prefix and all(
        np.array_equal(getattr(a, column), getattr(b, column))
        for column in ("kinds", "gaps", "addrs", "deps", "pcs")
    )


@pytest.fixture
def fast_systems_built(monkeypatch):
    """Backends of the ``FastSystem`` instances built from now on."""
    built = []

    class SpyFastSystem(batch.FastSystem):
        def __init__(self, config):
            built.append(config.dram.backend)
            super().__init__(config)

    monkeypatch.setattr(batch, "FastSystem", SpyFastSystem)
    return built


class TestCompiledColumns:
    def test_base_columns_match_trace(self):
        """Whole, and from a start record on (a restored warm-up's)."""
        trace = _trace()
        compiled = compile_trace(trace)
        for start in (0, 100):
            kinds, gaps, addrs, deps, pcs = compiled.base_columns(start)
            assert kinds == trace.kinds[start:].tolist()
            assert gaps == trace.gaps[start:].tolist()
            assert addrs == trace.addrs[start:].tolist()
            assert deps == trace.deps[start:].tolist()
            assert pcs == trace.pcs[start:].tolist()

    def test_l1_columns_match_reference_set_index(self):
        from repro.cache.hierarchy import AccessKind

        trace = _trace("swim")
        config = SystemConfig()
        compiled = compile_trace(trace)
        blocks, sets = compiled.l1_columns(config.l1i, config.l1d)
        ifetch = int(AccessKind.IFETCH)
        for i in range(len(trace)):
            cache = config.l1i if int(trace.kinds[i]) == ifetch else config.l1d
            addr = int(trace.addrs[i])
            block = addr & ~(cache.block_bytes - 1)
            assert blocks[i] == block
            assert sets[i] == (block >> cache.block_offset_bits) & (
                cache.num_sets - 1
            )

    @pytest.mark.parametrize("mapping", ["base", "xor"])
    def test_coord_map_matches_reference_translate(self, mapping):
        config = SystemConfig()
        dram = DRAMConfig(mapping=mapping)
        trace = _trace()
        compiled = compile_trace(trace)
        coords = compiled.coord_map(dram, config.l2.block_bytes)
        reference = make_mapping(dram)
        unique_blocks = {
            int(a) & ~(config.l2.block_bytes - 1) for a in trace.addrs
        }
        assert set(coords) == unique_blocks
        for block in sorted(unique_blocks)[:200]:
            ref = reference.translate(block)
            assert coords[block] == (ref.bank, ref.row)


class TestCompileMemo:
    """``compile_trace`` memoizes nothing: a compilation lives exactly as
    long as the point that built it."""

    def test_no_compiled_trace_outlives_its_point(self, monkeypatch):
        built = []
        compile_original = batch.compile_trace

        def spy_compile(trace):
            compiled = compile_original(trace)
            built.append(weakref.ref(compiled))
            return compiled

        monkeypatch.setattr(batch, "compile_trace", spy_compile)
        config = SystemConfig().with_prefetch(enabled=True)
        main = _trace("swim", 600)
        warm = build_warmup_trace("swim", seed=0, l2_bytes=config.l2.size_bytes)
        simulate(main, config, warmup_trace=warm, fast=True)
        gc.collect()
        assert len(built) == 2  # the warm-up trace and the measured trace
        assert [ref() for ref in built] == [None, None]


class TestSnapshotMemo:
    def test_never_exceeds_its_byte_bound(self, monkeypatch):
        """Warm-ups of four configurations into a memo that holds two
        snapshots: it evicts the least recently used, never holds more
        bytes than its bound, and keeps no snapshot larger than it."""
        warm = compile_trace(build_warmup_trace("swim", seed=0, l2_bytes=1 << 20))
        configs = [SystemConfig().with_clock(ghz) for ghz in (1.0, 1.25, 1.5, 2.0)]
        roomy = memo.SnapshotMemo(limit=1 << 30)
        monkeypatch.setattr(memo, "SNAPSHOTS", roomy)
        FastSystem(configs[0]).warmup(warm)
        size = roomy.nbytes
        bounded = memo.SnapshotMemo(limit=size * 5 // 2)
        monkeypatch.setattr(memo, "SNAPSHOTS", bounded)
        for config in configs:
            FastSystem(config).warmup(warm)
            assert 0 < bounded.nbytes <= bounded.limit
            assert len(bounded) <= 2
        assert bounded.misses == 4 and len(bounded) == 2
        FastSystem(configs[0]).warmup(warm)  # evicted: a miss again
        assert bounded.misses == 5 and bounded.nbytes <= bounded.limit
        tiny = memo.SnapshotMemo(limit=size - 1)
        monkeypatch.setattr(memo, "SNAPSHOTS", tiny)
        FastSystem(configs[0]).warmup(warm)
        assert (len(tiny), tiny.nbytes) == (0, 0)

    def test_a_policy_pickle_cannot_copy_keeps_no_snapshot(self, monkeypatch):
        """A plug-in backend's row-timing policy of a local class cannot
        be snapshotted: its points keep no snapshot and still equal the
        reference kernel's."""
        from repro.dram.backends import ChargeCachePolicy, get_backend

        class LocalPolicy(ChargeCachePolicy):
            pass

        backend = get_backend("chargecache")
        make_policy = type(backend).make_policy

        def local_policy(dram, core):
            policy = make_policy(backend, dram, core)
            policy.__class__ = LocalPolicy
            return policy

        monkeypatch.setattr(backend, "make_policy", local_policy)
        monkeypatch.setattr(memo, "SNAPSHOTS", memo.SnapshotMemo(limit=1 << 30))
        config = SystemConfig().with_backend("chargecache")
        warm = build_warmup_trace("swim", seed=0, l2_bytes=config.l2.size_bytes)
        main = _trace("swim", 600)
        for _ in range(2):
            fast = simulate(main, config, warmup_trace=warm).to_dict()
            assert fast == simulate(main, config, warmup_trace=warm, fast=False).to_dict()
        assert (len(memo.SNAPSHOTS), memo.SNAPSHOTS.misses) == (0, 2)


class TestTraceStore:
    def test_save_load_roundtrip(self, tmp_path):
        """Any trace round-trips, its ``shared_prefix`` with it."""
        store = TraceStore(tmp_path)
        warm = build_warmup_trace("mcf", seed=0, l2_bytes=1 << 20)
        main = _trace()
        assert warm.shared_prefix > 0
        for trace in (warm, main):
            key = store.recipe_key(trace.name, 800, 0)
            assert store.save(key, trace)
            loaded = store.load(key)
            assert loaded is not None
            assert _same_trace(loaded, trace)

    def test_load_miss_returns_none(self, tmp_path):
        assert TraceStore(tmp_path).load("0" * 64) is None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.recipe_key("mcf", 800, 0)
        assert store.save(key, _trace())
        path = tmp_path / f"{key}.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.load(key) is None

    def test_empty_entry_degrades_to_miss(self, tmp_path):
        """A zero-length entry (a rename that outlived its data in a
        crash) is a miss, not numpy's ``EOFError``."""
        (tmp_path / "k.npz").write_bytes(b"")
        assert TraceStore(tmp_path).load("k") is None

    def test_torn_zip_entry_closes_its_file(self, tmp_path):
        """An entry with a zip header and garbage after it is a miss, and
        the file ``load`` opened is closed, not left to the collector."""
        (tmp_path / "k.npz").write_bytes(b"PK\x03\x04" + b"garbage" * 8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert TraceStore(tmp_path).load("k") is None
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_plain_npy_entry_degrades_to_miss(self, tmp_path):
        """An entry holding ``np.save`` output (an array, not an archive)
        is a miss, not a ``TypeError``, and the next save replaces it."""
        store = TraceStore(tmp_path)
        key = store.recipe_key("mcf", 800, 0)
        with open(tmp_path / f"{key}.npz", "wb") as fh:
            np.save(fh, np.arange(4))
        assert store.load(key) is None
        assert store.save(key, _trace())
        assert store.load(key) is not None

    def test_entry_from_before_the_format_bump_is_a_miss(self, tmp_path, monkeypatch):
        """A version-2 entry (the warm-up and measured traces as a pair)
        loads as a miss even under the current key, and a version-2 key
        is another key."""
        store = TraceStore(tmp_path)
        key = store.recipe_key("mcf", 800, 0)
        warm, main = build_warmup_trace("mcf", seed=0, l2_bytes=1 << 20), _trace()
        arrays = {}
        for prefix, trace in (("warm", warm), ("main", main)):
            arrays[f"{prefix}_name"] = np.array(trace.name)
            arrays[f"{prefix}_description"] = np.array(trace.description)
            arrays[f"{prefix}_shared_prefix"] = np.array(trace.shared_prefix)
            for column in ("kinds", "gaps", "addrs", "deps", "pcs"):
                arrays[f"{prefix}_{column}"] = getattr(trace, column)
        np.savez_compressed(tmp_path / f"{key}.npz", **arrays)
        assert store.load(key) is None
        assert store.save(key, main)
        assert _same_trace(store.load(key), main)
        monkeypatch.setattr(store_module, "STORE_FORMAT_VERSION", 2)
        assert store.recipe_key("mcf", 800, 0) != key

    def test_unwritable_root_returns_false(self, tmp_path):
        blocked = tmp_path / "file"
        blocked.write_text("not a directory")
        store = TraceStore(blocked / "sub")
        assert not store.save("k" * 64, _trace())

    def test_recipe_key_distinguishes_every_field(self):
        base = TraceStore.recipe_key("mcf", 800, 0)
        assert TraceStore.recipe_key("swim", 800, 0) != base
        assert TraceStore.recipe_key("mcf", 801, 0) != base
        assert TraceStore.recipe_key("mcf", 800, 1) != base

    def test_env_selection(self, tmp_path, monkeypatch):
        """``REPRO_TRACE_STORE`` wins; else the store is ``traces`` in the
        result cache dir, and there is none without a cache dir."""
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        for cache_dir in (None, cache):
            store = trace_store(cache_dir)
            assert store is not None and store.root == tmp_path
        for off in ("0", "off", "false", "no", ""):
            monkeypatch.setenv("REPRO_TRACE_STORE", off)
            assert trace_store(cache) is None
        monkeypatch.delenv("REPRO_TRACE_STORE")
        assert trace_store(cache).root == cache / "traces"
        assert trace_store(str(cache)).root == cache / "traces"
        assert trace_store(None) is None


class TestFastOptIn:
    """``REPRO_FAST`` used to opt into the fast kernel.  Nothing reads it
    any more: whatever it is set to, a plain point runs the fast kernel
    and a ``fast=False`` point the reference kernel."""

    @staticmethod
    def _fast_systems_per_pair(monkeypatch, built, value):
        monkeypatch.setenv("REPRO_FAST", value)
        trace = _trace(refs=200)
        assert (
            simulate(trace, SystemConfig()).to_dict()
            == simulate(trace, SystemConfig(), fast=False).to_dict()
        )
        return len(built)

    @pytest.mark.parametrize("value", ["1", "true", "TRUE", "yes", "on"])
    def test_enabled_values(self, value, monkeypatch, fast_systems_built):
        assert self._fast_systems_per_pair(monkeypatch, fast_systems_built, value) == 1

    @pytest.mark.parametrize("value", ["", "0", "off", "false", "no", "nope"])
    def test_disabled_values(self, value, monkeypatch, fast_systems_built):
        assert self._fast_systems_per_pair(monkeypatch, fast_systems_built, value) == 1


class TestKernelRule:
    def test_execute_point_defaults_to_fast_kernel(self, fast_systems_built):
        """A plain point builds one ``FastSystem``; an observed, a
        sanitized and a ``fast=False`` point build none, and all four
        return the same statistics."""
        from repro.obs import Observer

        point = SimPoint("eon", SystemConfig(), 1_000, 0)
        default, _ = execute_point(point)
        assert fast_systems_built == ["drdram"]
        for options in (
            {"obs": Observer(label="rule", trace=False)},
            {"sanitize": True},
            {"fast": False},
        ):
            stats, _ = execute_point(point, **options)
            assert fast_systems_built == ["drdram"], options
            assert stats == default, options

    def test_odd_l1i_geometry_runs_fast(self, fast_systems_built):
        """An L1I block larger than the L2 block runs on the fast kernel
        and matches the reference.  The L1I is tiny and the L2 small and
        direct-mapped, so fetches re-enter evicted L1I blocks mid-block
        and the L2 block must come from the raw address, not from the
        L1I block, for the L2 hits and misses to match."""
        config = SystemConfig(
            l1i=CacheConfig(size_bytes=1024, assoc=1, block_bytes=256, hit_latency=1),
            l2=CacheConfig(size_bytes=64 * 1024, assoc=1, block_bytes=64, hit_latency=12),
        )
        trace = _trace(refs=2_000)
        fast = simulate(trace, config).to_dict()
        assert fast_systems_built == ["drdram"]
        assert fast == simulate(trace, config, fast=False).to_dict()


class TestSimulateFastEntryPoint:
    def test_matches_reference_with_warmup(self):
        config = SystemConfig()
        warm = build_warmup_trace("mcf", seed=0, l2_bytes=config.l2.size_bytes)
        main = _trace(refs=600)
        assert (
            simulate_fast(main, config, warmup_trace=warm).to_dict()
            == simulate(main, config, warmup_trace=warm, fast=False).to_dict()
        )

    def test_stats_serialize_identically(self):
        """The fast kernel's stats must survive the exact round trip the
        runner cache uses."""
        main = _trace(refs=400)
        fast = simulate_fast(main, SystemConfig())
        reference = simulate(main, SystemConfig(), fast=False)
        assert json.dumps(fast.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )


class TestStoreBackedTraces:
    def test_worker_builds_publish_and_reload(self, tmp_path, monkeypatch):
        from repro.runner import worker

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        monkeypatch.setattr(worker, "_TRACE_MEMO", {})
        warm, main = worker.get_traces("mcf", 500, 0, 1 << 20)
        entries = list(tmp_path.glob("*.npz"))
        assert len(entries) == 1
        # A fresh memo (a new worker process) must load, not rebuild:
        # the loaded traces are content-identical to the built ones.
        monkeypatch.setattr(worker, "_TRACE_MEMO", {})
        warm2, main2 = worker.get_traces("mcf", 500, 0, 1 << 20)
        assert _same_trace(main2, main)
        assert _same_trace(warm2, warm)
        assert list(tmp_path.glob("*.npz")) == entries

    def test_store_lives_beside_the_result_cache(self, tmp_path, monkeypatch):
        """Without ``REPRO_TRACE_STORE``, a runner's traces go to
        ``<cache dir>/traces``, inline and pooled alike; a runner with no
        cache dir keeps none; and nothing lands under ``$HOME/.cache``."""
        from repro.runner import worker

        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.delenv("REPRO_TRACE_STORE")
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setattr(worker, "_TRACE_MEMO", {})
        cache = tmp_path / "cache"
        Runner(jobs=1, cache_dir=cache).run_points([SimPoint("eon", SystemConfig(), 300, 0)])
        Runner(jobs=2, cache_dir=cache).run_points(
            [SimPoint(name, SystemConfig(), 300, 0) for name in ("mcf", "swim")]
        )
        assert len(list((cache / "traces").glob("*.npz"))) == 3
        monkeypatch.setattr(worker, "_TRACE_MEMO", {})
        Runner(jobs=1, cache_dir=None).run_points([SimPoint("gzip", SystemConfig(), 300, 0)])
        assert len(list((cache / "traces").glob("*.npz"))) == 3
        assert list(home.iterdir()) == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cache", "home"]


def test_compiled_trace_len():
    trace = _trace(refs=200)
    assert len(compile_trace(trace)) == len(trace)
