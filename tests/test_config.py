"""Unit tests for repro.core.config."""


import pytest

from repro.core.config import (
    PART_800_34,
    PART_800_40,
    PART_800_50,
    CacheConfig,
    ConfigError,
    CoreConfig,
    DRAMConfig,
    DRDRAMPart,
    PrefetchConfig,
    SystemConfig,
)


class TestCoreConfig:
    def test_defaults_match_paper(self):
        core = CoreConfig()
        assert core.clock_ghz == 1.6
        assert core.issue_width == 4
        assert core.window_size == 64
        assert core.lsq_size == 64

    def test_cycle_ns(self):
        assert CoreConfig(clock_ghz=2.0).cycle_ns == 0.5

    def test_ns_to_cycles(self):
        core = CoreConfig(clock_ghz=1.6)
        assert core.ns_to_cycles(10.0) == pytest.approx(16.0)
        assert core.ns_to_cycles(77.5) == pytest.approx(124.0)

    @pytest.mark.parametrize("field,value", [
        ("clock_ghz", 0.0),
        ("clock_ghz", -1.0),
        ("issue_width", 0),
        ("window_size", 0),
        ("lsq_size", 0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            CoreConfig(**{field: value})


class TestCacheConfig:
    def test_l2_default_geometry(self):
        l2 = CacheConfig(size_bytes=1 << 20, assoc=4, block_bytes=64, hit_latency=12)
        assert l2.num_sets == 4096
        assert l2.num_blocks == 16384
        assert l2.block_offset_bits == 6
        assert l2.index_bits == 12

    def test_block_address_alignment(self):
        l2 = CacheConfig(size_bytes=1 << 20, assoc=4, block_bytes=64, hit_latency=12)
        assert l2.block_address(0x12345) == 0x12340
        assert l2.block_address(0x12340) == 0x12340

    def test_set_index_wraps(self):
        cache = CacheConfig(size_bytes=64 * 1024, assoc=2, block_bytes=64, hit_latency=3)
        assert cache.set_index(0) == cache.set_index(cache.num_sets * 64)

    def test_large_blocks_supported(self):
        cache = CacheConfig(size_bytes=1 << 20, assoc=4, block_bytes=8192, hit_latency=12)
        assert cache.num_sets == 32

    def test_rejects_non_pow2_block(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1 << 20, assoc=4, block_bytes=100, hit_latency=12)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, assoc=3, block_bytes=64, hit_latency=1)

    def test_rejects_zero_mshrs(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1 << 20, assoc=4, block_bytes=64, hit_latency=12, mshrs=0)


class TestDRDRAMPart:
    def test_800_40_latencies(self):
        """Section 2.2: 40ns row hit, 57.5ns precharged, 77.5ns row miss."""
        assert PART_800_40.row_hit_ns == pytest.approx(40.0)
        assert PART_800_40.precharged_ns == pytest.approx(57.5)
        assert PART_800_40.row_miss_ns == pytest.approx(77.5)

    def test_speed_grades_ordered(self):
        assert PART_800_34.row_hit_ns < PART_800_40.row_hit_ns < PART_800_50.row_hit_ns

    def test_rejects_non_positive_timing(self):
        with pytest.raises(ConfigError):
            DRDRAMPart(name="bad", t_prer_ns=0.0)


class TestDRAMConfig:
    def test_default_organization(self):
        dram = DRAMConfig()
        assert dram.channels == 4
        assert dram.devices_per_channel == 2
        assert dram.num_logical_banks == 64
        assert dram.capacity_bytes == 256 * (1 << 20)

    def test_logical_row_scales_with_channels(self):
        assert DRAMConfig(channels=4).logical_row_bytes == 8192
        assert DRAMConfig(channels=8).logical_row_bytes == 16384

    def test_peak_bandwidth(self):
        """1.6 GB/s per channel (Section 2.2)."""
        assert DRAMConfig(channels=1).peak_bandwidth_gbs == pytest.approx(1.6)
        assert DRAMConfig(channels=4).peak_bandwidth_gbs == pytest.approx(6.4)

    def test_transfer_packets(self):
        dram = DRAMConfig(channels=4)
        assert dram.transfer_packets(64) == 1
        assert dram.transfer_packets(256) == 4
        assert dram.transfer_packets(1) == 1

    def test_devices_held_constant_across_widths(self):
        """Section 3.3 methodology: total devices fixed."""
        for channels in (1, 2, 4, 8):
            dram = DRAMConfig(channels=channels)
            assert dram.devices_per_channel * channels == 8

    def test_rejects_unknown_mapping(self):
        with pytest.raises(ConfigError):
            DRAMConfig(mapping="hash")

    def test_rejects_unknown_row_policy(self):
        with pytest.raises(ConfigError):
            DRAMConfig(row_policy="adaptive")

    def test_rejects_non_pow2_channels(self):
        with pytest.raises(ConfigError):
            DRAMConfig(channels=3)


class TestPrefetchConfig:
    def test_defaults_match_paper_best(self):
        pf = PrefetchConfig(enabled=True)
        assert pf.region_bytes == 4096
        assert pf.policy == "lifo"
        assert pf.scheduled
        assert pf.bank_aware
        assert pf.insertion == "lru"

    @pytest.mark.parametrize("kwargs", [
        {"region_bytes": 3000},
        {"queue_entries": 0},
        {"policy": "random"},
        {"insertion": "middle"},
        {"throttle_min_accuracy": 1.5},
        {"throttle_window": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            PrefetchConfig(**kwargs)


class TestSystemConfig:
    def test_builders_chain(self):
        config = SystemConfig().with_block_size(256).with_channels(8).with_mapping("base")
        assert config.l2.block_bytes == 256
        assert config.dram.channels == 8
        assert config.dram.mapping == "base"

    def test_with_prefetch_enables(self):
        config = SystemConfig().with_prefetch(region_bytes=2048)
        assert config.prefetch.enabled
        assert config.prefetch.region_bytes == 2048

    def test_with_l2_size(self):
        config = SystemConfig().with_l2_size(4 << 20)
        assert config.l2.size_bytes == 4 << 20

    def test_with_part_and_clock(self):
        config = SystemConfig().with_part(PART_800_50).with_clock(2.0)
        assert config.dram.part.name == "800-50"
        assert config.core.clock_ghz == 2.0

    def test_rejects_l2_block_smaller_than_l1(self):
        with pytest.raises(ConfigError):
            SystemConfig().with_block_size(32)

    def test_rejects_region_smaller_than_block(self):
        with pytest.raises(ConfigError):
            SystemConfig().with_block_size(8192).with_prefetch(region_bytes=4096)

    def test_configs_are_frozen(self):
        config = SystemConfig()
        with pytest.raises(Exception):
            config.perfect_l2 = True


class TestCacheConfigFailFast:
    """Regression: bad fields used to surface as deep ZeroDivisionError."""

    def test_zero_assoc_is_config_error_not_zero_division(self):
        with pytest.raises(ConfigError, match="assoc"):
            CacheConfig(size_bytes=64 * 1024, assoc=0, block_bytes=64, hit_latency=3)

    def test_negative_assoc_rejected(self):
        with pytest.raises(ConfigError, match="assoc"):
            CacheConfig(size_bytes=64 * 1024, assoc=-2, block_bytes=64, hit_latency=3)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError, match="size_bytes"):
            CacheConfig(size_bytes=0, assoc=2, block_bytes=64, hit_latency=3)

    def test_negative_hit_latency_rejected(self):
        with pytest.raises(ConfigError, match="hit_latency"):
            CacheConfig(size_bytes=64 * 1024, assoc=2, block_bytes=64, hit_latency=-1)


class TestSystemConfigValidate:
    def test_valid_config_chains(self):
        config = SystemConfig()
        assert config.validate() is config

    def test_all_presets_validate(self):
        from repro.core import presets

        for name in presets.__all__:
            getattr(presets, name)().validate()

    def test_non_pow2_cache_size_rejected_with_actionable_message(self):
        # 96KB 3-way passes CacheConfig's local checks (512 sets, a power
        # of two) but is not a power-of-two capacity; validate names the
        # level and the offending size.
        odd = CacheConfig(size_bytes=96 * 1024, assoc=3, block_bytes=64, hit_latency=12)
        config = SystemConfig(l2=odd)
        with pytest.raises(ConfigError, match=r"l2.*power of two.*98304"):
            config.validate()

    def test_system_constructor_validates(self):
        from repro.core.system import System

        odd = CacheConfig(size_bytes=96 * 1024, assoc=3, block_bytes=64, hit_latency=12)
        with pytest.raises(ConfigError):
            System(SystemConfig(l2=odd))

    def test_zero_channels_and_banks_fail_fast(self):
        with pytest.raises(ConfigError):
            DRAMConfig(channels=0)
        with pytest.raises(ConfigError):
            DRAMConfig(banks_per_device=0)
        with pytest.raises(ConfigError):
            DRAMConfig(rows_per_bank=0)

    def test_region_smaller_than_l2_block_message_names_both(self):
        with pytest.raises(ConfigError, match="region"):
            SystemConfig().with_block_size(8192).with_prefetch(region_bytes=4096)

    def test_disabled_prefetch_region_not_constrained(self):
        # Tables 1/2 sweep the L2 block past the default region size with
        # prefetching off; validate must not reject that.
        config = SystemConfig().with_block_size(8192)
        assert not config.prefetch.enabled
        config.validate()


class TestDigestCache:
    """``SystemConfig.digest`` is computed once per frozen instance and
    kept outside the dataclass fields."""

    @staticmethod
    def _count_asdict(monkeypatch):
        import repro.core.config as config_module

        calls = []
        real = config_module.asdict

        def counting(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(config_module, "asdict", counting)
        return calls

    def test_asdict_runs_once_per_instance(self, monkeypatch):
        calls = self._count_asdict(monkeypatch)
        config = SystemConfig().with_backend("tldram")
        first = config.digest()
        assert config.digest() == first
        assert len(calls) == 1
        # An equal instance computes (once) the same digest.
        assert SystemConfig().with_backend("tldram").digest() == first
        assert len(calls) == 2

    def test_digest_survives_pickling(self, monkeypatch):
        import pickle

        config = SystemConfig().with_prefetch(enabled=True)
        digest = config.digest()
        calls = self._count_asdict(monkeypatch)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.digest() == digest
        assert not calls  # carried over, not recomputed
        # A config pickled before its first digest computes the same one.
        fresh = pickle.loads(pickle.dumps(SystemConfig().with_prefetch(enabled=True)))
        assert fresh.digest() == digest

    def test_replace_yields_a_fresh_correct_digest(self):
        from dataclasses import replace

        config = SystemConfig()
        base = config.digest()
        wider = config.with_channels(8)
        assert wider.digest() != base
        assert wider.digest() == SystemConfig(dram=DRAMConfig(channels=8)).digest()
        same = replace(config)
        assert "_digest" not in same.__dict__
        assert same.digest() == base

    def test_cached_digest_stays_out_of_the_fields(self):
        from dataclasses import asdict

        config = SystemConfig()
        config.digest()
        assert "_digest" not in asdict(config)
        assert config == SystemConfig()
        assert hash(config) == hash(SystemConfig())
