"""The DRAM backend registry, its policies, and the threading seams.

Covers the tentpole's contracts: registration semantics (duplicate
rejection, registration-order-independent naming), digest stability
(the default DRDRAM backend hashes to the exact pre-registry digest,
so every cached result and golden stays valid), the per-backend
row-timing policies in isolation and in channel/sanitizer lockstep,
the A/B byte-identity of sanitized vs plain runs on every backend,
the fast kernel running every backend, and the service schema's
backend enumeration.
"""

import dataclasses
import os

import pytest

from repro.core.config import ConfigError, SystemConfig
from repro.dram import backends as bk
from repro.dram.backends import (
    BackendError,
    ChargeCachePolicy,
    DRAMBackend,
    TLDRAMPolicy,
    backend_names,
    check_backend,
    default_backend_name,
    get_backend,
    has_backend,
    register_backend,
    unregister_backend,
)
from repro.runner.runner import SimPoint
from repro.runner.worker import execute_point

#: exact pre-registry digest of the default SystemConfig — pinned so a
#: change to how backend fields enter the hash can never silently
#: invalidate the result cache, the dedup store, and the goldens.
PRE_REFACTOR_DIGEST = (
    "bc9274455afcebd88feba888900f56871c36a373a9605af4d2c022637e41877b"
)

NEW_BACKENDS = ("tldram", "chargecache", "ddr")


@pytest.fixture(autouse=True)
def _isolate_backend_env():
    """Restore REPRO_BACKEND after every test: the CLIs under test set
    it via plain os.environ (so pool workers inherit it), which
    monkeypatch cannot see, and a leaked value would re-key every
    later test's configs and bench records."""
    saved = os.environ.get("REPRO_BACKEND")
    yield
    if saved is None:
        os.environ.pop("REPRO_BACKEND", None)
    else:
        os.environ["REPRO_BACKEND"] = saved


class TestRegistry:
    def test_all_four_backends_registered(self):
        assert backend_names() == ("chargecache", "ddr", "drdram", "tldram")
        for name in backend_names():
            assert has_backend(name)
            assert get_backend(name).name == name
            assert get_backend(name).description

    def test_unknown_backend_lists_registered_names(self):
        with pytest.raises(BackendError, match="chargecache, ddr, drdram, tldram"):
            get_backend("sdram")
        assert not has_backend("sdram")

    def test_duplicate_registration_rejected(self):
        class Dup(DRAMBackend):
            name = "drdram"

        with pytest.raises(BackendError, match="already registered"):
            register_backend(Dup())
        # replace_existing is the deliberate escape hatch.
        original = get_backend("drdram")
        try:
            register_backend(Dup(), replace_existing=True)
            assert isinstance(get_backend("drdram"), Dup)
        finally:
            register_backend(original, replace_existing=True)

    def test_nameless_backend_rejected(self):
        with pytest.raises(BackendError, match="non-empty name"):
            register_backend(DRAMBackend())

    def test_digest_stable_across_registration_order(self):
        """Registering more backends must not move any existing digest."""
        before = SystemConfig().digest()

        class Extra(DRAMBackend):
            name = "zz-extra"
            description = "test-only"

        register_backend(Extra())
        try:
            assert SystemConfig().digest() == before
            assert "zz-extra" in backend_names()
        finally:
            unregister_backend("zz-extra")
        assert "zz-extra" not in backend_names()

    def test_default_digest_is_byte_identical_to_pre_refactor(self):
        assert SystemConfig().digest() == PRE_REFACTOR_DIGEST

    def test_backend_digests_are_distinct(self):
        digests = {SystemConfig().with_backend(b).digest() for b in backend_names()}
        assert len(digests) == len(backend_names())
        assert SystemConfig().with_backend("drdram").digest() == PRE_REFACTOR_DIGEST

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "tldram")
        assert default_backend_name() == "tldram"
        assert SystemConfig().dram.backend == "tldram"
        monkeypatch.delenv("REPRO_BACKEND")
        assert default_backend_name() == "drdram"

    def test_unknown_backend_in_config_is_a_config_error(self):
        with pytest.raises(ConfigError, match="registered backends"):
            SystemConfig().with_backend("rambus-9000")

    def test_tldram_near_rows_validated(self):
        base = SystemConfig()
        with pytest.raises(ConfigError, match="tldram_near_rows"):
            dataclasses.replace(
                base, dram=dataclasses.replace(base.dram, tldram_near_rows=0)
            )
        with pytest.raises(ConfigError, match="tldram_near_rows"):
            dataclasses.replace(
                base,
                dram=dataclasses.replace(
                    base.dram, tldram_near_rows=base.dram.rows_per_bank
                ),
            )


class TestSelfCheck:
    def test_every_registered_backend_is_consistent(self):
        for name in backend_names():
            assert check_backend(name) == []

    def test_inconsistent_near_segment_is_reported(self):
        class Broken(bk.TLDRAMBackend):
            name = "tldram"
            NEAR_ACT_SCALE = 1.5  # near slower than far: illegal

        problems = Broken().check(
            SystemConfig().with_backend("tldram").dram,
            SystemConfig().core,
        )
        assert any("near-segment" in p for p in problems)

    def test_cli_main_passes(self, capsys):
        assert bk.main([]) == 0
        out = capsys.readouterr().out
        for name in backend_names():
            assert f"{name}: timing table ok" in out

    def test_cli_main_single_backend(self, capsys):
        assert bk.main(["--backend", "ddr", "--quiet"]) == 0
        assert "ddr: timing table ok" in capsys.readouterr().out


class TestTLDRAMPolicy:
    FAR = (20.0, 17.5, 30.0)
    NEAR = (14.0, 9.6, 24.0)

    def _policy(self, cache=True):
        return TLDRAMPolicy(
            near_rows=64, far=self.FAR, near=self.NEAR, cache_far_rows=cache,
            cache_slots=2,
        )

    def test_near_segment_rows_always_near(self):
        policy = self._policy()
        assert policy.resolve(0, 0, 0.0, "miss") == self.NEAR
        assert policy.resolve(0, 63, 0.0, "empty") == self.NEAR
        assert policy.resolve(0, 64, 0.0, "miss") == self.FAR

    def test_far_row_cached_after_activation(self):
        policy = self._policy()
        assert policy.resolve(3, 100, 0.0, "miss") == self.FAR
        policy.observe(3, 100, "miss", 5.0, 50.0)
        assert policy.resolve(3, 100, 60.0, "miss") == self.NEAR
        # Per-bank: another bank's near cache is untouched.
        assert policy.resolve(4, 100, 60.0, "miss") == self.FAR

    def test_row_hits_do_not_cache(self):
        policy = self._policy()
        policy.observe(0, 100, "hit", None, 50.0)
        assert policy.resolve(0, 100, 60.0, "miss") == self.FAR

    def test_cache_evicts_least_recent(self):
        policy = self._policy()
        for row in (100, 200, 300):  # slots=2: 100 evicted by 300
            policy.observe(0, row, "miss", 0.0, 10.0)
        assert policy.resolve(0, 100, 20.0, "miss") == self.FAR
        assert policy.resolve(0, 200, 20.0, "miss") == self.NEAR
        assert policy.resolve(0, 300, 20.0, "miss") == self.NEAR

    def test_caching_disabled(self):
        policy = self._policy(cache=False)
        policy.observe(0, 100, "miss", 0.0, 10.0)
        assert policy.resolve(0, 100, 20.0, "miss") == self.FAR


class TestChargeCachePolicy:
    FULL = (20.0, 17.5, 30.0)

    def _policy(self, entries=2, duration=100.0):
        return ChargeCachePolicy(
            entries=entries, duration=duration, full=self.FULL, charged_t_act=10.0
        )

    def test_unstamped_row_gets_full_timings(self):
        assert self._policy().resolve(0, 7, 50.0, "miss") == self.FULL

    def test_recent_row_gets_reduced_activation(self):
        policy = self._policy()
        policy.observe(0, 7, "miss", 1.0, 10.0)
        assert policy.resolve(0, 7, 50.0, "miss") == (20.0, 10.0, 30.0)
        assert policy.resolve(0, 7, 110.0, "miss") == (20.0, 10.0, 30.0)
        assert policy.resolve(0, 7, 110.1, "miss") == self.FULL

    def test_hits_never_take_the_grant(self):
        policy = self._policy()
        policy.observe(0, 7, "miss", 1.0, 10.0)
        assert policy.resolve(0, 7, 50.0, "hit") == self.FULL

    def test_capacity_eviction_is_lru_by_stamp(self):
        policy = self._policy(entries=2)
        policy.observe(0, 1, "miss", 0.0, 10.0)
        policy.observe(0, 2, "miss", 0.0, 11.0)
        policy.observe(0, 1, "miss", 0.0, 12.0)  # restamp: 2 is now oldest
        policy.observe(0, 3, "miss", 0.0, 13.0)  # evicts 2
        assert policy.resolve(0, 2, 20.0, "miss") == self.FULL
        assert policy.resolve(0, 1, 20.0, "miss") == (20.0, 10.0, 30.0)
        assert policy.resolve(0, 3, 20.0, "miss") == (20.0, 10.0, 30.0)


class TestPolicyLockstep:
    """Two fresh instances fed the same stream must resolve identically —
    the property the sanitizer's shadow-policy replay relies on."""

    @pytest.mark.parametrize("backend", ("tldram", "chargecache"))
    def test_independent_instances_agree(self, backend):
        import random

        config = SystemConfig().with_backend(backend)
        make = get_backend(backend).make_policy
        a = make(config.dram, config.core)
        b = make(config.dram, config.core)
        rng = random.Random(42)
        time = 0.0
        for _ in range(500):
            bank, row = rng.randrange(8), rng.randrange(128)
            outcome = rng.choice(("hit", "empty", "miss"))
            time += rng.random() * 40.0
            assert a.resolve(bank, row, time, outcome) == b.resolve(
                bank, row, time, outcome
            )
            completion = time + rng.random() * 100.0
            act = None if outcome == "hit" else time + 1.0
            a.observe(bank, row, outcome, act, completion)
            b.observe(bank, row, outcome, act, completion)


class TestSimulationSeams:
    @pytest.mark.parametrize("backend", NEW_BACKENDS)
    def test_sanitized_run_is_byte_identical(self, backend):
        point = SimPoint("mcf", SystemConfig().with_backend(backend), 2_000, 0)
        plain, _ = execute_point(point)
        sanitized, _ = execute_point(point, sanitize=True)
        assert plain == sanitized

    @pytest.mark.parametrize("backend", NEW_BACKENDS)
    def test_fast_flag_runs_the_fast_kernel(self, backend, monkeypatch):
        """fast=True on a non-DRDRAM backend builds the fast kernel (no
        fallback) and produces the same statistics as fast=False."""
        from repro.kernel import batch

        built = []

        class SpyFastSystem(batch.FastSystem):
            def __init__(self, config):
                built.append(config.dram.backend)
                super().__init__(config)

        monkeypatch.setattr(batch, "FastSystem", SpyFastSystem)
        point = SimPoint("eon", SystemConfig().with_backend(backend), 2_000, 0)
        reference, _ = execute_point(point, fast=False)
        assert built == []
        fast, _ = execute_point(point, fast=True)
        assert built == [backend]
        assert reference == fast

    def test_backends_differ_from_each_other(self):
        stats = {
            backend: execute_point(
                SimPoint("mcf", SystemConfig().with_backend(backend), 2_000, 0)
            )[0]
            for backend in backend_names()
        }
        cycle_counts = {s["cycles"] for s in stats.values()}
        assert len(cycle_counts) == len(stats), (
            "every backend must produce a distinct schedule on a "
            "DRAM-bound workload; identical cycles mean a backend is "
            "not actually being threaded through the channel"
        )


class TestServiceSchema:
    def test_unknown_backend_is_field_addressed(self):
        from repro.service.schema import SchemaError, parse_sweep_request

        with pytest.raises(SchemaError) as err:
            parse_sweep_request(
                {"benchmarks": ["mcf"], "config": {"dram": {"backend": "tldram2"}}}
            )
        errors = err.value.errors
        assert errors[0]["field"] == "config.dram.backend"
        assert "tldram" in errors[0]["message"]
        for name in backend_names():
            assert name in errors[0]["message"]

    def test_known_backend_resolves(self):
        from repro.service.schema import parse_sweep_request

        request = parse_sweep_request(
            {"benchmarks": ["mcf"], "config": {"dram": {"backend": "chargecache"}}}
        )
        assert request.configs[0].dram.backend == "chargecache"

    def test_contract_enumerates_backends(self):
        from repro.service.schema import contract_description

        assert contract_description()["dram_backends"] == list(backend_names())


class TestExperimentCLI:
    def test_list_backends(self, capsys):
        from repro.experiments import cli

        assert cli.main(["--list-backends"]) == 0
        out = capsys.readouterr().out
        for name in backend_names():
            assert name in out

    def test_missing_experiment_is_an_error(self, capsys):
        from repro.experiments import cli

        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_unknown_backend_flag_is_an_error(self, capsys):
        from repro.experiments import cli

        with pytest.raises(SystemExit) as err:
            cli.main(["table1", "--backend", "nope"])
        assert err.value.code == 2
        assert "registered" in capsys.readouterr().err

    def test_backend_flag_sets_environment(self, monkeypatch):
        import os

        from repro.experiments import cli

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        seen = {}

        def fake_import(name):
            import types

            def run(profile):
                seen["backend"] = os.environ.get("REPRO_BACKEND")
                seen["config_backend"] = SystemConfig().dram.backend
                return None

            return types.SimpleNamespace(run=run, render=lambda result: "table")

        monkeypatch.setattr(cli.importlib, "import_module", fake_import)
        assert cli.main(["table1", "--backend", "ddr", "--no-cache"]) == 0
        assert seen == {"backend": "ddr", "config_backend": "ddr"}


class TestBackendCompareExperiment:
    def test_runs_and_renders(self):
        from repro.experiments import backends as experiment
        from repro.experiments.common import Profile

        micro = Profile("micro", memory_refs=1_000, benchmarks=("mcf",))
        result = experiment.run(micro, backends=("drdram", "ddr"))
        assert [r.backend for r in result.rows] == ["drdram", "ddr"]
        for row in result.rows:
            assert row.base_ipc > 0
            assert row.prefetch_ipc > 0
            assert row.speedup > 0
        rendered = experiment.render(result)
        assert "drdram" in rendered and "ddr" in rendered
        assert "speedup" in rendered
