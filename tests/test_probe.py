"""The probe seam: one event stream, any number of consumers.

The observer and the sanitizer listen on the same ``probe`` seam; with
both on, ``System`` fans every event out to each.  A combined run is
held to the bar each consumer meets alone: statistics byte-identical
to a plain run, the observer's output identical to an observer-only
run, the sanitizer's checks identical to a sanitizer-only run, and a
seeded violation still raising with the observer attached.
"""

import json

import pytest

from repro.core.config import PrefetchConfig, SystemConfig
from repro.core.probe import Probe, Probes
from repro.core.system import System
from repro.obs import Observer
from repro.sanitize import SanitizerError
from repro.workloads import build_trace
from repro.workloads.registry import build_warmup_trace


def _run(config, **kwargs):
    system = System(config, **kwargs)
    system.warmup(build_warmup_trace("swim", l2_bytes=config.l2.size_bytes))
    return system, system.run(build_trace("swim", 6_000))


def _dump(stats):
    return json.dumps(stats.to_dict(), sort_keys=True)


class TestObserverAndSanitizerTogether:
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_each_consumer_sees_what_it_sees_alone(self, prefetch):
        config = SystemConfig()
        if prefetch:
            config = config.with_prefetch(enabled=True)
        _, plain = _run(config)
        obs_alone = Observer(label="swim", pid=1)
        _run(config, obs=obs_alone)
        san_alone, _ = _run(config, sanitize=True)

        obs = Observer(label="swim", pid=1)
        both, stats = _run(config, obs=obs, sanitize=True)
        assert isinstance(both.probe, Probes)
        assert _dump(stats) == _dump(plain)
        assert any(e.get("ph") != "M" for e in obs.trace.events)
        assert obs.trace.events == obs_alone.trace.events
        assert obs.metrics_dict() == obs_alone.metrics_dict()
        assert both.san.summary() == san_alone.san.summary()
        assert both.san.summary()["violations"] == 0

    def test_seeded_prioritizer_violation_raises_with_observer_attached(self):
        """The idle-guard seed of ``tests/test_sanitize.py``, observed."""
        obs = Observer(label="seeded", pid=1)
        config = SystemConfig(prefetch=PrefetchConfig(enabled=True))
        system = System(config, obs=obs, sanitize=True)
        system.run(build_trace("mcf", 4_000))
        ctrl = system.hierarchy.controller
        ctrl.prefetcher.on_demand_miss(1 << 26)
        assert ctrl.prefetcher.has_work()
        ctrl._idle_guard = -1e12  # the seeded bug
        demand_time = ctrl.channel.command_issue_time()
        with pytest.raises(SanitizerError) as exc:
            ctrl.demand_fetch(demand_time, 1 << 27)
        assert exc.value.component == "controller"
        assert exc.value.event == "prefetch-while-demand-pending"
        assert exc.value.details["pending_since"] == demand_time
        assert any(e.get("ph") != "M" for e in obs.trace.events)


class TestProbes:
    def test_system_attaches_the_cheapest_probe(self):
        assert System(SystemConfig()).probe is None
        obs = Observer()
        assert System(SystemConfig(), obs=obs).probe is obs
        sanitized = System(SystemConfig(), sanitize=True)
        assert sanitized.probe is sanitized.san

    def test_fan_out_forwards_each_event_in_order(self):
        calls = []

        class Recorder(Probe):
            def __init__(self, name):
                self.name = name

            def l2_miss(self, time, addr):
                calls.append((self.name, time, addr))

        fan_out = Probes(Recorder("first"), Recorder("second"))
        fan_out.l2_miss(5.0, 64)
        fan_out.l2_miss(6.0, 128)
        fan_out.cache_miss("l2", 3)  # the default handler is a no-op
        assert calls == [
            ("first", 5.0, 64),
            ("second", 5.0, 64),
            ("first", 6.0, 128),
            ("second", 6.0, 128),
        ]
