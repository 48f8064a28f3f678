"""The runtime sanitizer: clean runs report nothing, seeded bugs are caught.

Two halves:

* **Clean runs** — sanitized simulations across the config space finish
  with zero violations and actually perform checks (the hooks are live).
* **Seeded violations** — each checker is proven to fire by breaking
  the corresponding invariant on purpose (corrupting a cache set's tag
  index, reordering a prefetch ahead of a waiting demand, leaking an
  MSHR, un-flushing a sense-amp neighbour, rewinding a DRAM bus, ...)
  and asserting the resulting :class:`SanitizerError` carries the right
  cycle/component/event context.
"""

import pickle

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.mshr import MSHRFile
from repro.core.config import DRAMConfig, PrefetchConfig, SystemConfig
from repro.core.stats import SimStats
from repro.core.system import System, simulate
from repro.dram.bank import Bank
from repro.dram.mapping import DRAMCoordinates
from repro.prefetch.queue import PrefetchQueue
from repro.prefetch.region import RegionEntry
from repro.sanitize import Sanitizer, SanitizerError
from repro.workloads import build_trace


def _sanitized_system(config=None, benchmark="mcf", refs=4_000):
    system = System(config or SystemConfig(), sanitize=True)
    system.run(build_trace(benchmark, refs))
    return system


class TestCleanRuns:
    @pytest.mark.parametrize(
        "config",
        [
            SystemConfig(),
            SystemConfig(prefetch=PrefetchConfig(enabled=True, policy="lifo")),
            SystemConfig(prefetch=PrefetchConfig(enabled=True, policy="fifo")),
            SystemConfig(prefetch=PrefetchConfig(enabled=True, engine="stride")),
            SystemConfig(dram=DRAMConfig(row_policy="closed")),
            SystemConfig(dram=DRAMConfig(mapping="base")),
        ],
        ids=["base", "lifo", "fifo", "stride", "closed-row", "base-map"],
    )
    def test_zero_violations_and_live_checks(self, config):
        system = _sanitized_system(config)
        summary = system.san.summary()
        assert summary["violations"] == 0
        assert summary["dram_checks"] > 0
        assert summary["mshr_checks"] > 0
        assert all(count > 0 for count in summary["cache_checks"].values())

    def test_sanitize_accepts_instance_and_falsy(self):
        san = Sanitizer()
        system = System(SystemConfig(), sanitize=san)
        assert system.san is san
        assert System(SystemConfig(), sanitize=False).san is None
        assert System(SystemConfig()).san is None

    def test_simulate_kwarg(self):
        stats = simulate(build_trace("swim", 2_000), SystemConfig(), sanitize=True)
        assert stats.instructions > 0


class TestSanitizerError:
    def test_render_includes_context(self):
        error = SanitizerError(
            "bad thing",
            cycle=123.0,
            component="cache:l2",
            event="fill",
            details={"set": 7, "addr": 64},
        )
        text = error.render()
        assert "cycle=123" in text
        assert "component=cache:l2" in text
        assert "event=fill" in text
        assert "bad thing" in text
        assert "set=7" in text

    def test_pickle_round_trip(self):
        error = SanitizerError(
            "boom", cycle=9.5, component="mshr:l1d", event="commit", details={"n": 3}
        )
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, SanitizerError)
        assert clone.message == "boom"
        assert clone.cycle == 9.5
        assert clone.component == "mshr:l1d"
        assert clone.event == "commit"
        assert clone.details == {"n": 3}

    def test_is_assertion_error(self):
        assert issubclass(SanitizerError, AssertionError)


class TestSeededCacheViolations:
    def _cache(self):
        config = SystemConfig()
        san = Sanitizer()
        cache = SetAssociativeCache(config.l2, SimStats().l2, probe=san, level="l2")
        return cache, san, config.l2.block_bytes

    def test_skipped_tag_index_maintenance(self):
        """A fill into a set whose tag index was not maintained."""
        cache, san, block = self._cache()
        cache.fill(0, ready_time=1.0)
        del cache._tags[0][0]  # the seeded bug: tag update lost
        next_way = block * len(cache._sets)  # same set, different tag
        with pytest.raises(SanitizerError) as exc:
            cache.fill(next_way, ready_time=123.0)
        assert exc.value.cycle == 123.0
        assert exc.value.component == "cache:l2"
        assert exc.value.event == "fill"

    def test_tag_pointing_at_wrong_line(self):
        cache, san, block = self._cache()
        cache.fill(0, ready_time=1.0)
        next_way = block * len(cache._sets)
        cache.fill(next_way, ready_time=2.0)
        lines = cache._sets[0]
        cache._tags[0][lines[0].addr] = lines[1]  # duplicate mapping
        with pytest.raises(SanitizerError) as exc:
            cache.access(0, is_write=False)
        assert exc.value.component == "cache:l2"
        assert "tag index" in exc.value.message

    def test_leaked_line_breaks_conservation(self):
        cache, san, block = self._cache()
        cache.fill(0, ready_time=1.0)
        cache.fill(block, ready_time=2.0)
        # the seeded bug: a line vanishes from both views, so every
        # per-set structure check still passes...
        line = cache._sets[0].pop()
        del cache._tags[0][line.addr]
        # ...but end-of-run conservation catches it.
        with pytest.raises(SanitizerError) as exc:
            san.quiesce(100.0)
        assert exc.value.component == "cache:l2"
        assert exc.value.event == "quiesce"
        assert "conservation" in exc.value.message

    def test_untracked_dirty_transition(self):
        cache, san, block = self._cache()
        cache.fill(0, ready_time=1.0)
        cache.peek(0).dirty = True  # mutated without the cache_dirtied hook
        with pytest.raises(SanitizerError) as exc:
            san.quiesce(100.0)
        assert exc.value.component == "cache:l2"
        assert "dirty" in exc.value.message


class TestSeededMSHRViolations:
    def test_leaked_mshr_exceeds_capacity(self):
        san = Sanitizer()
        mshrs = MSHRFile(2, probe=san, level="l1d")
        mshrs.commit(100.0)
        mshrs.commit(200.0)
        with pytest.raises(SanitizerError) as exc:
            mshrs.commit(300.0)  # the seeded leak: third fill, two entries
        assert exc.value.cycle == 300.0
        assert exc.value.component == "mshr:l1d"
        assert exc.value.event == "commit"

    def test_undrained_mshr_at_quiesce(self):
        san = Sanitizer()
        mshrs = MSHRFile(4, probe=san, level="l1i")
        mshrs.commit(500.0)
        with pytest.raises(SanitizerError) as exc:
            mshrs.quiesce(100.0)
        assert exc.value.component == "mshr:l1i"
        assert exc.value.event == "quiesce"
        assert exc.value.details["latest_completion"] == 500.0

    def test_phantom_stall_with_free_entries(self):
        san = Sanitizer()
        with pytest.raises(SanitizerError) as exc:
            san.mshr_acquire("l1d", now=10.0, granted=20.0, outstanding=1, capacity=8)
        assert exc.value.component == "mshr:l1d"
        assert "free entries" in exc.value.message

    def test_grant_in_the_past(self):
        san = Sanitizer()
        with pytest.raises(SanitizerError) as exc:
            san.mshr_acquire("l1d", now=10.0, granted=5.0, outstanding=8, capacity=8)
        assert "past" in exc.value.message


class TestSeededPrioritizerViolation:
    def test_prefetch_reordered_ahead_of_waiting_demand(self):
        """With the idle guard disabled, the drain loop keeps issuing
        prefetches into time the arriving demand already owns."""
        config = SystemConfig(prefetch=PrefetchConfig(enabled=True))
        system = _sanitized_system(config)
        ctrl = system.hierarchy.controller
        # queue a fresh region well away from anything resident, then
        # break the prioritizer's look-ahead margin.
        ctrl.prefetcher.on_demand_miss(1 << 26)
        assert ctrl.prefetcher.has_work()
        ctrl._idle_guard = -1e12  # the seeded bug
        demand_time = ctrl.channel.command_issue_time()
        with pytest.raises(SanitizerError) as exc:
            ctrl.demand_fetch(demand_time, 1 << 27)
        assert exc.value.component == "controller"
        assert exc.value.event == "prefetch-while-demand-pending"
        assert exc.value.details["pending_since"] == demand_time
        assert exc.value.details["prefetch_issue"] >= demand_time


class TestSeededDRAMViolations:
    def _channel(self, config=None):
        system = _sanitized_system(config)
        channel = system.hierarchy.controller.channel
        checker = next(iter(system.san.channels.values()))
        return system, channel, checker

    def test_rewound_data_bus_overlaps_bursts(self):
        system, channel, checker = self._channel()
        bank = next(
            index for index, row in enumerate(checker.open_rows) if row is not None
        )
        row = checker.open_rows[bank]
        # the seeded bug: the channel forgets all three buses are busy.
        channel.row_bus_free = channel.col_bus_free = channel.data_bus_free = 0.0
        with pytest.raises(SanitizerError) as exc:
            channel.access(
                0.0,
                DRAMCoordinates(bank=bank, row=row, column=0),
                packets=1,
                is_write=False,
                cls=system.stats.dram_reads,
            )
        assert exc.value.component == "dram:channel"
        assert exc.value.event in ("column-access", "data-burst")

    def test_stale_bank_state_misclassifies(self):
        system, channel, checker = self._channel()
        bank = next(
            index for index, row in enumerate(checker.open_rows) if row is not None
        )
        row = checker.open_rows[bank]
        # the seeded bug: the bank latches a different row behind the
        # controller's back, so the next outcome disagrees with history.
        channel.banks.activate(bank, row + 1)
        with pytest.raises(SanitizerError) as exc:
            channel.access(
                channel.quiesce_time(),
                DRAMCoordinates(bank=bank, row=row, column=0),
                packets=1,
                is_write=False,
                cls=system.stats.dram_reads,
            )
        assert exc.value.component == "dram:channel"
        assert exc.value.event == "classify"

    def test_unflushed_sense_amp_neighbour(self, monkeypatch):
        system, channel, checker = self._channel()
        # the seeded bug: from here on, neighbouring banks keep their
        # rows across an activate (sense-amp sharing rule dropped).
        monkeypatch.setattr(Bank, "flush_for_neighbour", lambda self: None)
        pair = None
        for index, row in enumerate(checker.open_rows):
            if row is None:
                continue
            for n in channel.banks.neighbours(index):
                if checker.open_rows[n] is None:
                    pair = (index, n)
                    break
            if pair:
                break
        assert pair is not None, "no open bank with a closed neighbour"
        open_bank, neighbour = pair
        with pytest.raises(SanitizerError) as exc:
            # activating the closed neighbour must flush the open bank
            channel.access(
                channel.quiesce_time(),
                DRAMCoordinates(bank=neighbour, row=3, column=0),
                packets=1,
                is_write=False,
                cls=system.stats.dram_reads,
            )
        assert exc.value.component == "dram:bank"
        assert exc.value.event == "neighbour-flush"
        assert exc.value.details["neighbour"] == open_bank

    def test_quiesce_catches_diverged_bank_state(self):
        system, channel, checker = self._channel()
        bank = next(
            index for index, row in enumerate(checker.open_rows) if row is not None
        )
        channel.banks[bank].precharge()  # real state mutated silently
        with pytest.raises(SanitizerError) as exc:
            system.san.quiesce(channel.quiesce_time())
        assert exc.value.component == "dram:bank"
        assert exc.value.event == "quiesce"


class TestSeededPrefetchQueueViolations:
    def _entry(self, base):
        return RegionEntry(base, 4096, 64, base)

    def test_duplicate_region(self):
        queue = PrefetchQueue(4, "lifo", probe=Sanitizer())
        queue.insert(self._entry(0))
        with pytest.raises(SanitizerError) as exc:
            queue.insert(self._entry(0))
        assert exc.value.component == "prefetch:queue"
        assert exc.value.event == "duplicate"

    def test_overfull_queue(self):
        san = Sanitizer()
        queue = PrefetchQueue(2, "lifo", probe=san)
        queue.insert(self._entry(0))
        queue.insert(self._entry(4096))
        # the seeded bug: an entry appended without the bound check.
        queue._entries.append(self._entry(8192))
        with pytest.raises(SanitizerError) as exc:
            queue.promote(queue._entries[1])  # any mutation re-checks
        assert exc.value.component == "prefetch:queue"
        assert exc.value.event == "bound"
