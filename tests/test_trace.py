"""Unit tests for the trace format and builder."""

import gc
import warnings
import zipfile

import numpy as np
import pytest

from repro.cache.hierarchy import AccessKind
from repro.cpu.trace import Trace, TraceBuilder


class TestTraceBuilder:
    def test_build_roundtrip(self):
        builder = TraceBuilder("t")
        builder.load(3, 0x100, dep=1, pc=7)
        builder.store(0, 0x200)
        builder.ifetch(0x300)
        builder.software_prefetch(2, 0x400)
        trace = builder.build()
        assert len(trace) == 4
        records = list(trace.records())
        assert records[0] == (AccessKind.LOAD, 3, 0x100, 1, 7)
        assert records[1] == (AccessKind.STORE, 0, 0x200, 0, 0)
        assert records[2] == (AccessKind.IFETCH, 0, 0x300, 0, 0)
        assert records[3] == (AccessKind.SWPF, 2, 0x400, 0, 0)

    def test_gap_saturates_at_uint16(self):
        builder = TraceBuilder("t")
        builder.load(1_000_000, 0)
        assert builder.build().gaps[0] == 0xFFFF

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            TraceBuilder("t").load(-1, 0)

    def test_rejects_negative_addr(self):
        with pytest.raises(ValueError):
            TraceBuilder("t").load(0, -4)

    def test_len_tracks_appends(self):
        builder = TraceBuilder("t")
        assert len(builder) == 0
        builder.load(0, 0)
        assert len(builder) == 1


class TestTrace:
    def test_instruction_count(self):
        """gaps + loads + stores; ifetch and swpf records carry none."""
        builder = TraceBuilder("t")
        builder.load(4, 0)
        builder.store(2, 64)
        builder.ifetch(128)
        builder.software_prefetch(3, 192)
        trace = builder.build()
        assert trace.instruction_count == 4 + 2 + 3 + 2

    def test_memory_references_excludes_ifetch(self):
        builder = TraceBuilder("t")
        builder.load(0, 0)
        builder.ifetch(64)
        builder.software_prefetch(0, 128)
        assert builder.build().memory_references == 2

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                name="bad",
                kinds=np.zeros(2, dtype=np.uint8),
                gaps=np.zeros(3, dtype=np.uint16),
                addrs=np.zeros(2, dtype=np.int64),
                deps=np.zeros(2, dtype=np.uint8),
                pcs=np.zeros(2, dtype=np.uint32),
            )

    def test_concat(self):
        a_builder = TraceBuilder("a")
        a_builder.load(0, 0)
        b_builder = TraceBuilder("b")
        b_builder.store(0, 64)
        combined = a_builder.build().concat(b_builder.build())
        assert len(combined) == 2
        assert combined.name == "a+b"
        assert combined.kinds[1] == AccessKind.STORE


class TestTraceIO:
    def test_save_load_roundtrip(self, tmp_path):
        builder = TraceBuilder("io", description="round trip")
        builder.load(3, 0x100, dep=1, pc=7)
        builder.store(0, 0x200)
        builder.ifetch(0x300)
        trace = builder.build()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "io"
        assert loaded.description == "round trip"
        assert list(loaded.records()) == list(trace.records())

    def test_shared_prefix_survives_save_and_load(self, tmp_path):
        builder = TraceBuilder("io")
        for addr in (0x100, 0x200, 0x300):
            builder.load(0, addr)
        base = builder.build()
        trace = Trace(
            name="io", kinds=base.kinds, gaps=base.gaps, addrs=base.addrs,
            deps=base.deps, pcs=base.pcs, shared_prefix=2,
        )
        path = tmp_path / "trace.npz"
        trace.save(path)
        assert Trace.load(path).shared_prefix == 2
        with pytest.raises(ValueError):
            Trace(
                name="io", kinds=base.kinds, gaps=base.gaps, addrs=base.addrs,
                deps=base.deps, pcs=base.pcs, shared_prefix=4,
            )

    def test_corrupt_archive_raises_and_closes_its_file(self, tmp_path):
        """A file with a zip header and garbage after it raises, and the
        file ``load`` opened is closed, not left to the collector."""
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"PK\x03\x04" + b"garbage" * 8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(zipfile.BadZipFile):
                Trace.load(bad)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_save_and_load_through_open_files(self, tmp_path):
        builder = TraceBuilder("io")
        builder.load(0, 0x40)
        trace = builder.build()
        path = tmp_path / "trace.bin"  # no .npz suffix added to a handle
        with open(path, "wb") as handle:
            trace.save(handle)
        with open(path, "rb") as handle:
            assert list(Trace.load(handle).records()) == list(trace.records())
        with open(path, "wb") as handle:
            np.save(handle, np.arange(4))
        with pytest.raises(ValueError, match="not a trace archive"):
            Trace.load(path)

    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro import SystemConfig, simulate
        from repro.workloads import build_trace

        trace = build_trace("gzip", 1000)
        path = tmp_path / "gzip.npz"
        trace.save(path)
        a = simulate(trace, SystemConfig())
        b = simulate(Trace.load(path), SystemConfig())
        assert a.cycles == b.cycles
