"""Trace synthesis from workload profiles.

``build_trace(name, memory_refs)`` lays the profile's components out in
a non-overlapping physical address space, then draws ``memory_refs``
references: per record a component is chosen by weight, the component
supplies the address/dependence, the profile's write fraction picks
load vs. store, and a geometric gap models the non-memory instructions
in between.  Instruction-fetch records walk a synthetic code footprint
(mostly sequential, occasional branches) every ``ifetch_every``
records.  Generation is deterministic given (name, memory_refs, seed).
"""

from __future__ import annotations

import zlib
from typing import List

import numpy as np

from repro.cache.hierarchy import AccessKind
from repro.cpu.trace import Trace, TraceBuilder
from repro.workloads.spec import ComponentSpec, WorkloadProfile, profile
from repro.workloads.synthetic import (
    Component,
    HotColdComponent,
    PointerChaseComponent,
    RandomComponent,
    StreamComponent,
    StridedComponent,
)

__all__ = [
    "build_trace",
    "build_warmup_trace",
    "build_components",
    "CODE_BASE",
]

MB = 1 << 20

#: synthetic code segment lives at the top of the 256MB physical space.
CODE_BASE = 224 * MB

#: branch probability of the synthetic instruction-fetch walker.
_BRANCH_PROBABILITY = 0.10


def build_components(prof: WorkloadProfile) -> List[Component]:
    """Instantiate the profile's components with a disjoint data layout."""
    components: List[Component] = []
    base = 0
    for cid, spec in enumerate(prof.components):
        components.append(_instantiate(spec, cid, base))
        # round up to the next MB and leave a guard megabyte
        base += ((spec.footprint + MB - 1) // MB + 1) * MB
    if base > CODE_BASE:
        raise ValueError(f"profile {prof.name} data footprint exceeds the physical space")
    return components


def _instantiate(spec: ComponentSpec, cid: int, base: int) -> Component:
    if spec.kind == "stream":
        return StreamComponent(
            cid, base, spec.footprint,
            streams=spec.streams, stride=spec.stride, dep=spec.dep,
            swpf_distance=spec.swpf_distance,
        )
    if spec.kind == "strided":
        return StridedComponent(
            cid, base, spec.footprint,
            stride=spec.stride, streams=spec.streams, dep=spec.dep,
        )
    if spec.kind == "pointer":
        return PointerChaseComponent(
            cid, base, spec.footprint,
            node_bytes=spec.node_bytes, parallel_chains=spec.parallel_chains, dep=spec.dep,
        )
    if spec.kind == "random":
        return RandomComponent(cid, base, spec.footprint, granule=spec.granule)
    if spec.kind == "hotcold":
        return HotColdComponent(
            cid, base, spec.footprint,
            hot_bytes=spec.hot_bytes, hot_fraction=spec.hot_fraction,
            warm_bytes=spec.warm_bytes, warm_fraction=spec.warm_fraction,
            granule=spec.granule,
        )
    raise ValueError(f"unknown component kind {spec.kind!r}")


#: dedicated address region used to fill the L2 with dirty data during
#: warm-up (no workload component ever touches it).
FILLER_BASE = 160 * MB

#: filler stores write this multiple of the L2 capacity (bounded below).
FILLER_FACTOR = 1.25
FILLER_MAX = 24 * MB


def build_warmup_trace(name: str, seed: int = 0, l2_bytes: int = 1 << 20) -> Trace:
    """Initialization phase: fill the cache dirty, then touch the data.

    Real programs begin by writing their data structures; synthesizing
    that phase explicitly lets short steady-state traces start from
    warm caches, so residency is decided by cache capacity rather than
    by how long a random walk takes to visit every block.  The phase
    has three parts, in LRU-significant order:

    1. a half-dirty sweep over a dedicated *filler* region sized past
       the L2 capacity, so the cache enters the measured window full
       and steady-state fills immediately produce writeback traffic at
       a realistic rate (the DRAM mapping study depends on it);
    2. a clean re-touch of each component's resident set (after the
       filler, which evicts everything touched before it);
    3. an instruction-fetch walk over the code footprint.

    The filler covers the L2 contiguously, so every L1D and L2 set
    takes at least as many filler blocks as it has ways: a sweep over
    the data before it would leave no line behind in any cache, so the
    phase does not open with one.
    """
    prof = profile(name)
    components = build_components(prof)
    addr_parts: List[np.ndarray] = []
    kind_parts: List[np.ndarray] = []
    pc_parts: List[np.ndarray] = []

    def segment(kind_fill, base: int, span: int, pc: int) -> np.ndarray:
        offsets = np.arange(0, span, 64, dtype=np.int64)
        addr_parts.append(base + offsets)
        if isinstance(kind_fill, int):
            kind_parts.append(np.full(len(offsets), kind_fill, dtype=np.uint8))
        else:
            kind_parts.append(kind_fill(offsets))
        pc_parts.append(np.full(len(offsets), pc, dtype=np.uint32))
        return offsets

    filler_span = min(int(l2_bytes * FILLER_FACTOR), FILLER_MAX)
    # Alternate dirty/clean so steady-state evictions write back at
    # a realistic ~50% rate rather than on every fill.
    filler = segment(
        lambda offs: np.where(
            (offs // 64) % 2 == 1, AccessKind.STORE, AccessKind.LOAD
        ).astype(np.uint8),
        FILLER_BASE,
        filler_span,
        0xFFFE,
    )
    for comp in components:
        resident = _resident_span(comp)
        if resident:
            segment(AccessKind.LOAD, comp.base, resident, comp.cid << 8)
    segment(AccessKind.IFETCH, CODE_BASE, max(prof.code_footprint, 4096), 0xFFFF)
    _ = seed  # layout is deterministic; kept for signature symmetry
    addrs = np.concatenate(addr_parts)
    return Trace(
        name=f"{name}:warmup",
        kinds=np.concatenate(kind_parts),
        gaps=np.zeros(len(addrs), dtype=np.uint16),
        addrs=addrs,
        deps=np.zeros(len(addrs), dtype=np.uint8),
        pcs=np.concatenate(pc_parts),
        description="initialization pass",
        # The filler depends on the L2 size alone: every benchmark's
        # warm-up at one L2 size opens with the same records.
        shared_prefix=len(filler),
    )


def _resident_span(comp: Component) -> int:
    """Bytes at the component's base expected to stay cache-resident."""
    if isinstance(comp, HotColdComponent):
        return min(comp.warm_bytes + comp.hot_bytes, comp.footprint)
    if isinstance(comp, (StreamComponent, StridedComponent)):
        return comp.footprint if comp.footprint <= 1 << 20 else 0
    return 0


def build_trace(name: str, memory_refs: int, seed: int = 0) -> Trace:
    """Synthesize a trace for benchmark ``name`` with ``memory_refs`` records."""
    if memory_refs < 1:
        raise ValueError("memory_refs must be >= 1")
    prof = profile(name)
    # zlib.crc32, not hash(): str hashing is salted per interpreter
    # process, which would make traces (and thus every simulation
    # result) differ from run to run and across pool workers.
    rng = np.random.default_rng((zlib.crc32(name.encode("ascii")) & 0xFFFF_FFFF) ^ (seed * 0x9E3779B9) & 0xFFFF_FFFF)
    components = build_components(prof)
    weights = np.array([spec.weight for spec in prof.components], dtype=float)
    weights /= weights.sum()
    cumulative = np.cumsum(weights)

    builder = TraceBuilder(name=name, description=prof.description)
    gap_p = 1.0 / (prof.mean_gap + 1.0)

    # Pre-draw the bulk random streams (fast path).
    picks = rng.random(memory_refs)
    writes = rng.random(memory_refs) < prof.write_fraction
    gaps = rng.geometric(gap_p, size=memory_refs) - 1

    code_cursor = 0
    code_span = max(prof.code_footprint, 4096)

    # One vectorized component-selection pass (the per-record
    # searchsorted dominated generation time), clamped defensively the
    # way the old per-record fallback was.
    comp_ids = np.minimum(
        np.searchsorted(cumulative, picks, side="right"), len(components) - 1
    )
    counts = np.bincount(comp_ids, minlength=len(components))
    # Components that never consume the RNG (streams/strides) pre-draw
    # all their references in one vectorized batch; the others must stay
    # in the interleaved per-record order so the RNG stream — and hence
    # every downstream simulation result — is unchanged.
    batches: List = [
        comp.batch_refs(int(count)) if count else None
        for comp, count in zip(components, counts)
    ]
    positions = [0] * len(components)
    comp_list = comp_ids.tolist()
    gap_list = gaps.tolist()
    write_list = writes.tolist()

    emit_load = builder.load
    emit_store = builder.store
    emit_swpf = builder.software_prefetch
    emit_ifetch = builder.ifetch
    rng_random = rng.random
    rng_integers = rng.integers
    ifetch_every = prof.ifetch_every

    for i in range(memory_refs):
        ci = comp_list[i]
        batch = batches[ci]
        if batch is not None:
            pos = positions[ci]
            positions[ci] = pos + 1
            addr = batch[0][pos]
            dep = batch[1][pos]
            swpf = batch[2][pos]
            sub = batch[3][pos]
        else:
            addr, dep, swpf, sub = components[ci].next_ref(rng)
        # The PC identifies the static access site: component plus
        # substream (per-PC dependence serialization and PC-indexed
        # prefetchers both key on it).
        pc = (ci << 8) | (sub & 0xFF)
        gap = gap_list[i]
        if swpf is not None:
            emit_swpf(gap, swpf, pc=pc)
            gap = 0
        if write_list[i] and not dep:
            emit_store(gap, addr, pc=pc)
        else:
            emit_load(gap, addr, dep=dep, pc=pc)
        if ifetch_every and i % ifetch_every == 0:
            if rng_random() < _BRANCH_PROBABILITY:
                code_cursor = int(rng_integers(code_span // 64)) * 64
            else:
                code_cursor = (code_cursor + 64) % code_span
            emit_ifetch(CODE_BASE + code_cursor, pc=0xFFFF)
    return builder.build()
