"""Trace-driven out-of-order core timing model.

A deliberately simple but faithful abstraction of the paper's
SimpleScalar/21364-like core (Section 3.1): what matters for the
memory-system conclusions is how much *memory-level parallelism* the
core exposes, which is bounded by

* the fetch/dispatch bandwidth (``issue_width`` instructions/cycle),
* the instruction window (RUU): an instruction cannot dispatch until
  the instruction ``window_size`` before it has committed, and commits
  are in order — so a long-latency miss at the window head eventually
  stalls dispatch;
* the load/store queue capacity;
* the L1 MSHRs: at most ``mshrs`` outstanding L1 misses;
* explicit data dependences: a trace record with ``dep=1`` cannot issue
  before the previous load completes (pointer chasing).

Loads occupy their window slot until their data returns; stores retire
into a write buffer after ``STORE_COMMIT_LATENCY`` cycles (their cache
fill continues in the background but only holds an MSHR).  An
instruction-fetch miss stalls dispatch until the fetch completes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.cache.hierarchy import AccessKind, MemoryHierarchy
from repro.cache.mshr import MSHRFile
from repro.core.config import SystemConfig
from repro.core.stats import SimStats
from repro.cpu.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.probe import Probe

__all__ = ["OutOfOrderCore"]

#: cycles a store occupies its window slot (write-buffer drain is
#: modelled by the MSHR it holds until the fill completes).
STORE_COMMIT_LATENCY = 1


class OutOfOrderCore:
    """Executes a :class:`Trace` against a :class:`MemoryHierarchy`."""

    def __init__(
        self,
        config: SystemConfig,
        hierarchy: MemoryHierarchy,
        stats: SimStats,
        probe: "Optional[Probe]" = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.stats = stats
        self._probe = probe

    def run(self, trace: Trace, start_time: float = 0.0, columns=None) -> float:
        """Simulate the whole trace starting at ``start_time``.

        Returns the finish time.  Instruction and cycle counts are
        accumulated into the shared stats; callers that interleave
        warm-up and measurement runs reset the stats in between.
        ``columns`` optionally supplies the five trace columns as plain
        lists (``CompiledTrace.base_columns()``), so batched sweeps
        convert each shared trace to lists once instead of per run.

        This loop executes once per trace record and dominates the
        simulator's profile, so it is written flat: bound methods and
        config fields are hoisted to locals, the five trace columns are
        walked with one ``zip`` instead of per-record indexing, the
        in-flight window is two parallel deques of primitives rather
        than a deque of per-record tuples, and per-kind event counts
        accumulate in locals that fold into the shared stats once at
        the end.  ``gap / issue_width`` stays a true division (not a
        reciprocal multiply): results must be bit-identical for every
        issue width, not just powers of two.
        """
        cfg = self.config.core
        stats = self.stats
        access = self.hierarchy.access
        issue_width = float(cfg.issue_width)
        issue_slot = 1.0 / issue_width  # one division; reused verbatim
        window_size = cfg.window_size
        lsq_size = cfg.lsq_size
        use_swpf = self.config.software_prefetch

        d_mshrs = MSHRFile(self.config.l1d.mshrs, probe=self._probe, level="l1d")
        i_mshrs = MSHRFile(self.config.l1i.mshrs, probe=self._probe, level="l1i")
        d_acquire = d_mshrs.acquire
        d_commit = d_mshrs.commit
        i_acquire = i_mshrs.acquire
        i_commit = i_mshrs.commit

        # Instruction index / completion time of in-flight window
        # entries, ordered by instruction index (two parallel deques:
        # no tuple allocation per record).
        win_index: Deque[int] = deque()
        win_done: Deque[float] = deque()
        win_index_append = win_index.append
        win_done_append = win_done.append
        win_index_pop = win_index.popleft
        win_done_pop = win_done.popleft
        dispatch = start_time  # time the next instruction can dispatch
        commit_front = start_time  # in-order commit time of retired entries
        # per-PC completion times: a dep record serializes against the
        # previous load of the same static access site (pointer chains
        # serialize per chain, streams per stream).
        chain_completion: dict = {}
        chain_get = chain_completion.get
        end_time = start_time
        inst_count = 0
        loads = stores = ifetches = swprefetches = 0

        LOAD = AccessKind.LOAD
        STORE = AccessKind.STORE
        IFETCH = AccessKind.IFETCH
        SWPF = AccessKind.SWPF

        # Plain Python lists iterate ~3x faster than numpy scalars here.
        if columns is None:
            columns = (
                trace.kinds.tolist(),
                trace.gaps.tolist(),
                trace.addrs.tolist(),
                trace.deps.tolist(),
                trace.pcs.tolist(),
            )
        kinds_col, gaps_col, addrs_col, deps_col, pcs_col = columns
        for kind, gap, addr, dep, pc in zip(
            kinds_col, gaps_col, addrs_col, deps_col, pcs_col
        ):
            if kind == SWPF and not use_swpf:
                # Discarded at fetch (Section 4.7 baseline behaviour):
                # the non-memory gap instructions still execute.
                if gap:
                    inst_count += gap
                    dispatch += gap / issue_width
                continue

            if gap:
                inst_count += gap
                dispatch += gap / issue_width

            if kind == IFETCH:
                ifetches += 1
                ready = i_acquire(dispatch)
                completion, missed = access(ready, addr, IFETCH, pc)
                if missed:
                    # MSHR held from allocation to the fill's return.
                    i_commit(completion, ready, addr)
                    # Fetch stalls: nothing dispatches until the line returns.
                    if completion > dispatch:
                        dispatch = completion
                if completion > end_time:
                    end_time = completion
                continue

            inst_count += 1  # the memory (or prefetch) instruction itself
            index = inst_count
            dispatch += issue_slot

            # Window and LSQ occupancy: dispatch waits for in-order commit
            # of entries falling out of the window / queue.
            if win_index:
                horizon = index - window_size
                while win_index and (win_index[0] <= horizon or len(win_index) >= lsq_size):
                    win_index_pop()
                    done = win_done_pop()
                    if done > commit_front:
                        commit_front = done
                        if commit_front > dispatch:
                            dispatch = commit_front

            issue = dispatch
            if dep:
                ready = chain_get(pc, start_time)
                if ready > issue:
                    issue = ready

            issue = d_acquire(issue)

            completion, missed = access(issue, addr, kind, pc)
            if missed:
                d_commit(completion, issue, addr)

            if kind == LOAD:
                loads += 1
                win_index_append(index)
                win_done_append(completion)
                chain_completion[pc] = completion
            elif kind == STORE:
                stores += 1
                win_index_append(index)
                win_done_append(issue + STORE_COMMIT_LATENCY)
            else:  # executed software prefetch: non-binding, retires at once
                swprefetches += 1

            if completion > end_time:
                end_time = completion

        # Drain: all in-flight work commits, the final gap instructions run.
        for done in win_done:
            if done > commit_front:
                commit_front = done
        finish = max(dispatch, commit_front, end_time)
        self.hierarchy.finish(finish)
        # MSHR files are per-run: their drain check happens here, at the
        # end of the run that owns them.
        d_mshrs.quiesce(finish)
        i_mshrs.quiesce(finish)
        stats.instructions += inst_count
        stats.cycles += finish - start_time
        stats.loads += loads
        stats.stores += stores
        stats.ifetches += ifetches
        stats.software_prefetches += swprefetches
        stats.l1d_mshr_stalls += d_mshrs.stalls
        stats.l1i_mshr_stalls += i_mshrs.stalls
        return finish
