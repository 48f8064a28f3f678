"""Attempts in worker processes: one pool class and one attempt loop.

Both engines simulate through this module whenever they use worker
processes: a :class:`~repro.runner.runner.Runner` batch with
``jobs > 1`` (:func:`run_batch`, one pool per batch) and the simulation
service (:mod:`repro.service.engine`, one pool for its whole life).
Every point resolves in :func:`resolve`, the attempt loop:
``point-started``, one attempt in the pool, then either
:meth:`Runner.completed` or :meth:`Runner.fail` and the keyed backoff
before the next attempt.

A :class:`WorkerPool` keeps at most ``workers`` attempts in flight.  Its
watchdog times an attempt from the moment its worker starts it: the
worker writes a start stamp into shared memory (``time.monotonic`` is
one clock for every process on the host), so neither waiting for a
worker nor a fresh worker's imports is ever charged.  An attempt that
outlives the watchdog kills the pool's workers: the expired attempt
fails as a ``timeout``, and the attempts in flight beside it run again,
on new workers, at the same attempt number.  A worker that dies by
itself costs every attempt in flight one ``crash``; the pool then starts
new workers unless its caller's ``on_death`` refuses, after which it
takes no more attempts (:class:`PoolUnusable`).

What stays different between the two engines comes from the caller: a
batch uses the platform's default start method (fork on Linux: cheap to
start, and a batch process has no threads), caps rebuilds and lives for
one batch; the service spawns (its process has threads), replaces its
workers every time and lives as long as the service.

This module imports :mod:`asyncio`, so nothing that ``import
repro.runner`` loads may import it: the runner reaches it through a
function-level import on its pooled path only.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import multiprocessing
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple

from repro.runner.runner import FailureRecord, PointRun, Runner, SimPoint
from repro.runner.worker import exit_with_parent

__all__ = ["PoolUnusable", "WorkerPool", "kill_executor", "resolve", "run_batch"]

#: in a pool worker, the start stamps shared with its parent (one
#: monotonic time per slot; 0 = not started).  Unset in the parent.
_started = None


def _init_worker(started) -> None:
    global _started
    _started = started
    exit_with_parent()


def _stamped(target, slot: int, point: SimPoint, attempt: int, kwargs):
    """One attempt in a pool worker: stamp its start, then run it."""
    _started[slot] = time.monotonic()
    return target(point, attempt, **kwargs)


class _Expired(Exception):
    """The attempt outlived the watchdog; its worker is dead."""


class PoolUnusable(Exception):
    """The pool takes no more attempts: a worker died and its caller
    refused to replace it."""


#: seconds a terminated pool worker gets to exit before it is killed.
KILL_GRACE = 5.0


def kill_executor(executor: ProcessPoolExecutor) -> None:
    """Terminate an executor's worker processes and discard queued work.

    ``shutdown`` alone would block on hung workers; terminating the
    processes first guarantees progress.  A worker still alive
    :data:`KILL_GRACE` seconds after ``SIGTERM`` (one that ignores it)
    is killed, so none is orphaned.  The executor's manager thread also
    reaps the workers, and it is joined last: on return every worker
    reports its exit and every future of the executor is done.
    """
    processes = list((getattr(executor, "_processes", None) or {}).values())
    manager = getattr(executor, "_executor_manager_thread", None)
    for proc in processes:
        try:
            proc.terminate()
        except Exception:
            pass
    executor.shutdown(wait=False, cancel_futures=True)
    deadline = time.monotonic() + KILL_GRACE
    for proc in processes:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    for proc in processes:
        if proc.is_alive():
            proc.kill()
            proc.join()
    if manager is not None:
        manager.join(timeout=KILL_GRACE)


class WorkerPool:
    """At most ``workers`` attempts in flight, under one watchdog.

    ``context`` is the :mod:`multiprocessing` context workers start
    from; ``timeout`` is the watchdog in seconds (None: none).
    ``on_death`` is called when a worker dies by itself and returns
    whether new workers may start; without it they always may.  The
    first attempt starts the workers.  Build the pool inside the event
    loop that runs its attempts.
    """

    def __init__(self, workers: int, context, timeout: Optional[float], on_death=None) -> None:
        self._workers = workers
        self._context = context
        self._timeout = timeout
        self._on_death = on_death
        self._usable = True
        self._executor: Optional[ProcessPoolExecutor] = None
        #: executors killed by the watchdog or :meth:`kill`, and when:
        #: their attempts in flight run again instead of failing.
        self._killed = weakref.WeakKeyDictionary()
        #: free slot numbers; an attempt holds one until its worker is
        #: done with it, so a cancelled attempt's worker takes no other.
        self._slots: "asyncio.Queue[int]" = asyncio.Queue()
        for slot in range(workers):
            self._slots.put_nowait(slot)
        #: per slot, when its attempt began in the worker.
        self._started = context.Array("d", workers, lock=False)

    async def attempt(
        self, target, point: SimPoint, attempt: int, started: Callable[[], None], **kwargs: object
    ) -> Optional[Tuple[Dict[str, object], float]]:
        """Run ``target(point, attempt, **kwargs)`` in a worker.

        ``started`` is called once a worker is free for the attempt.
        Returns ``(stats, wall)``, or None when a kill meant for another
        attempt took this one down unharmed.  Raises what the attempt
        raised, :class:`_Expired`, or :class:`PoolUnusable`.
        """
        slot = await self._slots.get()
        # a wrapper installed in this process (a profiler's span) cannot
        # cross into the worker: the worker runs the function it wraps.
        target = inspect.unwrap(target)
        while True:
            if self._executor is None:
                if not self._usable:
                    self._slots.put_nowait(slot)
                    raise PoolUnusable()
                self._executor = ProcessPoolExecutor(
                    self._workers, self._context, _init_worker, (self._started,)
                )
            executor = self._executor
            self._started[slot] = 0.0
            try:
                future = asyncio.wrap_future(
                    executor.submit(_stamped, target, slot, point, attempt, kwargs)
                )
            except BrokenProcessPool:
                self._drop(executor)  # a worker died before anyone noticed
                continue
            break
        # the slot frees when the worker does, even if this task is
        # cancelled first: a worker still busy takes no new attempt.
        future.add_done_callback(functools.partial(self._free, slot, executor))
        started()
        began: Optional[float] = None
        while not future.done():
            remaining = None
            if self._timeout is not None:
                # not started yet: the window cannot open before now.
                began = self._started[slot] or None
                remaining = (began or time.monotonic()) + self._timeout - time.monotonic()
                if remaining <= 0:
                    self._drop(executor, killed=True)
                    raise _Expired()
            await asyncio.wait((future,), timeout=remaining)
        if future.cancelled():
            return None  # still queued when a kill shut the pool down
        try:
            return future.result()
        except BrokenProcessPool:
            killed_at = self._killed.get(executor)
            if killed_at is None:
                raise
            if began is not None and began + self._timeout <= killed_at:
                raise _Expired() from None  # expired beside the killer
            return None

    def kill(self) -> None:
        """Kill the workers now (an interrupt or a shutdown)."""
        if self._executor is not None:
            self._drop(self._executor, killed=True)

    def shutdown(self) -> None:
        """Let the idle workers exit and wait for them."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _drop(self, executor: ProcessPoolExecutor, killed: bool = False) -> None:
        """Send no more attempts to ``executor``; kill and reap its workers.

        ``killed`` marks a kill by the watchdog or :meth:`kill` rather
        than a worker's own death, so the executor's other attempts in
        flight run again instead of failing.
        """
        if killed:
            self._killed[executor] = time.monotonic()
        if self._executor is executor:
            self._executor = None
            if not killed and self._on_death is not None:
                self._usable = self._on_death()
        kill_executor(executor)

    def _free(self, slot: int, executor: ProcessPoolExecutor, future) -> None:
        """Done-callback of an attempt's future: its worker is free."""
        died = not future.cancelled() and isinstance(future.exception(), BrokenProcessPool)
        if died and self._executor is executor:
            self._drop(executor)  # the executor takes no more work
        self._slots.put_nowait(slot)


async def resolve(
    runner: Runner, pool: WorkerPool, run: PointRun, target, failed, **kwargs: object
) -> Optional[float]:
    """The attempt loop: resolve ``run`` on ``pool`` through ``runner``.

    Each attempt logs ``point-started`` once a worker is free for it.
    A result goes to :meth:`Runner.completed` and its wall seconds are
    returned.  A failed attempt goes to :meth:`Runner.fail`, whose record
    is handed to ``failed``; None is returned once the record is fatal,
    and otherwise the next attempt waits out the keyed backoff.  An
    attempt killed for another one runs again at the same number.
    Raises :class:`PoolUnusable` when the pool takes no more attempts.
    """
    started = functools.partial(runner.log_event, "point-started", run)
    while True:
        try:
            result = await pool.attempt(target, run.point, run.attempt, started, **kwargs)
        except PoolUnusable:
            raise  # not the attempt's failure: the caller finishes the point
        except _Expired:
            error: Optional[BaseException] = None
        except Exception as exc:
            error = exc
        else:
            if result is None:
                continue
            stats, wall = result
            runner.completed(run, stats, wall)
            return wall
        record = runner.fail(run, error)
        failed(record)
        if record.fatal:
            return None
        await asyncio.sleep(max(0.0, run.eligible - time.monotonic()))


def run_batch(
    runner: Runner, runs: List[PointRun], fatal: List[FailureRecord], target, **kwargs: object
) -> List[PointRun]:
    """Resolve ``runs`` concurrently on one pool that lives for the batch.

    The pool has ``min(runner.jobs, len(runs))`` workers and the
    runner's watchdog, and a worker's death goes to
    ``runner._rebuild_pool``.  Fatal failure records are appended to
    ``fatal``.  Returns the runs still unresolved when the pool became
    unusable, for the caller to finish inline.
    """
    batch = _batch(runner, runs, fatal, target, kwargs)
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(batch)
    # this thread already runs an event loop (a notebook's): the batch
    # gets one of its own on another thread.
    with ThreadPoolExecutor(max_workers=1) as thread:
        return thread.submit(asyncio.run, batch).result()


async def _batch(runner, runs, fatal, target, kwargs) -> List[PointRun]:
    workers = min(runner.jobs, len(runs))
    context = multiprocessing.get_context()
    pool = WorkerPool(workers, context, runner.timeout, on_death=runner._rebuild_pool)
    left: List[PointRun] = []

    def failed(record: FailureRecord) -> None:
        if record.fatal:
            fatal.append(record)

    async def one(run: PointRun) -> None:
        try:
            await resolve(runner, pool, run, target, failed, **kwargs)
        except PoolUnusable:
            left.append(run)

    try:
        await asyncio.gather(*map(one, runs))
    except BaseException:
        # Ctrl-C (or a bug) mid-batch: kill the workers so none is
        # orphaned; every result already recorded stays in the store.
        pool.kill()
        raise
    pool.shutdown()
    return left
