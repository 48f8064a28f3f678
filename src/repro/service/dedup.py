"""Single-flight deduplication of concurrent point computations.

When a point truly must be simulated — it is in neither layer of the
runner's :class:`~repro.runner.cache.ResultStore` — the first job to
ask becomes the flight's *leader* and runs the computation; every
concurrent asker for the same key becomes a *follower* awaiting the
leader's future, so identical points in concurrent submissions are
computed exactly once.  The flight table is keyed by the store's
content hash (:meth:`SimPoint.cache_key`), so "identical point" has
exactly one definition across the whole system.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict

__all__ = ["FlightCancelled", "SingleFlight"]


class FlightCancelled(RuntimeError):
    """The leader of a flight was cancelled before producing a value.

    Followers receive this instead of a bare ``CancelledError`` so they
    can tell "the other job holding this key was cancelled" (recover by
    starting a fresh flight) apart from "I was cancelled" (propagate).
    """


class SingleFlight:
    """Per-key computation collapsing for one asyncio event loop.

    ``run(key, compute)`` returns the computed value; concurrent calls
    with the same key while a computation is in flight share the one
    result.  The winner's future is removed once resolved, so a *later*
    call recomputes (the runner's store is what makes later calls cheap).

    Failures propagate to every waiter of that flight — each follower
    sees the same exception the leader hit — and the key is cleared so
    a retry starts a fresh flight.
    """

    def __init__(self) -> None:
        self._inflight: Dict[str, "asyncio.Future"] = {}
        self.leaders = 0
        self.followers = 0

    def inflight(self) -> int:
        return len(self._inflight)

    def is_inflight(self, key: str) -> bool:
        """True while a flight for ``key`` is currently computing."""
        return key in self._inflight

    async def run(
        self, key: str, compute: Callable[[], Awaitable[object]]
    ) -> object:
        existing = self._inflight.get(key)
        if existing is not None:
            self.followers += 1
            return await asyncio.shield(existing)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._inflight[key] = future
        self.leaders += 1
        try:
            value = await compute()
        except asyncio.CancelledError:
            # cancellation is about the *leader's job*, not the key:
            # followers get a recoverable FlightCancelled and may elect
            # themselves leader of a fresh flight, while the real
            # CancelledError keeps propagating through the leader.
            future.set_exception(FlightCancelled(f"leader cancelled for {key}"))
            future.exception()
            raise
        except BaseException as exc:
            future.set_exception(exc)
            # a follower may or may not be awaiting; either way the
            # exception is considered delivered to the flight.
            future.exception()
            raise
        else:
            future.set_result(value)
            return value
        finally:
            self._inflight.pop(key, None)

    def summary(self) -> Dict[str, int]:
        return {
            "leaders": self.leaders,
            "followers": self.followers,
            "inflight": self.inflight(),
        }
