"""Single-flight request coalescing keyed by canonical cache keys.

Two concurrent requests for the same model are the same computation:
the canonical key (:mod:`repro.engine.keys`) already proves it, and
solves are pure, so the second caller can simply await the first
caller's in-flight future instead of entering the engine at all.  The
map holds *futures*, not results — completed work belongs to the
engine's caches; this layer only deduplicates the in-flight window,
which is exactly the window the engine's caches cannot cover.

A ``/solve`` leads one key with one future (:meth:`SingleFlight.lead`);
a ``/batch`` leads all of its new keys with one shared future that
resolves with their results in order (:meth:`SingleFlight.start_many`),
so the loop wakes once per batch, not once per member.  Joining works
per key either way: :meth:`SingleFlight.join` on a batch-led key hands
out a future of that key's own result.

Only ever touched from the service event loop (no locks needed).
"""

from __future__ import annotations

import asyncio
from collections.abc import Sequence
from typing import Any, Callable

__all__ = ["SingleFlight"]

#: Where one key's result comes from: ``(future, slot, coalesced)``.
_Source = tuple[asyncio.Future, "int | None", bool]


class SingleFlight:
    """An in-flight future per canonical key, with exact hit counts."""

    def __init__(self) -> None:
        #: key -> (flight future, slot): the key's result is the
        #: future's result (slot None) or its ``slot``-th element.
        self._flights: dict[str, tuple[asyncio.Future, int | None]] = {}
        self.leaders = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._flights)

    def join(self, key: str) -> asyncio.Future | None:
        """A future of ``key``'s result, if a leader is working on it."""
        entry = self._flights.get(key)
        if entry is None:
            return None
        self.hits += 1
        future, slot = entry
        return future if slot is None else _member(future, slot)

    def lead(
        self, key: str, loop: asyncio.AbstractEventLoop
    ) -> asyncio.Future:
        """Register a new leader future for ``key``.

        The entry removes itself the moment the future resolves (with a
        result *or* an exception): a later identical request starts a
        fresh flight — and is then served by the engine's result cache,
        so nothing is recomputed either way.
        """
        future: asyncio.Future = loop.create_future()
        self._flights[key] = entry = (future, None)
        future.add_done_callback(self._evict(key, entry))
        self.leaders += 1
        return future

    def start_many(
        self, keys: Sequence[str], loop: asyncio.AbstractEventLoop
    ) -> tuple[asyncio.Future | None, list[_Source]]:
        """Join or lead every key of a batch in one pass.

        A key with a flight in progress joins it (:meth:`join`); the
        other keys share one new flight, whose future must be resolved
        with their results in order of first appearance.  A key
        repeated in ``keys`` joins its first appearance.  Returns that
        flight (None when every key joined) and, per key,
        ``(future, slot, coalesced)``: its result is ``future.result()``
        when ``slot`` is None, else ``future.result()[slot]``.  The
        batch's entries all leave the map when its flight resolves.
        """
        flight: asyncio.Future | None = None
        slots: dict[str, int] = {}
        sources: list[_Source] = []
        for key in keys:
            slot = slots.get(key)
            if slot is not None:
                self.hits += 1
                sources.append((flight, slot, True))
                continue
            joined = self.join(key)
            if joined is not None:
                sources.append((joined, None, True))
                continue
            if flight is None:
                flight = loop.create_future()
            slots[key] = slot = len(slots)
            self._flights[key] = (flight, slot)
            sources.append((flight, slot, False))
        if flight is not None:
            self.leaders += len(slots)
            flight.add_done_callback(self._evict_all(list(slots), flight))
        return flight, sources

    def _evict(
        self, key: str, entry: tuple[asyncio.Future, int | None]
    ) -> Callable[[Any], None]:
        def callback(_done: Any) -> None:
            if self._flights.get(key) is entry:
                del self._flights[key]

        return callback

    def _evict_all(
        self, keys: list[str], flight: asyncio.Future
    ) -> Callable[[Any], None]:
        def callback(_done: Any) -> None:
            for key in keys:
                entry = self._flights.get(key)
                if entry is not None and entry[0] is flight:
                    del self._flights[key]

        return callback


def _member(flight: asyncio.Future, slot: int) -> asyncio.Future:
    """A future of element ``slot`` of ``flight``'s result list.

    Made only for a caller that joins a batch-led key, so a batch pays
    for no per-member future itself.
    """
    member = flight.get_loop().create_future()

    def settle(done: asyncio.Future) -> None:
        if member.done():
            return
        if done.cancelled():
            member.cancel()
        elif done.exception() is not None:
            member.set_exception(done.exception())
            # Its waiter may have given up (504) before the flight failed.
            member.exception()
        else:
            member.set_result(done.result()[slot])

    flight.add_done_callback(settle)
    return member
