"""Discrete-event simulation core.

A minimal, fast event loop: a binary heap of (time, sequence, callback)
with cancellable events.  Times are microseconds on a float clock — the
natural unit of 802.11 MAC timing.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.errors import SimulationError


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time_us", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time_us: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
    ):
        self.time_us = time_us
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        self.cancelled = True


class Engine:
    """The event loop.

    Events scheduled for identical times fire in scheduling order
    (FIFO tie-break via a sequence counter), which keeps simulations
    deterministic for a fixed seed.
    """

    def __init__(self) -> None:
        self.now_us: float = 0.0
        # Heap of (time_us, seq, event): seq is unique, so tuple order
        # never reaches the event and ties fire in scheduling order.
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._events_fired = 0

    def schedule(
        self, delay_us: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule *callback(*args)* to fire ``delay_us`` from now.

        Raises:
            SimulationError: for a negative delay.
        """
        if delay_us < 0:
            raise SimulationError(f"cannot schedule in the past: {delay_us}")
        return self.schedule_at(self.now_us + delay_us, callback, *args)

    def schedule_at(
        self, time_us: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule *callback(*args)* at absolute time ``time_us``."""
        if time_us < self.now_us:
            raise SimulationError(
                f"cannot schedule at {time_us} before now ({self.now_us})"
            )
        seq = next(self._seq)
        event = Event(time_us, seq, callback, args)
        heapq.heappush(self._queue, (time_us, seq, event))
        return event

    def run_until(self, end_us: float) -> None:
        """Fire events in order until the clock reaches ``end_us``.

        The clock is left exactly at ``end_us``; events scheduled at
        ``end_us`` do fire.
        """
        queue = self._queue
        heappop = heapq.heappop
        while queue and queue[0][0] <= end_us:
            time_us, _, event = heappop(queue)
            if event.cancelled:
                continue
            self.now_us = time_us
            self._events_fired += 1
            event.callback(*event.args)
        self.now_us = max(self.now_us, end_us)

    def run_all(self, max_events: int = 10_000_000) -> None:
        """Drain the queue completely (bounded by *max_events*)."""
        fired = 0
        while self._queue:
            time_us, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now_us = time_us
            self._events_fired += 1
            event.callback(*event.args)
            fired += 1
            if fired > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; likely a scheduling loop"
                )

    @property
    def events_fired(self) -> int:
        """Total events executed (diagnostics)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Events still queued (including cancelled tombstones)."""
        return len(self._queue)
